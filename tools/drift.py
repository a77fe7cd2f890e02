"""Byte-identity drift check over the benchmark's workloads.

    python3 tools/drift.py OUT

Runs every campaign of every workload in ``bench/workloads.py`` at run seeds
0 and 1 with the checkout's ``src/``, and writes ``OUT/<workload>-seed-<s>/``:
``<campaign>.json``, the result file as ``save_result`` writes it, and
``<campaign>.starts``, one line per start with its status, iteration count,
end point bytes (hex) and the repr of its residual norm.  It also runs the
command lines of ``CLI_RUNS`` through ``spbench.cli.main`` and keeps the
instance and result files they write in ``OUT/cli/``, and writes
``OUT/traces/<method>.trace``: each method's recorded traces on the XY ring
(L=4, 20 starts, seed 3), one line per entry with its start, step, point
bytes (hex) and the repr of its residual norm.  Run it in two
checkouts; ``diff -r OUT_A OUT_B`` prints nothing when every result is
byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import spbench  # noqa: E402
import spbench.cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)

# spbench command lines, in order; each *.json argument names a file in OUT/cli
CLI_RUNS = (
    ("generate", "phi4", "--N", "2", "-o", "phi4.json"),
    ("solve", "phi4.json", "-o", "phi4-grid3.json", "--starts", "grid3"),
    ("generate", "xy", "--d", "1", "--L", "4", "-o", "ring.json"),
    ("solve", "ring.json", "-o", "ring-homotopy.json", "--method", "homotopy",
     "--starts", "50", "--seed", "3"),
    ("generate", "xy", "--d", "2", "--L", "3", "--disorder", "uniform-signed", "--seed", "1",
     "-o", "disordered.json"),
    ("solve", "disordered.json", "-o", "disordered-gradsq.json", "--method", "gradsq",
     "--starts", "40", "--seed", "7"),
    ("generate", "nash", "--preset", "matching-pennies", "-o", "pennies.json"),
    ("generate", "puzzle", "--grid", "2x2", "--colors", "3", "--seed", "8", "-o", "puzzle.json"),
    ("solve", "puzzle.json", "-o", "puzzle-solved.json", "--starts", "10", "--seed", "1"),
    ("solve", "pennies.json", "-o", "pennies-solved.json", "--starts", "20", "--seed", "1"),
    ("generate", "thomson", "--charges", "5", "-o", "thomson.json"),
    ("generate", "lj", "--atoms", "4", "-o", "lj.json"),
    ("generate", "morse", "--atoms", "4", "--rho", "6", "-o", "morse.json"),
    # each optional flag of the families built from plain values
    ("generate", "phi4", "--N", "2", "--J", "0.25", "-o", "phi4-J.json"),
    ("generate", "phi4", "--N", "2", "--lam", "1.5", "-o", "phi4-lam.json"),
    ("generate", "phi4", "--N", "2", "--mu2", "3", "-o", "phi4-mu2.json"),
    ("generate", "xy", "--d", "1", "--L", "4", "--bc", "anti-periodic", "-o", "ring-bc.json"),
    ("generate", "xy", "--d", "2", "--L", "3", "--no-gauge-fix", "-o", "xy-nogauge.json"),
    ("generate", "xy", "--d", "1", "--L", "4", "--disorder", "constant:2.5",
     "-o", "ring-constant.json"),
    ("generate", "lj", "--atoms", "4", "--epsilon", "2", "-o", "lj-epsilon.json"),
    ("generate", "lj", "--atoms", "4", "--sigma", "1.5", "-o", "lj-sigma.json"),
    ("generate", "morse", "--atoms", "4", "--rho", "6", "--re", "1.2", "-o", "morse-re.json"),
)


def write_campaigns(out, name, seed):
    folder = out / f"{name}-seed-{seed}"
    folder.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name]
    for camp in workload.build(spbench, workload.inputs(seed)):
        result = spbench.solvers.multistart(camp.instance, camp.config)
        spbench.serialize.save_result(result, camp.config, folder / f"{camp.name}.json")
        lines = [f"{o.status.value} {o.iterations} {o.point.tobytes().hex()} "
                 f"{float(o.residual_norm)!r}\n" for o in result.outcomes]
        (folder / f"{camp.name}.starts").write_text("".join(lines))


def write_cli(out):
    folder = out / "cli"
    folder.mkdir(parents=True, exist_ok=True)
    for run in CLI_RUNS:
        argv = [str(folder / arg) if arg.endswith(".json") else arg for arg in run]
        with contextlib.redirect_stdout(io.StringIO()):
            code = spbench.cli.main(argv)
        if code != 0:
            sys.exit(f"spbench {' '.join(run)} exited with {code}")


def write_traces(out):
    folder = out / "traces"
    folder.mkdir(parents=True, exist_ok=True)
    ring = spbench.XYLattice(1, 4)
    for method in ("newton", "gradsq", "homotopy"):
        cfg = spbench.SolverConfig(method=method, starts=20, seed=3, record_trace=True)
        lines = [f"{start} {step} {point.tobytes().hex()} {norm!r}\n"
                 for start, o in enumerate(spbench.multistart(ring, cfg).outcomes)
                 for step, point, norm in o.trace]
        (folder / f"{method}.trace").write_text("".join(lines))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write the files into")
    args = parser.parse_args(argv)
    if (ROOT / "src").resolve() not in Path(spbench.__file__).resolve().parents:
        sys.exit(f"spbench was imported from {spbench.__file__}, not from {ROOT / 'src'}")
    for name in WORKLOADS:
        for seed in SEEDS:
            write_campaigns(args.out, name, seed)
    write_cli(args.out)
    write_traces(args.out)


if __name__ == "__main__":
    main()
