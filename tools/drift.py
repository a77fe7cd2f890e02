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

    python3 tools/drift.py --compare OUT_A OUT_B

names each file that differs between two such folders, or that only one of
them has, and exits with status 1 if there is one, else 0.  For a result
file it prints both sides' ``campaign_stats``, distinct count and index
histogram, and how many of each side's points lie within the file's
``tolerance``, under its ``metric``, of a point on the other side (and how
many of those share its index).  For a ``.starts`` file it prints how many
starts agree on status and iteration count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

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


def _matched(sol, other):
    """How many of ``sol``'s points lie within its tolerance, under its metric,
    of one of the points ``other``, and how many of those share that point's index."""
    if not other:
        return 0, 0
    X = np.array([q["coords"] for q in other], dtype=float)
    near = same = 0
    for p in sol["points"]:
        d = spbench.core._wrap(X - p["coords"], sol["metric"])
        hits = np.flatnonzero(np.linalg.norm(d, axis=1) <= sol["tolerance"])
        near += hits.size > 0
        same += any(other[k]["index"] == p["index"] for k in hits)
    return near, same


def _compare_results(a, b):
    sides = [json.loads(path.read_text()) for path in (a, b)]
    sols = [d["solutions"] for d in sides]
    stats = [json.dumps(d["campaign_stats"], sort_keys=True) for d in sides]
    hists = [dict(sorted(Counter(p["index"] for p in s["points"]).items())) for s in sols]
    print(f"  campaign_stats: {stats[0]} | {stats[1]}")
    print(f"  distinct: {len(sols[0]['points'])} | {len(sols[1]['points'])}")
    print(f"  index histogram: {hists[0]} | {hists[1]}")
    for side, sol, other in (("A", sols[0], sols[1]), ("B", sols[1], sols[0])):
        near, same = _matched(sol, other["points"])
        print(f"  {side} within {sol['tolerance']!r} ({sol['metric']}) of the other side: "
              f"{near} of {len(sol['points'])}, {same} with the same index")


def _compare_starts(a, b):
    rows = [[line.split(" ")[:2] for line in path.read_text().splitlines()] for path in (a, b)]
    agree = sum(x == y for x, y in zip(*rows))
    # a start that only one side has agrees with nothing
    print(f"  starts agreeing on status and iterations: {agree} of {max(map(len, rows))}")


def compare(out_a, out_b):
    """Print the report of ``--compare`` for the folders ``out_a`` and ``out_b``;
    return the names of the files that differ or that only one side has."""
    names = [{p.relative_to(out) for p in out.rglob("*") if p.is_file()} for out in (out_a, out_b)]
    shared = names[0] & names[1]
    differ = sorted((names[0] ^ names[1])
                    | {n for n in shared if (out_a / n).read_bytes() != (out_b / n).read_bytes()})
    for name in differ:
        if name not in shared:
            print(f"only in {out_a if name in names[0] else out_b}: {name}")
            continue
        print(f"differs: {name}")
        a, b = out_a / name, out_b / name
        if name.suffix == ".starts":
            _compare_starts(a, b)
        elif name.suffix == ".json" and "campaign_stats" in json.loads(a.read_text()):
            _compare_results(a, b)
    print(f"{len(differ)} of {len(names[0] | names[1])} files differ")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("out", type=Path, nargs="?", help="directory to write the files into")
    what.add_argument("--compare", type=Path, nargs=2, metavar=("OUT_A", "OUT_B"),
                      help="report how two folders this script wrote differ")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if (ROOT / "src").resolve() not in Path(spbench.__file__).resolve().parents:
        sys.exit(f"spbench was imported from {spbench.__file__}, not from {ROOT / 'src'}")
    for name in WORKLOADS:
        for seed in SEEDS:
            write_campaigns(args.out, name, seed)
    write_cli(args.out)
    write_traces(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
