"""Byte-identity drift check over the benchmark's workloads.

    python3 tools/drift.py OUT

Runs every campaign of every workload in ``bench/workloads.py`` at run seeds
0 and 1 with the checkout's ``src/``, and writes ``OUT/<workload>-seed-<s>/``:
``<campaign>.json``, the result file as ``save_result`` writes it, and
``<campaign>.starts``, one line per start with its status, iteration count,
end point bytes (hex) and the repr of its residual norm.  Run it in two
checkouts; ``diff -r OUT_A OUT_B`` prints nothing when every result is
byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import spbench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (0, 1)


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory to write the files into")
    args = parser.parse_args(argv)
    if (ROOT / "src").resolve() not in Path(spbench.__file__).resolve().parents:
        sys.exit(f"spbench was imported from {spbench.__file__}, not from {ROOT / 'src'}")
    for name in WORKLOADS:
        for seed in SEEDS:
            write_campaigns(args.out, name, seed)


if __name__ == "__main__":
    main()
