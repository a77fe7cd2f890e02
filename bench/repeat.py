"""Repeat mode: sets of benchmark runs, and the comparison of two sets.

    python3 bench/repeat.py run --runs 10 --out set-a.json
    python3 bench/repeat.py compare set-a.json set-b.json

``run`` runs each workload ``--runs`` times, each with another seed, and
records the median and quartiles of every end-to-end metric.  ``compare``
applies the bounds of BENCHMARK.json to two such sets: within each set the
quartile spread of every metric but ``setup_s`` must stay within its bound,
the second set's median may not be worse than the first's by more than the
bound, and the share of failed operations must be the same.  It names every
metric and workload that falls outside and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def run_set(args):
    spec = load_spec()
    out = {}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=600, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        out[name] = {
            "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                        for m in spec["end_to_end"]},
        }
        for metric, s in out[name]["metrics"].items():
            print(f"{name} {metric}: median {s['median']:.4g} quartiles "
                  f"{s['q1']:.4g}..{s['q3']:.4g} spread {s['spread']:.3f}")
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


def compare_sets(args):
    spec = load_spec()
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    outside = []
    for name in sorted(set(a) & set(b)):
        for label, s in (("first", a[name]), ("second", b[name])):
            if not s["correct"]:
                outside.append(f"{name}: {label} set has incorrect output")
        if a[name]["failed"] * b[name]["attempted"] != b[name]["failed"] * a[name]["attempted"]:
            outside.append(f"{name}: failed share {a[name]['failed']}/{a[name]['attempted']} "
                           f"vs {b[name]['failed']}/{b[name]['attempted']}")
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            sa, sb_ = a[name]["metrics"][metric], b[name]["metrics"][metric]
            if metric != "setup_s":
                for label, s in (("first", sa), ("second", sb_)):
                    if s["spread"] > bound:
                        outside.append(f"{name} {metric}: {label} set spread "
                                       f"{s['spread']:.3f} > bound {bound}")
            change = (sb_["median"] - sa["median"]) / sa["median"]
            worse = change if m["better"] == "lower" else -change
            verdict = "OUTSIDE" if worse > bound else "ok"
            print(f"{name} {metric}: {sa['median']:.4g} -> {sb_['median']:.4g} "
                  f"({change:+.1%}, bound {bound:.0%}) {verdict}")
            if worse > bound:
                outside.append(f"{name} {metric}: median worse by {worse:.1%} > {bound:.0%}")
    for line in outside:
        print("outside bounds: " + line)
    return 1 if outside else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run = sub.add_parser("run", help="run a set of benchmark runs")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=0)
    run.add_argument("--out", required=True)
    cmp_ = sub.add_parser("compare", help="compare two sets against the bounds")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)
    if args.mode == "run" and args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    return run_set(args) if args.mode == "run" else compare_sets(args)


if __name__ == "__main__":
    sys.exit(main())
