"""Campaign benchmark for spbench.

    python3 bench/run.py --workload xy-solvers --seed 0 --seconds 30 --trace 0

Builds the workload's campaigns from the checkout's ``src/``, then runs
whole rounds of them for ``--seconds``, starting no round that is not
expected to end in time.  One operation is one campaign: ``multistart``,
``save_result``, ``load_result`` and ``check_result``, the calls ``spbench
solve`` and ``spbench verify`` make, followed by the benchmark's own checks
of the output (untimed).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, from rounds that alternate untraced and traced so that the
tracing overhead shows.  End-to-end times are stated at a fixed host speed,
measured by the reference slices of ``reference.py``.  See README.md in this
directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from reference import REFERENCE_S, HostClock
from tracing import FAMILY_METHODS, FAMILY_MODULES, TracedInstance, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # per set-up pass, one pass before each round


def import_spbench():
    """Import spbench afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "spbench" or m.startswith("spbench.")]:
        del sys.modules[name]
    import spbench
    if SRC.resolve() not in Path(spbench.__file__).resolve().parents:
        raise ImportError(f"spbench was imported from {spbench.__file__}, not from {SRC}")
    return spbench


def timed_setup(workload, inputs):
    """Import spbench and build the campaigns ``SETUP_REPEATS`` times;
    return the last build and the durations."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous round's garbage is not set-up work
        t0 = time.perf_counter()
        sb = import_spbench()
        campaigns = workload.build(sb, inputs)
        times.append(time.perf_counter() - t0)
    return sb, campaigns, times


class Round:
    """Outcome of running every campaign of a workload once."""

    def __init__(self):
        self.times = {}  # campaign name -> seconds, multistart to check_result
        self.reference = []  # seconds of each reference slice run in the round
        self.failures = {}  # campaign name -> problems
        self.files = {}  # campaign name -> result file bytes, kept if asked
        self.starts = 0
        self.iterations = 0
        self.status = Counter()
        self.points_in = 0  # converged points handed to dedup
        self.points_out = 0  # distinct points dedup kept

    def factor(self):
        """Host speed correction: nominal over this round's median slice."""
        return REFERENCE_S / statistics.median(self.reference)


def run_round(sb, campaigns, workdir, clock, tracer=None, keep_files=False):
    rnd = Round()
    for camp in campaigns:
        clock.tick()
        instance = camp.instance if tracer is None else TracedInstance(camp.instance, tracer)
        path = workdir / f"{camp.name}.json"
        result = loaded = None
        t0 = time.perf_counter()
        try:
            result = sb.solvers.multistart(instance, camp.config)
            sb.serialize.save_result(result, camp.config, path)
            loaded = sb.serialize.load_result(path)
            problems = sb.serialize.check_result(instance, loaded)
        except Exception as exc:  # a step that raises fails the operation
            problems = [f"{type(exc).__name__}: {exc}"]
        rnd.times[camp.name] = time.perf_counter() - t0
        if loaded is not None and not problems:
            problems = camp.check(loaded, result)
        if loaded is not None and keep_files:
            rnd.files[camp.name] = path.read_bytes()
        if result is not None:
            rnd.starts += len(result.starts)
            rnd.iterations += sum(o.iterations for o in result.outcomes)
            rnd.status.update(o.status.value for o in result.outcomes)
            rnd.points_in += result.stats.converged
            rnd.points_out += len(result.solutions.points)
        if problems:
            rnd.failures[camp.name] = problems
    clock.tick()
    rnd.reference = clock.take()
    return rnd


def typical_round(rounds):
    """Seconds of a typical round at the nominal host speed: each campaign's
    time, corrected by its round's factor, takes its median over the rounds,
    summed.  A burst of load on the host slows the campaigns it overlaps,
    and the per-campaign median leaves it out."""
    return sum(statistics.median(r.times[name] * r.factor() for r in rounds)
               for name in rounds[0].times)


def layer_metrics(sb, tracer, rnd):
    m = {}
    iters = max(rnd.iterations, 1)
    self_s = tracer.self_time["solvers.multistart"]
    solver_residuals = sum(tracer.calls_under[("solvers.multistart", f"{mod}.residual")]
                           for mod in FAMILY_MODULES)
    m["solvers.self_s"] = self_s
    m["solvers.iterations"] = rnd.iterations
    m["solvers.self_us_per_iter"] = 1e6 * self_s / iters
    m["solvers.residual_calls_per_iter"] = solver_residuals / iters
    m["solvers.draw_starts_s"] = tracer.total["solvers.draw_starts"]
    m["solvers.starts"] = rnd.starts
    for status in sb.Status:
        m[f"solvers.status.{status.value}"] = rnd.status[status.value]
    m["solvers.converged_ratio"] = rnd.status["converged"] / max(rnd.starts, 1)
    for mod in FAMILY_MODULES:
        for method in FAMILY_METHODS:
            m[f"{mod}.{method}.calls"] = tracer.calls[f"{mod}.{method}"]
            m[f"{mod}.{method}.s"] = tracer.total[f"{mod}.{method}"]
    m["core.classify.calls"] = tracer.calls["core.classify"]
    m["core.classify.self_s"] = tracer.self_time["core.classify"]
    m["core.dedup.s"] = tracer.total["core.dedup"]
    m["core.dedup.points_in"] = rnd.points_in
    m["core.dedup.points_out"] = rnd.points_out
    m["serialize.save_result.s"] = tracer.total["serialize.save_result"]
    m["serialize.result_bytes"] = sum(len(b) for b in rnd.files.values())
    m["serialize.load_result.s"] = tracer.total["serialize.load_result"]
    m["serialize.check_result.self_s"] = tracer.self_time["serialize.check_result"]
    return m


def measure(args, workload):
    inputs = workload.inputs(args.seed)
    setup_times = []  # corrected by the factor of the round each pass precedes
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    plain, traced, layers = [], [], []
    clock = HostClock()
    correct = True
    try:
        began = time.perf_counter()
        lengths = []  # wall seconds of each pass of the loop
        while not plain or (time.perf_counter() - began
                            + statistics.median(lengths) <= args.seconds):
            t0 = time.perf_counter()
            sb, campaigns, times = timed_setup(workload, inputs)
            plain.append(run_round(sb, campaigns, workdir, clock, keep_files=args.trace))
            setup_times += [t * plain[-1].factor() for t in times]
            if args.trace:
                tracer = Tracer()
                with tracer.patched(sb):
                    rnd = run_round(sb, campaigns, workdir, clock, tracer, keep_files=True)
                traced.append(rnd)
                layers.append(layer_metrics(sb, tracer, rnd))
                if rnd.files != plain[-1].files:
                    differ = sorted(k for k in rnd.files.keys() | plain[-1].files.keys()
                                    if rnd.files.get(k) != plain[-1].files.get(k))
                    print(f"traced result files differ from untraced: {differ}", file=sys.stderr)
                    correct = False
                rnd.files = plain[-1].files = {}
            lengths.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    failed = sum(len(rnd.failures) for rnd in rounds)
    if any(name not in workload.faults for rnd in rounds for name in rnd.failures):
        correct = False
    for name, problems in rounds[0].failures.items():
        kind = "known fault" if name in workload.faults else "FAILED"
        print(f"{kind}: {name}: {problems[0]}", file=sys.stderr)

    campaign_s = typical_round(plain)
    reference_s = statistics.median(t for rnd in rounds for t in rnd.reference)
    if args.trace:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.untraced_s"] = campaign_s
        metrics["trace.overhead_s"] = typical_round(traced) - campaign_s
        metrics["host.reference_s"] = reference_s
    else:
        print(f"host: median reference slice {reference_s:.5f} s (nominal {REFERENCE_S} s)",
              file=sys.stderr)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "campaign_s": campaign_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"correct": correct, "attempted": len(rounds) * len(campaigns),
            "failed": failed, "metrics": metrics}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="SPBENCH_THREADS for the campaigns (default 1)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --threads >= 1")
    if not (SRC / "spbench" / "__init__.py").is_file():
        print(f"no spbench sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["SPBENCH_THREADS"] = str(args.threads)
    sys.path.insert(0, str(SRC))
    out = measure(args, WORKLOADS[args.workload])
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(out["metrics"]):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(out['metrics']))}")
    out["metrics"] = {k: {"value": out["metrics"][k], "unit": units[k]} for k in units}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
