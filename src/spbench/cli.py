"""Command-line front end.

Subcommands: ``generate`` writes an instance file, ``solve`` runs a seeded
multistart campaign and writes a result file, ``report`` summarizes a result
file, ``verify`` rechecks a result file against its instance.

Exit codes: 0 success, 1 bad arguments or unreadable files, 2 a solve that
converged nowhere, 3 a verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .games import NashInstance, matching_pennies, prisoners_dilemma
from .lattices import phi4_bezout
from .puzzles import PuzzleInstance, generate_grid_puzzle
from .solvers import _METHODS, SolverConfig, multistart


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which this tool reserves
    # for empty solves; route usage errors to exit 1 instead
    def error(self, message):
        raise CliError(message)


def _build_parser():
    parser = _Parser(prog="spbench",
                     description="stationary-point benchmark instances and solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write an instance file")
    fam = gen.add_subparsers(dest="family", required=True)

    # the flags of a family built from plain values have no defaults here: an
    # omitted one is left to the constructor
    p = fam.add_parser("phi4", help="scalar field lattice", argument_default=argparse.SUPPRESS)
    p.add_argument("--N", type=int, required=True, help="lattice side length")
    p.add_argument("--J", type=float, help="neighbor coupling")
    p.add_argument("--lam", type=float, help="quartic coefficient")
    p.add_argument("--mu2", type=float, help="squared mass")

    p = fam.add_parser("xy", help="rotor lattice", argument_default=argparse.SUPPRESS)
    p.add_argument("--d", type=int, required=True, help="lattice dimension (1, 2 or 3)")
    p.add_argument("--L", type=int, required=True, help="lattice side length")
    p.add_argument("--bc", choices=["periodic", "anti-periodic"])
    p.add_argument("--disorder", help="constant[:VALUE], uniform-signed or uniform:LOW:HIGH")
    p.add_argument("--seed", type=int, help="coupling seed (required for random disorder)")
    p.add_argument("--no-gauge-fix", dest="gauge_fixed", action="store_false",
                   help="keep the global rotation instead of pinning site 0")

    p = fam.add_parser("thomson", help="charges on the unit sphere",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--charges", type=int, required=True)

    p = fam.add_parser("lj", help="Lennard-Jones cluster", argument_default=argparse.SUPPRESS)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--sigma", type=float)

    p = fam.add_parser("morse", help="Morse cluster", argument_default=argparse.SUPPRESS)
    p.add_argument("--atoms", type=int, required=True)
    p.add_argument("--rho", type=float, required=True, help="well stiffness")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--re", dest="r_e", type=float, help="equilibrium pair distance")

    p = fam.add_parser("nash", help="mixed-equilibrium system")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--game", help="JSON file with players, strategy_counts, payoffs")
    src.add_argument("--preset", choices=["matching-pennies", "prisoners-dilemma"])

    p = fam.add_parser("puzzle", help="edge-matching puzzle")
    p.add_argument("--grid", required=True, help="COLUMNSxROWS, e.g. 2x2")
    p.add_argument("--colors", type=int, required=True, help="interior color count")
    p.add_argument("--seed", type=int, required=True, help="edge-color seed")

    for name, sp in fam.choices.items():
        sp.add_argument("-o", "--out", required=True, help="instance file to write")
        sp.add_argument("--label", default=None, help="override the instance label")

    # the solver flags have no defaults here either: an omitted one is left to SolverConfig
    sol = sub.add_parser("solve", help="run a multistart campaign",
                         argument_default=argparse.SUPPRESS)
    sol.add_argument("instance", help="instance file")
    sol.add_argument("-o", "--out", required=True, help="result file to write")
    sol.add_argument("--method", choices=list(_METHODS))
    sol.add_argument("--starts", default="100",
                     help="start count, or grid3 for the 3-value grid (phi4)")
    sol.add_argument("--seed", type=int, default=None,
                     help="start seed (required for sampled starts)")
    sol.add_argument("--tol", dest="accept_tol", type=float, help="acceptance tolerance")
    sol.add_argument("--max-iters", type=int)
    sol.add_argument("--dedup-tol", type=float)

    rep = sub.add_parser("report", help="summarize a result file")
    rep.add_argument("result", help="result file")
    rep.add_argument("--format", default="csv", choices=["csv", "json"])

    ver = sub.add_parser("verify", help="recheck a result file against its instance")
    ver.add_argument("instance", help="instance file")
    ver.add_argument("result", help="result file")

    return parser


def _cmd_generate(args):
    if args.family == "nash":
        if args.game is not None:
            with open(args.game) as fh:
                inst = NashInstance.from_params(json.load(fh), args.label)
        else:
            game = matching_pennies() if args.preset == "matching-pennies" else prisoners_dilemma()
            inst = NashInstance(game, label=args.label)
    elif args.family == "puzzle":
        try:
            cols, rows = (int(v) for v in args.grid.lower().split("x"))
        except ValueError:
            raise CliError(f"bad grid spec {args.grid!r}, expected COLUMNSxROWS")
        puzzle, _ = generate_grid_puzzle(cols, rows, args.colors, args.seed)
        inst = PuzzleInstance(puzzle, label=args.label)
    else:
        params = {k: v for k, v in vars(args).items() if k not in ("command", "family", "out")}
        inst = serialize.FAMILIES[args.family](**params)
        if args.family == "xy" and inst.disorder["kind"] != "constant" and "seed" not in params:
            raise CliError("random disorder needs an explicit --seed")

    serialize.save_instance(inst, args.out)
    print(f"family={inst.family} label={inst.label} n={inst.n}")
    if args.family == "phi4":
        print(f"bezout={phi4_bezout(args.N)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_solve(args):
    inst = serialize.load_instance(args.instance)
    explicit_starts = None
    if args.starts == "grid3":
        if inst.family != "phi4":
            raise CliError("grid3 starts are only defined for phi4 instances")
        explicit_starts = inst.grid_starts()
        n_starts = len(explicit_starts)
        seed = 0 if args.seed is None else args.seed
    else:
        try:
            n_starts = int(args.starts)
        except ValueError:
            raise CliError(f"--starts must be an integer or grid3, got {args.starts!r}")
        if n_starts < 1:
            raise CliError("--starts must be >= 1")
        if args.seed is None:
            raise CliError("sampled starts need an explicit --seed")
        seed = args.seed

    given = {k: v for k, v in vars(args).items()
             if k not in ("command", "instance", "out", "starts", "seed")}
    cfg = SolverConfig(starts=n_starts, seed=seed, **given)
    result = multistart(inst, cfg, starts=explicit_starts)
    serialize.save_result(result, cfg, args.out)
    s = result.stats
    print(f"starts={s.starts} converged={s.converged} diverged={s.diverged} "
          f"spurious={s.spurious} eval_errors={s.eval_errors}")
    print(f"distinct solutions={len(result.solutions)}")
    print(f"wrote {args.out}")
    if s.converged == 0:
        print("no starts converged", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args):
    loaded = serialize.load_result(args.result)
    sol = loaded["solutions"]
    energies = sol.columns.energy.tolist()
    summary = {
        "index_histogram": {str(k): v for k, v in sol.index_histogram().items()},
        "solutions": len(sol),
        "energy_min": min(energies, default=None),
        "energy_max": max(energies, default=None),
        "singular": int(sol.columns.singular.sum()),
        "spurious": loaded["campaign_stats"].spurious,
    }
    if args.format == "json":
        sys.stdout.write(serialize.dumps(summary))
        return 0
    print(" ".join(f"{k},{v}" for k, v in summary.pop("index_histogram").items()))
    for key, value in summary.items():
        text = serialize._fmt_float(value) if isinstance(value, float) else value
        print(f"{key},{'' if text is None else text}")
    return 0


def _cmd_verify(args):
    inst = serialize.load_instance(args.instance)
    loaded = serialize.load_result(args.result)
    issues = serialize.check_result(inst, loaded)
    if issues:
        for line in issues:
            print(f"mismatch: {line}", file=sys.stderr)
        return 3
    print(f"ok: {len(loaded['solutions'])} points verified against {inst.label}")
    return 0


_COMMANDS = {"generate": _cmd_generate, "solve": _cmd_solve, "report": _cmd_report,
             "verify": _cmd_verify}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (None, 0) else 1
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
