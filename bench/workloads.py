"""The four campaign workloads.

A workload is built in two steps.  ``inputs(seed)`` makes the raw inputs
that the benchmark owns: payoff tensors, seeds and the ring oracle.
``build(sb, inputs)`` turns them into program objects through the
library's constructors; that second step is what ``setup_s`` times.  It
returns a list of campaigns, one per operation of a round.

Pinned campaigns ignore the run seed: the cluster campaigns, because
whether Thomson-6 reaches the octahedron depends on the start seed and two
of them are kept faults; the acceptance-8 Nash games; and the gradsq
campaign (see its comment).  Every other campaign draws from the run seed:
its solver seed is ``base + SEED_STRIDE * seed``, so seed 0 gives the
acceptance seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

SEED_STRIDE = 100_000
RING_ACCEPT_TOL = 1e-13


@dataclass
class Campaign:
    """One operation: a ``multistart`` run plus the check of its output.

    ``check(loaded, result)`` gets the loaded result file and the in-memory
    ``MultistartResult`` and returns a list of problems.
    """

    name: str
    instance: object
    config: object
    check: Callable


def _coords(loaded):
    return [sp.point for sp in loaded["solutions"].points]


# ------------------------------------------------------------------ xy-solvers

def xy_inputs(seed):
    return {"seed": seed, "ring_oracle": checks.ring_oracle()}


def xy_build(sb, inputs):
    shift = SEED_STRIDE * inputs["seed"]
    oracle = inputs["ring_oracle"]
    ring = sb.XYLattice(1, 4)
    disordered = sb.XYLattice(2, 3, disorder="uniform-signed", seed=1)
    couplings = np.array(disordered.params()["couplings"])

    def ring_check(loaded, result):
        pts = loaded["solutions"].points
        return checks.check_ring([sp.point for sp in pts],
                                 [sp.singular for sp in pts], oracle)

    def gradsq_check(loaded, result):
        spurious = [o.point for o in result.outcomes
                    if o.status is sb.Status.SPURIOUS_MINIMUM]
        return checks.check_gradsq(_coords(loaded), spurious, couplings, 2, 3)

    return [
        Campaign("ring-newton", ring,
                 sb.SolverConfig(method="newton", starts=500, seed=21 + shift,
                                 accept_tol=RING_ACCEPT_TOL), ring_check),
        Campaign("ring-homotopy", ring,
                 sb.SolverConfig(method="homotopy", starts=100, seed=22 + shift,
                                 accept_tol=RING_ACCEPT_TOL), ring_check),
        # pinned: at so few starts the share of starts that run to
        # max_iters swings the work by +-15% from seed to seed
        Campaign("disordered-gradsq", disordered,
                 sb.SolverConfig(method="gradsq", starts=25, seed=7,
                                 max_iters=1500), gradsq_check),
    ]


# -------------------------------------------------------------------- clusters

# Thomson-6 at seed 2 never reaches the octahedron: its charges end at the
# polar chart's pole, where the linear step refuses.  LJ7 converges only to
# dissociated atoms at energy ~0.  Both fail on every run until mended.
CLUSTER_FAULTS = ("thomson-6-seed-2", "lj-7-seed-0")

# (charges, seed, starts).  Start vectors depend only on (seed, start
# index), so each campaign is a prefix of the 200-start campaign at its seed.
# In those prefixes the optimum is first reached at start 27, 37 and 8
# (Thomson-5, seeds 0-2) and 10 (Thomson-6, seed 1); each prefix runs 7 to 10
# starts past that.  Thomson-6 at seed 2 misses it in all 200.  Thomson-6 at
# seed 0 first reaches it at start 106, which alone would cost more than the
# rest of the round, so it is left out.
THOMSON_CAMPAIGNS = ((5, 0, 35), (5, 1, 45), (5, 2, 15), (6, 1, 20), (6, 2, 20))
LJ_STARTS = 5


def clusters_inputs(seed):
    return {}


def clusters_build(sb, inputs):
    campaigns = []
    for charges, seed, starts in THOMSON_CAMPAIGNS:

        def check(loaded, result, charges=charges):
            return checks.check_best_energy(
                _coords(loaded), lambda x: checks.thomson_energy(x, charges),
                checks.THOMSON_OPTIMUM[charges], 1e-8)

        campaigns.append(Campaign(
            f"thomson-{charges}-seed-{seed}", sb.ThomsonSphere(charges),
            sb.SolverConfig(method="newton", starts=starts, seed=seed), check))

    def lj_check(loaded, result):
        return checks.check_best_energy(
            _coords(loaded), lambda x: checks.lj_energy(x, 7), checks.LJ7_OPTIMUM, 1e-6)

    campaigns.append(Campaign("lj-7-seed-0", sb.LennardJonesCluster(7),
                              sb.SolverConfig(method="newton", starts=LJ_STARTS, seed=0),
                              lj_check))
    return campaigns


# ----------------------------------------------------------------- phi4-census

def phi4_inputs(seed):
    return {"seed": seed}


def phi4_build(sb, inputs):
    inst = sb.Phi4Lattice(3, J=0.0)

    def check(loaded, result):
        pts = loaded["solutions"].points
        return checks.check_phi4([sp.point for sp in pts], [sp.index for sp in pts],
                                 [sp.zero_eigs for sp in pts], inst.lam, inst.mu2)

    return [Campaign("phi4-N3-census", inst,
                     sb.SolverConfig(method="newton", starts=1000,
                                     seed=SEED_STRIDE * inputs["seed"]), check)]


# ---------------------------------------------------------------- root-systems

NASH_GAMES = 30  # the first games of the 100 of acceptance 8


def roots_inputs(seed):
    # the acceptance-8 games: payoff seed 31415, two 2x2 tensors per game
    rng = np.random.default_rng(31415)
    games = [(rng.uniform(-1.0, 1.0, (2, 2)), rng.uniform(-1.0, 1.0, (2, 2)))
             for _ in range(NASH_GAMES)]
    rng = np.random.default_rng((7, seed))
    three = tuple(rng.uniform(-1.0, 1.0, (3, 3, 3)) for _ in range(3))
    return {"seed": seed, "games": games, "three_player": three}


def _nash_campaign(sb, name, payoffs, config):
    inst = sb.NashInstance(sb.NashGame(list(payoffs)))

    def check(loaded, result):
        pts = _coords(loaded)
        flagged = [sb.is_equilibrium(inst.game, *inst.split(x))[0] for x in pts]
        return checks.check_nash(payoffs, pts, flagged, config.accept_tol)

    return Campaign(name, inst, config, check)


def roots_build(sb, inputs):
    shift = SEED_STRIDE * inputs["seed"]
    puzzle, _ = sb.generate_grid_puzzle(2, 2, 3, seed=8)
    piece_edges = [[(e.offset, e.color, e.angle) for e in p.edges] for p in puzzle.pieces]
    frame_edges = [(e.offset, e.color, e.angle) for e in puzzle.frame.edges]

    def puzzle_check(loaded, result):
        return checks.check_puzzle(_coords(loaded), piece_edges, frame_edges, 2, 2)

    campaigns = [Campaign("puzzle-2x2-c3-s8", sb.PuzzleInstance(puzzle),
                          sb.SolverConfig(method="newton", starts=10, seed=shift),
                          puzzle_check)]
    for i, payoffs in enumerate(inputs["games"]):
        campaigns.append(_nash_campaign(
            sb, f"nash-2x2-game-{i}", payoffs,
            sb.SolverConfig(method="newton", starts=20, seed=1000 + i)))
    campaigns.append(_nash_campaign(
        sb, "nash-3x3x3", inputs["three_player"],
        sb.SolverConfig(method="newton", starts=25, seed=shift)))
    return campaigns


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    build: Callable
    faults: tuple = ()


WORKLOADS = {
    "xy-solvers": Workload(xy_inputs, xy_build),
    "clusters": Workload(clusters_inputs, clusters_build, CLUSTER_FAULTS),
    "phi4-census": Workload(phi4_inputs, phi4_build),
    "root-systems": Workload(roots_inputs, roots_build),
}
