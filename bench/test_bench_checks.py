"""Each independent check accepts a correct output and rejects a perturbed
one.  Run with ``python3 -m pytest bench``."""

import math
import sys
from pathlib import Path

import numpy as np

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import spbench as sb  # noqa: E402

PI = math.pi


def test_ring_oracle_is_the_two_isolated_states():
    oracle = checks.ring_oracle()
    assert oracle == {(0.0, 0.0, 0.0): (0.0, 0), (round(PI, 6), 0.0, round(PI, 6)): (8.0, 3)}


def test_ring_check_rejects_a_shifted_point():
    oracle = checks.ring_oracle()
    good = [np.zeros(3), np.array([PI, 2 * PI, -PI])]
    assert checks.check_ring(good, [False, False], oracle) == []
    shifted = [np.array([0.1, 0.0, 0.0])]
    assert checks.check_ring(shifted, [False], oracle)
    assert checks.check_ring(shifted, [True], oracle) == []


def test_gradsq_check_rejects_a_shifted_root_and_a_spurious_root():
    couplings = np.random.default_rng(1).integers(0, 2, 18) * 2.0 - 1.0
    root = np.zeros(8)
    assert checks.check_gradsq([root], [root + 0.3], couplings, 2, 3) == []
    assert checks.check_gradsq([root + 1e-3], [], couplings, 2, 3)
    assert checks.check_gradsq([], [root], couplings, 2, 3)


def test_gradsq_gradient_matches_the_library():
    inst = sb.XYLattice(2, 3, disorder="uniform-signed", seed=1)
    x = inst.sample_start(np.random.default_rng(0))
    own = checks.xy_gradient(x, np.array(inst.params()["couplings"]), 2, 3)
    assert np.allclose(own, inst.gradient(x), atol=1e-12)


def test_thomson_check_rejects_a_wrong_energy():
    bipyramid = [PI, PI / 2, 0.0, PI / 2, 2 * PI / 3, PI / 2, 4 * PI / 3]
    octahedron = [PI / 2, PI / 2, PI / 2, PI / 2, PI, PI / 2, 3 * PI / 2, PI, 0.0]
    for charges, x in ((5, bipyramid), (6, octahedron)):
        energy = lambda p, c=charges: checks.thomson_energy(p, c)  # noqa: E731
        ref = checks.THOMSON_OPTIMUM[charges]
        assert checks.check_best_energy([np.array(x)], energy, ref, 1e-8) == []
        bent = np.array(x) + 0.01
        assert checks.check_best_energy([bent], energy, ref, 1e-8)
        assert checks.check_best_energy([], energy, ref, 1e-8)


def test_lj_check_rejects_a_dissociated_cluster():
    dimer = lambda p: checks.lj_energy(p, 2)  # noqa: E731
    assert checks.check_best_energy([np.array([2.0 ** (1 / 6)])], dimer, -1.0, 1e-12) == []
    assert checks.check_best_energy([np.array([5.0])], dimer, -1.0, 1e-6)
    apart = np.array([8.0, 0.0, 8.0] + [8.0 * k for k in range(3, 15)])
    assert checks.check_best_energy([apart], lambda p: checks.lj_energy(p, 7),
                                    checks.LJ7_OPTIMUM, 1e-6)


def test_phi4_check_rejects_shift_wrong_index_and_zero_eigs():
    r = math.sqrt(20.0)
    p = np.array([0.0, r, -r, r, 0.0, 0.0, -r, r, r])
    assert checks.check_phi4([p], [3], [0], 0.6, 2.0) == []
    assert checks.check_phi4([p + np.eye(9)[1] * 1e-6], [3], [0], 0.6, 2.0)
    assert checks.check_phi4([p], [2], [0], 0.6, 2.0)
    assert checks.check_phi4([p], [3], [1], 0.6, 2.0)


def test_puzzle_check_rejects_shift_and_swap():
    puzzle, solution = sb.generate_grid_puzzle(2, 2, 3, seed=8)
    pieces = [[(e.offset, e.color, e.angle) for e in p.edges] for p in puzzle.pieces]
    frame = [(e.offset, e.color, e.angle) for e in puzzle.frame.edges]
    assert checks.check_puzzle([solution.ravel()], pieces, frame, 2, 2) == []
    assert checks.check_puzzle([(solution + 0.2).ravel()], pieces, frame, 2, 2)
    swapped = solution[[3, 1, 2, 0]]
    assert checks.check_puzzle([swapped.ravel()], pieces, frame, 2, 2)
    stacked = solution[[0, 0, 2, 3]]
    assert checks.check_puzzle([stacked.ravel()], pieces, frame, 2, 2)


def test_nash_check_rejects_a_false_flag_and_a_wrong_residual():
    pennies = [np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[-1.0, 1.0], [1.0, -1.0]])]
    mixed = np.array([0.5, 0.5, 0.5, 0.5, 0.0, 0.0])
    assert checks.check_nash(pennies, [mixed], [True], 1e-10) == []
    assert checks.check_nash(pennies, [mixed + [0, 0, 0, 0, 0.1, 0]], [False], 1e-10)
    a = np.array([[-1.0, -3.0], [0.0, -2.0]])
    dilemma = [a, a.T]
    cooperate = np.array([1.0, 0.0, 1.0, 0.0, -1.0, -1.0])
    assert checks.check_nash(dilemma, [cooperate], [False], 1e-10) == []
    assert checks.check_nash(dilemma, [cooperate], [True], 1e-10)


def test_nash_residual_matches_the_library_for_three_players():
    rng = np.random.default_rng(3)
    payoffs = [rng.uniform(-1, 1, (3, 3, 3)) for _ in range(3)]
    inst = sb.NashInstance(sb.NashGame(payoffs))
    x = inst.sample_start(rng)
    assert np.allclose(checks.nash_residual(payoffs, x), inst.residual(x), atol=1e-12)
