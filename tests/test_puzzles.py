import math

import numpy as np
import pytest

from spbench.core import EvaluationError
from spbench.puzzles import (
    ANGLE_TOL,
    DEFAULT_K_SET,
    Edge,
    Piece,
    Puzzle,
    PuzzleInstance,
    exponential_residual,
    generate_grid_puzzle,
    linear_residual,
    signed_indicator,
    verify_geometric,
    wrap_angle,
)
from test_hessians import fd_gradient


def test_default_k_set():
    assert len(DEFAULT_K_SET) == 24
    assert (0, 0) not in DEFAULT_K_SET
    assert (2, -2) in DEFAULT_K_SET


def test_wrap_angle():
    assert wrap_angle(-0.5) == pytest.approx(2 * math.pi - 0.5)
    assert wrap_angle(2 * math.pi) == 0.0
    assert wrap_angle(7.0) == pytest.approx(7.0 - 2 * math.pi)


def test_signed_indicator():
    e = Edge((0.0, 0.0), "red", 0.0)
    assert signed_indicator(e, "red", 0.0) == 1
    assert signed_indicator(e, "red", math.pi) == -1
    assert signed_indicator(e, "red", math.pi / 2) == 0
    assert signed_indicator(e, "blue", 0.0) == 0
    # tolerance window
    e2 = Edge((0.0, 0.0), "red", 1e-10)
    assert signed_indicator(e2, "red", 0.0) == 1
    e3 = Edge((0.0, 0.0), "red", 1e-7)
    assert signed_indicator(e3, "red", 0.0) == 0


def test_unbalanced_puzzle_rejected():
    frame = Piece([Edge((0, 0), "a", 0.0), Edge((1, 0), "a", math.pi)])
    lonely = Piece([Edge((0, 0), "a", 0.0)])
    with pytest.raises(ValueError):
        Puzzle(frame, [lonely])


def test_edges_either_side_of_zero_are_one_direction():
    # 0 and 2 pi - 1e-10 lie within ANGLE_TOL across the wrap: one class, not two
    frame = Piece([Edge((0, 0), "a", 0.0), Edge((1, 0), "a", 2 * math.pi - 1e-10)])
    piece = Piece([Edge((0, 0), "a", math.pi), Edge((1, 0), "a", math.pi)])
    puzzle = Puzzle(frame, [piece])
    assert puzzle._reps == [0.0, math.pi] and puzzle.classes == [("a", 0.0)]


def test_empty_k_set_rejected():
    frame = Piece([Edge((0, 0), "a", 0.0)])
    piece = Piece([Edge((0, 0), "a", math.pi)])
    assert len(Puzzle(frame, [piece]).k_set) == len(DEFAULT_K_SET)
    with pytest.raises(ValueError, match="non-empty"):
        Puzzle(frame, [piece], k_set=[])


def test_generate_grid_puzzle_balanced_and_solvable():
    for seed in range(5):
        puz, sol = generate_grid_puzzle(2, 2, 3, seed=seed)
        assert puz.n_pieces() == 4
        assert verify_geometric(puz, sol)
        assert np.max(np.abs(linear_residual(puz, sol))) < 1e-12
        assert np.max(np.abs(exponential_residual(puz, sol))) < 1e-12


def test_generated_frame_color_is_reserved():
    puz, _ = generate_grid_puzzle(2, 1, 2, seed=0)
    assert "border" in puz.colors
    # only the frame's edges and the pieces' edges facing them carry it
    assert {e.color for e in puz.frame.edges} == {"border"}
    facing = [e for piece in puz.pieces for e in piece.edges if e.color == "border"]
    assert len(facing) == len(puz.frame.edges) == 6


def test_verify_geometric_rejects_swaps_and_shifts():
    puz, sol = generate_grid_puzzle(2, 2, 4, seed=11)
    # swap two pieces: positions coincide but colors generally differ
    swapped = sol.copy()
    swapped[[0, 3]] = swapped[[3, 0]]
    assert not verify_geometric(puz, swapped)
    # small perturbation breaks coincidence
    assert not verify_geometric(puz, sol + 1e-3)
    # positions agree within ANGLE_TOL and no further
    assert verify_geometric(puz, sol + 0.5 * ANGLE_TOL)
    assert not verify_geometric(puz, sol + 2.0 * ANGLE_TOL)


def test_linear_residual_misses_uniform_shift():
    # single interior color, so every linear constraint is relative; a rigid
    # shift of all pieces stays in the kernel but is geometrically wrong
    puz, sol = generate_grid_puzzle(2, 1, 1, seed=0)
    shifted = sol + np.array([0.35, -0.2])
    assert np.max(np.abs(linear_residual(puz, shifted))) < 1e-12
    assert not verify_geometric(puz, shifted)
    assert np.linalg.norm(exponential_residual(puz, shifted)) > 1e-6


def test_exponential_residual_zero_at_solutions():
    puz, sol = generate_grid_puzzle(3, 1, 2, seed=4)
    r = exponential_residual(puz, sol)
    assert r.shape == (len(puz.classes) * 24,)
    assert np.max(np.abs(r)) < 1e-12


def test_exponential_residual_custom_k_set():
    puz, sol = generate_grid_puzzle(2, 1, 1, seed=0)
    r = exponential_residual(Puzzle(puz.frame, puz.pieces, k_set=[(1, 0), (0, 1)]), sol)
    assert r.shape == (len(puz.classes) * 2,)
    assert np.max(np.abs(r)) < 1e-12


def test_exponential_residual_shift_guard():
    # a shifted placement stays finite while exp(k . u) fits in a float; past
    # that (k . u reaches about 2000 at sol + 500) it raises like the instance
    puz, sol = generate_grid_puzzle(2, 1, 1, seed=0)
    assert np.all(np.isfinite(exponential_residual(puz, sol + 50.0)))
    with pytest.raises(EvaluationError):
        exponential_residual(puz, sol + 500.0)


def test_instance_residual_and_jacobian():
    puz, sol = generate_grid_puzzle(2, 2, 3, seed=5)
    inst = PuzzleInstance(puz)
    assert inst.n == 8
    flat = sol.reshape(-1)
    assert np.linalg.norm(inst.residual(flat)) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = inst.sample_start(rng)
        jac = inst.residual_jacobian(x)
        step = 1e-7
        for k in range(inst.n):
            e = np.zeros(inst.n)
            e[k] = step
            col = (inst.residual(x + e) - inst.residual(x - e)) / (2 * step)
            denom = 1 + np.linalg.norm(jac[:, k])
            assert np.linalg.norm(jac[:, k] - col) / denom < 1e-5


def test_instance_gradient_matches_fd():
    puz, _ = generate_grid_puzzle(2, 1, 2, seed=7)
    inst = PuzzleInstance(puz)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = inst.sample_start(rng)
        ga = inst.gradient(x)
        gf = fd_gradient(inst, x)
        assert np.linalg.norm(ga - gf) / (1 + np.linalg.norm(ga)) < 1e-6


def test_instance_overflow_raises():
    puz, _ = generate_grid_puzzle(2, 1, 1, seed=0)
    inst = PuzzleInstance(puz)
    x = np.full(inst.n, 600.0)
    with pytest.raises(EvaluationError):
        inst.residual(x)


def test_instance_jacobian_overflow_raises():
    puz, _ = generate_grid_puzzle(2, 1, 1, seed=0)
    inst = PuzzleInstance(puz)
    x = np.full(inst.n, 600.0)
    with pytest.raises(EvaluationError):
        inst.residual_jacobian(x)


def test_instance_exponential_block_is_unshifted_exponential_residual():
    # both blocks against per-class signed_indicator sums, edge by edge: of
    # the positions for the linear block, of exp(k . u) for the exponential one
    puz, _ = generate_grid_puzzle(2, 2, 3, seed=5)
    placement = PuzzleInstance(puz).sample_start(np.random.default_rng(4)).reshape(-1, 2)
    lin = linear_residual(puz, placement).reshape(len(puz.classes), 2)
    expo = exponential_residual(puz, placement).reshape(len(puz.classes), -1)
    freqs = np.array(puz.k_set, dtype=float)
    pos = puz.positions(placement)
    for c, (color, rep) in enumerate(puz.classes):
        signs = np.array([signed_indicator(e, color, rep) for e in puz.edges])
        members, signs = pos[signs != 0], signs[signs != 0]
        assert np.allclose(lin[c], signs @ members, rtol=0, atol=1e-12)
        terms = np.exp(members @ freqs.T)
        assert np.all(np.abs(expo[c] - signs @ terms) <= 1e-12 * np.abs(terms).sum(axis=0))


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        generate_grid_puzzle(0, 1, 1, seed=0)
    with pytest.raises(ValueError):
        generate_grid_puzzle(1, 1, 0, seed=0)


def test_placement_shape_checked():
    puz, sol = generate_grid_puzzle(2, 1, 1, seed=0)
    # too few pieces, a stack of one placement, one coordinate per piece
    for placement in (sol[:1], sol[None], sol[:, :1]):
        for encoding in (linear_residual, exponential_residual, verify_geometric):
            with pytest.raises(ValueError, match="placement must have shape"):
                encoding(puz, placement)


def test_instance_hessian_overflow_raises():
    puz, _ = generate_grid_puzzle(2, 1, 1, seed=0)
    inst = PuzzleInstance(puz)
    x = np.full(inst.n, 600.0)
    with pytest.raises(EvaluationError):
        inst.hessian(x)
