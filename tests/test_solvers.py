import dataclasses
import math

import numpy as np
import pytest

from spbench import serialize, solvers
from spbench.clusters import LennardJonesCluster, MorseCluster, ThomsonSphere
from spbench.core import ProblemInstance, RootSystem, _dots, classify
from spbench.games import NashGame, NashInstance
from spbench.lattices import Phi4Lattice, XYLattice
from spbench.puzzles import PuzzleInstance, generate_grid_puzzle
from spbench.solvers import (
    LADDER_RUNGS,
    SolverConfig,
    Status,
    _Batch,
    _line_search,
    _linear_steps,
    _resolved,
    _residuals,
    _seed_states,
    draw_starts,
    multistart,
    solve,
)
from test_clusters import _reference_start

GRADSQ, HOMOTOPY = SolverConfig(method="gradsq"), SolverConfig(method="homotopy")


class Cubic(ProblemInstance):
    """V(x) = sum(x^4/4 - x^2/2): roots of the gradient at 0 and +-1."""

    family = "synthetic"

    def __init__(self, n=2):
        super().__init__(n, f"cubic-{n}")

    def energy_batch(self, X):
        X = self.check_points(X)
        return np.sum(X**4 / 4 - X**2 / 2, axis=1)

    def residual_batch(self, X):
        X = self.check_points(X)
        return X**3 - X

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        jac = np.zeros((len(X), self.n, self.n))
        own = np.arange(self.n)
        jac[:, own, own] = 3 * X**2 - 1
        return jac

    def sample_start_batch(self, rngs):
        return np.array([rng.uniform(-2, 2, self.n) for rng in rngs]).reshape(len(rngs), self.n)


class NoRoot(RootSystem):
    """f(x) = x^2 + 1 never vanishes; W has a spurious minimum at 0."""

    family = "synthetic"
    _draw_lo, _draw_span = -2.0, 4.0

    def __init__(self):
        super().__init__(1, "no-root")

    def residual_batch(self, X):
        X = self.check_points(X)
        return X**2 + 1.0

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        return (2.0 * X)[:, :, None]

    def _jacobian_and_curvature_batch(self, X):
        # f'' = 2, so f f'' = 2 (x^2 + 1)
        return self.residual_jacobian_batch(X), (2.0 * (X**2 + 1.0))[:, :, None]


class Hole(ProblemInstance):
    """Gradient system that cannot be evaluated inside |x| < 0.5."""

    family = "synthetic"

    def __init__(self):
        super().__init__(1, "hole")

    def energy_batch(self, X):
        X = self.check_points(X)
        return np.where(np.abs(X[:, 0]) < 0.5, np.nan, (X[:, 0] ** 2 - 1) ** 2)

    def residual_batch(self, X):
        X = self.check_points(X)
        return np.where(np.abs(X) < 0.5, np.nan, 4 * X * (X**2 - 1))

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        return np.where(np.abs(X[:, :, None]) < 0.5, np.nan, (12 * X**2 - 4)[:, :, None])


def test_newton_converges_quadratically_to_nearby_root():
    inst = Cubic()
    out = solve(inst, np.array([1.2, -0.8]))
    assert out.status is Status.CONVERGED
    assert out.residual_norm <= 1e-10
    assert np.allclose(out.point, [1.0, -1.0], atol=1e-8)
    assert out.iterations < 12


def test_newton_zero_iterations_at_root():
    inst = Cubic()
    out = solve(inst, np.array([1.0, 1.0]))
    assert out.status is Status.CONVERGED
    assert out.iterations == 0
    assert np.array_equal(out.point, [1.0, 1.0])


def test_newton_max_iters():
    inst = Cubic()
    cfg = SolverConfig(method="newton", max_iters=1)
    out = solve(inst, np.array([5.0, 5.0]), cfg)
    assert out.status is Status.MAX_ITERS
    assert out.iterations == 1


def test_newton_singular_at_degenerate_jacobian():
    # the NoRoot Jacobian 2x vanishes exactly at the origin
    out = solve(NoRoot(), np.array([0.0]))
    assert out.status is Status.SINGULAR_STEP


def test_newton_eval_error_at_start():
    out = solve(Hole(), np.array([0.1]))
    assert out.status is Status.EVAL_ERROR


def test_newton_survives_eval_error_in_line_search():
    # stepping across the hole is treated as a failed trial, not a crash
    out = solve(Hole(), np.array([2.0]))
    assert out.status in (Status.CONVERGED, Status.DIVERGED)
    if out.status is Status.CONVERGED:
        assert abs(abs(out.point[0]) - 1.0) < 1e-8


def test_newton_trace_recording():
    inst = Cubic()
    cfg = SolverConfig(method="newton", record_trace=True)
    out = solve(inst, np.array([1.4, 1.4]), cfg)
    assert out.trace is not None
    assert out.trace[0][0] == 0
    assert len(out.trace) == out.iterations + 1
    norms = [t[2] for t in out.trace]
    assert norms[-1] <= 1e-10
    out2 = solve(inst, np.array([1.4, 1.4]))
    assert out2.trace is None


def test_homotopy_trace_recording():
    inst = Cubic()
    start = np.array([1.4, 1.4])
    cfg = SolverConfig(method="homotopy", record_trace=True)
    out = solve(inst, start, cfg)
    assert out.status is Status.CONVERGED
    assert [t[0] for t in out.trace] == list(range(out.iterations + 1))
    assert np.array_equal(out.trace[0][1], start)
    assert np.array_equal(out.trace[-1][1], out.point)
    assert out.trace[-1][2] == out.residual_norm
    for _, x, norm in out.trace:
        assert norm == pytest.approx(np.linalg.norm(inst.residual(x)), rel=1e-12, abs=1e-15)
    assert solve(inst, start, HOMOTOPY).trace is None


def test_newton_respects_cond_limit(monkeypatch):
    monkeypatch.setattr(solvers, "COND_LIMIT", 1.0 + 1e-9)
    inst = Phi4Lattice(2)
    out = solve(inst, np.array([1.0, 2.0, 3.0, 4.0]), SolverConfig(method="newton"))
    assert out.status is Status.SINGULAR_STEP


def test_linear_step_least_norm_when_rhs_in_range():
    # rank-deficient beyond any condition limit, but the right-hand side lies
    # in the range: the least-norm step solves the system
    delta, ok = _linear_steps(np.diag([1.0, 0.0])[None], np.array([[1.0, 0.0]]))
    assert ok[0]
    assert np.array_equal(delta[0], [1.0, 0.0])


def test_linear_step_refuses_rhs_in_null_directions():
    assert not _linear_steps(np.diag([1.0, 0.0])[None], np.array([[0.0, 1.0]]))[1][0]


def test_newton_thomson_octahedron_with_charge_near_pole():
    # charges 2-5 on the equator, charge 6 a hair from the south pole where
    # the polar chart degenerates; the Hessian fails the condition guard
    # there, yet Newton must still reach the octahedron
    half = np.pi / 2
    x = np.array([half, half, half, half, np.pi, half, -half, np.pi - 1e-5, 0.0])
    x[:7] += 1e-4 * np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    inst = ThomsonSphere(6)
    out = solve(inst, x)
    assert out.status is Status.CONVERGED
    assert abs(inst.energy(out.point) - 9.985281374) <= 1e-8


def test_newton_lj_trimer_reaches_equilateral_minimum():
    inst = LennardJonesCluster(3)
    r = 2 ** (1 / 6)
    x = np.array([r, r / 2, r * np.sqrt(3) / 2]) + np.array([0.05, -0.04, 0.03])
    out = solve(inst, x)
    assert out.status is Status.CONVERGED
    sp = classify(inst, out.point)
    assert abs(sp.energy + 3.0) <= 1e-10
    assert sp.index == 0
    assert sp.zero_eigs == 0


def test_newton_rectangular_system():
    from spbench.puzzles import PuzzleInstance, generate_grid_puzzle, verify_geometric

    puz, sol = generate_grid_puzzle(2, 1, 2, seed=3)
    inst = PuzzleInstance(puz)
    start = sol.reshape(-1) + 0.2 * np.random.default_rng(0).standard_normal(inst.n)
    out = solve(inst, start)
    assert out.status is Status.CONVERGED
    assert verify_geometric(puz, out.point.reshape(-1, 2))


def test_gradsq_converges_on_gradient_system():
    inst = Cubic()
    out = solve(inst, np.array([1.3, -1.3]), GRADSQ)
    assert out.status is Status.CONVERGED
    assert out.residual_norm <= 1e-10


def test_gradsq_reports_spurious_minimum():
    out = solve(NoRoot(), np.array([0.8]), GRADSQ)
    assert out.status is Status.SPURIOUS_MINIMUM
    assert abs(out.point[0]) < 1e-4
    assert out.residual_norm > 0.5


def test_gradsq_max_iters():
    inst = Cubic()
    cfg = SolverConfig(method="gradsq", max_iters=2)
    out = solve(inst, np.array([1.9, 1.9]), cfg)
    assert out.status is Status.MAX_ITERS


def test_gradsq_eval_error():
    out = solve(Hole(), np.array([0.2]), GRADSQ)
    assert out.status is Status.EVAL_ERROR


def test_homotopy_reaches_root():
    inst = Cubic()
    out = solve(inst, np.array([1.7, -0.6]), HOMOTOPY)
    assert out.status is Status.CONVERGED
    assert out.residual_norm <= 1e-10
    assert out.iterations >= 1


def test_homotopy_constant_path_at_root():
    inst = Cubic()
    out = solve(inst, np.array([0.0, 1.0]), HOMOTOPY)
    assert out.status is Status.CONVERGED
    assert out.iterations == 0
    assert np.array_equal(out.point, [0.0, 1.0])


def test_homotopy_on_xy_lattice():
    inst = XYLattice(1, 4)
    rng = np.random.default_rng(8)
    converged = 0
    for _ in range(10):
        out = solve(inst, inst.sample_start(rng), HOMOTOPY)
        if out.status is Status.CONVERGED:
            converged += 1
            assert np.linalg.norm(inst.gradient(out.point)) <= 1e-10
    assert converged >= 7


def test_homotopy_singular_start():
    out = solve(NoRoot(), np.array([0.0]), HOMOTOPY)
    assert out.status is Status.SINGULAR_STEP


@pytest.mark.parametrize("method", ["newton", "gradsq", "homotopy"])
def test_solve_is_the_campaign_of_one_start(method):
    # from this start Newton and gradsq end at (1, -1) and the homotopy at
    # (1, 0), so a solve that ran another method than cfg.method shows
    x, cfg = np.array([1.5, 0.5]), SolverConfig(method=method)
    out = solve(Cubic(), x, cfg)
    ref = multistart(Cubic(), cfg, starts=[x]).outcomes[0]
    assert ((out.status, out.iterations, out.point.tobytes(), out.residual_norm)
            == (ref.status, ref.iterations, ref.point.tobytes(), ref.residual_norm))
    assert out.status is Status.CONVERGED
    assert np.allclose(out.point, [1.0, 0.0] if method == "homotopy" else [1.0, -1.0])


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="bfgs")
    with pytest.raises(ValueError, match="^method must be a string"):  # not an unhashable lookup
        SolverConfig(method=["newton"])
    with pytest.raises(ValueError, match="starts"):
        SolverConfig(starts=-5)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=-1)
    for name in ("starts", "max_iters", "seed"):
        for bad in (2.5, -1, True, "3"):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})
    SolverConfig(starts=0, max_iters=0, seed=np.int64(3))
    with pytest.raises(TypeError, match="start_box"):  # retired: pass starts for another region
        SolverConfig(start_box=(-1.0, 2.0))
    for name in ("accept_tol", "dedup_tol"):
        for bad in (-1.0, math.nan, math.inf, True, False):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})
    SolverConfig(accept_tol=0.0, dedup_tol=0.0)
    out = solve(Cubic(), np.array([1.5, 0.5]), SolverConfig(max_iters=0))
    assert out.status is Status.MAX_ITERS
    assert out.iterations == 0


def test_multistart_phi4_grid_recovers_all_roots():
    inst = Phi4Lattice(2)
    cfg = SolverConfig(method="newton", seed=0)
    res = multistart(inst, cfg, starts=inst.grid_starts())
    assert res.stats.starts == 81
    assert res.stats.converged == 81
    assert len(res.solutions) == 81
    assert res.solutions.index_histogram() == {0: 16, 1: 32, 2: 24, 3: 8, 4: 1}


def test_multistart_outcome_bookkeeping():
    inst = NoRoot()
    cfg = SolverConfig(method="gradsq", starts=5, seed=1)
    res = multistart(inst, cfg)
    assert res.stats.starts == 5
    assert res.stats.spurious == 5
    assert res.stats.converged == 0
    assert len(res.solutions) == 0
    assert len(res.outcomes) == 5
    assert res.stats.wall_time > 0


def test_multistart_seed_determinism():
    inst = Cubic()
    cfg = SolverConfig(method="newton", starts=20, seed=42)
    a = multistart(inst, cfg)
    b = multistart(inst, cfg)
    assert all(np.array_equal(x.point, y.point)
               for x, y in zip(a.outcomes, b.outcomes))
    c = multistart(inst, SolverConfig(method="newton", starts=20, seed=43))
    assert any(not np.array_equal(x.point, y.point)
               for x, y in zip(a.outcomes, c.outcomes))


# 4_295_000_000 is the bench's seed stride at run seed 42950
SEEDS = [0, 7, 2**32 - 1, 2**32, 4_295_000_000, 2**64 + 3, np.int64(5)]


def _every_family():
    rng = np.random.default_rng(11)
    return [Phi4Lattice(3, J=0.3), XYLattice(2, 3, disorder="uniform-signed", seed=1),
            ThomsonSphere(6), LennardJonesCluster(5), MorseCluster(4, rho=6.0),
            NashInstance(NashGame([rng.uniform(-1.0, 1.0, (2, 3, 2)) for _ in range(3)])),
            PuzzleInstance(generate_grid_puzzle(2, 2, 3, seed=8)[0])]


def test_start_draw_cases_cover_every_family():
    assert {inst.family for inst in _every_family()} == set(serialize.FAMILIES)


def _scalar_start(inst, rng):
    """A start of ``inst`` drawn by the scalar numpy calls of its family's region."""
    if isinstance(inst, Phi4Lattice):
        return rng.uniform(-6.0, 6.0, inst.n)
    if isinstance(inst, XYLattice):
        return np.pi - rng.uniform(0.0, 2.0 * np.pi, inst.n)
    if isinstance(inst, PuzzleInstance):
        frame = np.array([e.offset for e in inst.puzzle.frame.edges])
        return rng.uniform(frame.min(axis=0) - 1.0, frame.max(axis=0) + 1.0,
                           (inst.n // 2, 2)).reshape(-1)
    if isinstance(inst, NashInstance):
        parts = [rng.dirichlet(np.ones(d)) for d in inst.dims]
        return np.concatenate(parts + [[rng.uniform(np.min(t), np.max(t))
                                        for t in inst.game.payoffs]])
    return _reference_start(inst, rng)  # the clusters' rejection sampling


@pytest.mark.parametrize("box", [None, (-1.5, 2.0)])
@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_draw_starts_matches_per_start_generators(seed, box):
    # the reference: one default_rng((seed, i)) per start, drawn on its own
    # by the scalar calls; a box's starts, drawn so, run as explicit starts
    for inst in _every_family():
        for starts in (0, 1, 37):
            cfg = SolverConfig(starts=starts, seed=seed, max_iters=0)
            wants = [np.random.default_rng((seed, i)).uniform(*box, inst.n) if box
                     else _scalar_start(inst, np.random.default_rng((seed, i)))
                     for i in range(starts)]
            got = multistart(inst, cfg, starts=wants).starts if box else draw_starts(inst, cfg)
            assert got.dtype == float and got.shape == (starts, inst.n)
            for x, want in zip(got, wants):
                assert x.dtype == float and x.tobytes() == np.asarray(want, float).tobytes()


@pytest.mark.parametrize("inst", _every_family(), ids=lambda inst: inst.family)
def test_sample_start_batch_draws_what_the_scalar_calls_draw(inst):
    # row by row, and each generator ends where the scalar calls leave it
    mine = [np.random.default_rng((3, i)) for i in range(9)]
    theirs = [np.random.default_rng((3, i)) for i in range(9)]
    X = inst.sample_start_batch(mine)
    assert X.shape == (9, inst.n) and inst.sample_start_batch([]).shape == (0, inst.n)
    assert [x.tobytes() for x in X] == [_scalar_start(inst, b).tobytes() for b in theirs]
    assert [a.bit_generator.state for a in mine] == [b.bit_generator.state for b in theirs]
    a, b = np.random.default_rng(4), np.random.default_rng(4)
    assert inst.sample_start(a).tobytes() == _scalar_start(inst, b).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS + [2**96 - 1, 2**96, 2**200 + 17], ids=repr)
def test_seed_states_match_seed_sequence(seed):
    # a numpy whose SeedSequence hashes otherwise fails here, not in the drift
    for count in (0, 1, 37):
        want = [np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
                for i in range(count)]
        got = _seed_states(seed, count)
        assert got.dtype == np.uint64 and got.shape == (count, 4)
        assert got.tobytes() == np.array(want, dtype=np.uint64).reshape(count, 4).tobytes()


def test_multistart_start_id_stability():
    # the first 10 starts of a 20-start campaign equal the 10-start campaign
    inst = Cubic()
    small = multistart(inst, SolverConfig(method="newton", starts=10, seed=9))
    big = multistart(inst, SolverConfig(method="newton", starts=20, seed=9))
    for s, b in zip(small.starts, big.starts[:10]):
        assert np.array_equal(s, b)


def test_multistart_provenance():
    inst = Cubic()
    cfg = SolverConfig(method="newton", starts=6, seed=3)
    res = multistart(inst, cfg)
    for sp in res.solutions.points:
        assert sp.provenance.solver == "newton"
        assert sp.provenance.seed == 3
        assert 0 <= sp.provenance.start_id < 6


def test_multistart_dedup_metric_for_xy():
    inst = XYLattice(1, 4)
    assert inst.dedup_metric == "angular-mod-2pi"
    cfg = SolverConfig(method="newton", starts=60, seed=2)
    res = multistart(inst, cfg)
    assert res.solutions.metric == "angular-mod-2pi"


def test_status_wire_values():
    assert Status.CONVERGED.value == "converged"
    assert Status.SPURIOUS_MINIMUM.value == "spurious-minimum"
    assert Status.SINGULAR_STEP.value == "singular-step"
    assert Status.MAX_ITERS.value == "max-iters"
    assert Status.EVAL_ERROR.value == "eval-error"
    assert Status.DIVERGED.value == "diverged"


def _random_nash():
    rng = np.random.default_rng(5)
    return NashInstance(NashGame([rng.uniform(-1, 1, (2, 2, 2)) for _ in range(3)]))


CHUNKED_CAMPAIGNS = {
    "ring-newton": (lambda: XYLattice(1, 4), dict(method="newton")),
    "ring-homotopy": (lambda: XYLattice(1, 4), dict(method="homotopy")),
    "ring-gradsq": (lambda: XYLattice(1, 4), dict(method="gradsq", max_iters=300)),
    "disordered-newton": (lambda: XYLattice(2, 3, disorder="uniform-signed", seed=1),
                          dict(method="newton")),
    "disordered-homotopy": (lambda: XYLattice(2, 3, disorder="uniform-signed", seed=1),
                            dict(method="homotopy")),
    "disordered-gradsq": (lambda: XYLattice(2, 3, disorder="uniform-signed", seed=1),
                          dict(method="gradsq", max_iters=300)),
    "phi4-newton": (lambda: Phi4Lattice(3, J=0.3), dict(method="newton")),
    "thomson-newton": (lambda: ThomsonSphere(4), dict(method="newton")),
    "nash-newton": (_random_nash, dict(method="newton")),
    "puzzle-newton": (lambda: PuzzleInstance(generate_grid_puzzle(2, 1, 2, seed=3)[0]),
                      dict(method="newton")),
}


@pytest.mark.parametrize("name", sorted(CHUNKED_CAMPAIGNS))
def test_multistart_chunk_invariance(name):
    # multistart's one batch, uneven batches, and batches of one start give
    # the same bytes
    make, kwargs = CHUNKED_CAMPAIGNS[name]
    inst = make()
    starts = 14
    cfg = SolverConfig(starts=starts, seed=11, **kwargs)
    res = multistart(inst, cfg)
    outcomes = [[(o.status, o.iterations, o.point.tobytes(), o.residual_norm)
                 for o in res.outcomes]]
    solver, resolved = solvers._METHODS[cfg.method][0], _resolved(cfg)
    for chunks in (7, starts):
        outcomes.append([(o.status, o.iterations, o.point.tobytes(), o.residual_norm)
                         for chunk in np.array_split(np.array(res.starts), chunks)
                         for o in solver(inst, chunk, resolved).outcomes()])
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("method", ["newton", "gradsq", "homotopy"])
def test_multistart_without_starts(method):
    inst = XYLattice(1, 4)
    for res in (multistart(inst, SolverConfig(method=method, starts=0)),
                multistart(inst, SolverConfig(method=method, starts=5), starts=[])):
        assert res.stats.starts == 0
        assert res.outcomes == []
        assert res.starts.shape == (0, inst.n)
        assert len(res.solutions) == 0


@pytest.mark.parametrize("method", ["newton", "homotopy"])
def test_eval_error_ends_only_its_start(method):
    # charge 2 on the north pole coincides with charge 1; the default row
    # loop must end that start alone
    inst = ThomsonSphere(4)
    rng = np.random.default_rng(2)
    starts = [inst.sample_start(rng) for _ in range(4)]
    starts[1] = starts[1].copy()
    starts[1][0] = 0.0
    res = multistart(inst, SolverConfig(method=method), starts=starts)
    assert res.outcomes[1].status is Status.EVAL_ERROR
    assert res.outcomes[1].iterations == 0
    for i in (0, 2, 3):
        assert res.outcomes[i].status is Status.CONVERGED
        alone = solve(inst, starts[i], SolverConfig(method=method))
        assert np.array_equal(res.outcomes[i].point, alone.point)


class NanJacobian(Cubic):
    """The Cubic residual with a Jacobian that is nan everywhere."""

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        return np.full((len(X), self.n, self.n), np.nan)


@pytest.mark.parametrize("method", ["newton", "gradsq", "homotopy"])
def test_non_finite_jacobian_is_singular_step(method):
    # the first start is a root and needs no Jacobian
    res = multistart(NanJacobian(), SolverConfig(method=method),
                     starts=[np.array([1.0, -1.0]), np.array([1.5, 0.5])])
    assert [o.status for o in res.outcomes] == [Status.CONVERGED, Status.SINGULAR_STEP]
    alone = solve(NanJacobian(), np.array([1.5, 0.5]), SolverConfig(method=method))
    assert alone.status is Status.SINGULAR_STEP


class Huge(Cubic):
    """The Cubic residual times 1e200: finite, but its square overflows."""

    def residual_batch(self, X):
        return 1e200 * super().residual_batch(X)


def test_residual_norm_overflow_is_a_failed_row():
    f, norm, failed = _residuals(Huge(), np.array([[1.5, 0.5], [1.0, -1.0]]))
    assert np.isfinite(f).all()
    assert norm.tolist() == [math.inf, 0.0] and failed.tolist() == [True, False]


def test_gradsq_converges_on_rectangular_puzzle():
    # 156 equations in 8 unknowns: the Levenberg-Marquardt step has no shape
    # condition, and steps whose residual overflows are refused silently
    inst = PuzzleInstance(generate_grid_puzzle(2, 2, 3, seed=8)[0])
    res = multistart(inst, SolverConfig(method="gradsq", starts=10, seed=3, max_iters=1500))
    assert res.stats.converged > 0


def test_linear_step_stack_mixes_branches():
    # square: well conditioned, least-norm, refused, and not finite; tall:
    # full column rank (least squares), rank-deficient, and not finite; wide
    # (underdetermined): never a step.  Each row as it would be alone.
    square = np.array([np.diag([2.0, 4.0]), np.diag([1.0, 0.0]), np.diag([1.0, 0.0]),
                       np.full((2, 2), np.nan)])
    square_rhs = np.array([[2.0, 4.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    tall = np.array([[[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]],
                     [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     np.full((3, 2), np.nan)])
    tall_rhs = np.array([[1.0, 2.0, 5.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    wide = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    for jac, rhs, expect in ((square, square_rhs, [True, True, False, False]),
                             (tall, tall_rhs, [True, False, False]),
                             (wide, np.array([[1.0, 1.0]]), [False])):
        delta, ok = _linear_steps(jac, rhs)
        assert ok.tolist() == expect
        for j, r, d, good in zip(jac, rhs, delta, ok):
            alone, has = _linear_steps(j[None], r[None])
            assert has[0] == good
            assert not good or np.array_equal(alone[0], d)
        if jac is square:
            assert np.array_equal(delta[:2], [[1.0, 1.0], [1.0, 0.0]])
        if jac is tall:
            assert np.allclose(delta[0], [1.0, 1.0], rtol=0.0, atol=1e-15)


def test_linear_steps_take_a_stack():
    with pytest.raises(ValueError, match="jacobians must be a 3-d stack, got 2-d"):
        _linear_steps(np.eye(2), np.ones((1, 2)))


@pytest.mark.parametrize("k,n", [(3, 3), (8, 8), (15, 15), (20, 8), (156, 8)])
def test_linear_steps_agree_with_numpy(k, n):
    # well-conditioned square systems against solve, full-rank tall ones
    # against least squares
    rng = np.random.default_rng(k * 1000 + n)
    jac = rng.standard_normal((12, k, n))
    if k == n:
        jac += 2.0 * np.sqrt(n) * np.eye(n)
    rhs = rng.standard_normal((12, k))
    delta, ok = _linear_steps(jac, rhs)
    assert ok.all()
    for j, r, d in zip(jac, rhs, delta):
        ref = np.linalg.solve(j, r) if k == n else np.linalg.lstsq(j, r, rcond=None)[0]
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)


def _svd_step(jac, rhs):
    """One system's step by the SVD rule alone: V diag(1/s) U^T rhs on the
    kept singular values."""
    u, s, vt = np.linalg.svd(jac[None], full_matrices=False)
    keep = (s > 0.0) & (s >= s[:, :1] / solvers.COND_LIMIT)
    proj = (rhs[None, None, :] @ u)[:, 0, :]
    coef = np.divide(proj, s, out=np.zeros_like(proj), where=keep)
    return (coef[:, None, :] @ vt)[0, 0, :]


def test_linear_steps_bisect_around_singular_rows():
    # a stacked inv fails as a whole on one exactly singular matrix: the
    # stack is bisected, so the well-conditioned rows keep their inverse
    # steps and each singular row gets the SVD rule's least-norm step (rows 0
    # and 8, rhs in the range) or none (row 4, rhs in the null directions)
    rng = np.random.default_rng(9)
    jac = rng.standard_normal((9, 4, 4)) + 4.0 * np.eye(4)
    rhs = rng.standard_normal((9, 4))
    jac[[0, 4, 8]] = np.diag([1.0, 0.0, 0.0, 0.0])
    rhs[[0, 4, 8]] = [[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0]]
    delta, ok = _linear_steps(jac, rhs)
    assert ok.tolist() == [True] * 4 + [False] + [True] * 4
    for i, (j, r) in enumerate(zip(jac, rhs)):
        alone, has = _linear_steps(j[None], r[None])
        assert has[0] == ok[i] and np.array_equal(alone[0], delta[i])
        if i % 4:
            assert np.array_equal(delta[i], np.linalg.inv(j) @ r)
    assert np.array_equal(delta[[0, 8]], [[2.0, 0.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0]])
    assert not delta[4].any()


def test_linear_steps_take_the_svd_where_the_inverse_guard_is_in_doubt():
    # cond_inf just above COND_LIMIT / n, cond_2 below COND_LIMIT: the row
    # passes the SVD guard, and its step has the SVD rule's bits, not the
    # inverse's
    rng = np.random.default_rng(1)
    q1, q2 = (np.linalg.qr(rng.standard_normal((4, 4)))[0] for _ in range(2))
    base = q1 @ np.diag([1.0, 0.5, 0.3, 0.0]) @ q2.T
    tail = np.outer(q2[:, 3], q1[:, 3])  # J^-1 is about tail / t for a small t
    t = np.abs(base).sum(axis=1).max() * np.abs(tail).sum(axis=1).max() / (
        1.01 * solvers.COND_LIMIT / 4)
    jac = base + t * np.outer(q1[:, 3], q2[:, 3])
    rhs = rng.standard_normal(4)
    cond_inf = np.abs(jac).sum(axis=1).max() * np.abs(np.linalg.inv(jac)).sum(axis=1).max()
    assert solvers.COND_LIMIT / 4 < cond_inf < 1.05 * solvers.COND_LIMIT / 4
    assert np.linalg.cond(jac) < solvers.COND_LIMIT
    delta, ok = _linear_steps(jac[None], rhs[None])
    assert ok[0] and np.array_equal(delta[0], _svd_step(jac, rhs))
    assert not np.array_equal(delta[0], np.linalg.inv(jac) @ rhs)


def test_linear_steps_take_the_svd_where_the_inverse_overflows():
    # 1 / 1e-310 overflows, so the inverse is not finite; the SVD drops that
    # direction and, with no rhs in it, takes the least-norm step
    jac = np.diag([1.0, 2.0, 4.0, 1e-310])
    rhs = np.array([1.0, 1.0, 1.0, 0.0])
    assert not np.isfinite(np.linalg.inv(jac)).all()
    delta, ok = _linear_steps(jac[None], rhs[None])
    assert ok[0] and np.array_equal(delta[0], _svd_step(jac, rhs))
    assert np.array_equal(delta[0], [1.0, 0.5, 0.25, 0.0])


def test_linear_steps_make_no_svd_call_when_every_row_passes(monkeypatch):
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    rng = np.random.default_rng(4)
    jac = rng.standard_normal((6, 3, 3)) + 3.0 * np.eye(3)
    rhs = rng.standard_normal((6, 3))
    assert _linear_steps(jac, rhs)[1].all() and not calls
    jac[2] = np.diag([1.0, 1.0, 0.0])  # one row left for the SVD
    assert _linear_steps(jac, rhs)[1].tolist() == [True, True, False, True, True, True]
    assert len(calls) == 1
    _linear_steps(jac, rhs, np.ones(6))  # gradsq rows always take the SVD
    assert len(calls) == 2


def _conditioned(rng, m, n, log_cond):
    """m random n x n matrices Q1 diag(s) Q2^T, s falling geometrically from
    1 to 10**-log_cond[i] in matrix i."""
    q1, q2 = (np.linalg.qr(rng.standard_normal((m, n, n)))[0] for _ in range(2))
    s = 10.0 ** -(np.linspace(0.0, 1.0, n) * log_cond[:, None])
    return (q1 * s[:, None, :]) @ q2.transpose(0, 2, 1)


@pytest.mark.parametrize("n", range(2, 17))
def test_inverse_guard_decides_as_numpy_row_sums(n):
    # the guard's one pass over the stack against cond_inf from numpy's sums
    # along each row: the same decision on every row but those within 1e-12
    # (relative) of the threshold, where a sum in another order may round
    # across it
    rng = np.random.default_rng(n)
    limit = solvers.COND_LIMIT / n
    for m in (1, 2, 37, 1000):
        jac = _conditioned(rng, m, n, rng.uniform(9.0, 14.0, m))
        inv, good = solvers._inverses(jac)
        assert np.array_equal(inv, np.linalg.inv(jac))
        cond = np.abs(jac).sum(axis=2).max(axis=1) * np.abs(inv).sum(axis=2).max(axis=1)
        clear = np.abs(cond - limit) > 1e-12 * limit
        assert np.array_equal(good[clear], (cond < limit)[clear])
    assert 0 < good.sum() < 1000


@pytest.mark.parametrize("n", [3, 9])
def test_linear_steps_of_a_bench_size_mixed_stack_match_each_row_alone(n):
    # 600 rows, as many as the bench's largest stacks: rows that pass the
    # inverse guard (kind 0), rows with a nan or an inf (1, 2), exactly
    # singular rows, on which a stacked inv raises and is bisected (3), and
    # rows that fail the guard, some keeping every singular value and some
    # not (4).  Half the rows of kinds 3 and 4 have rhs in the range, so the
    # SVD gives them a step; most others get none.
    rng = np.random.default_rng(n)
    m = 600
    kind = np.arange(m) % 5
    rng.shuffle(kind)
    jac = rng.standard_normal((m, n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
    jac[kind == 1, 0, n - 1] = np.nan
    jac[kind == 2, n - 1, 0] = np.inf
    jac[kind == 3, n - 1] = 0.0
    jac[kind == 4] = _conditioned(rng, np.sum(kind == 4), n, rng.uniform(11.5, 15.0, m)[kind == 4])
    rhs = rng.standard_normal((m, n))
    ranged = (kind >= 3) & (np.arange(m) % 2 == 0)
    rhs[ranged] = (jac[ranged] @ rng.standard_normal((np.sum(ranged), n, 1)))[:, :, 0]
    # a row whose inverse overflows to inf or nan, with no rhs in that
    # direction: the SVD's least-norm step
    over = np.flatnonzero((kind == 4) & ~ranged)[0]
    jac[over], rhs[over, n - 1] = np.diag(np.r_[np.ones(n - 1), 1e-310]), 0.0
    delta, ok = _linear_steps(jac, rhs)
    for i in range(m):
        alone, has = _linear_steps(jac[i:i + 1], rhs[i:i + 1])
        assert has[0] == ok[i] and alone[0].tobytes() == delta[i].tobytes()
    assert ok[kind == 0].all() and not ok[(kind == 1) | (kind == 2)].any()
    assert not delta[~ok].any()
    assert ok[ranged].all() and ok[over]
    assert 1 < ok[(kind >= 3) & ~ranged].sum() < np.sum(kind >= 3) / 2
    with np.errstate(over="ignore", invalid="ignore"):
        assert not solvers._inverses(jac[kind == 4])[1].any()


class Shell(ProblemInstance):
    """f(x) = x (|x|^2 - 1) in the plane, nan inside |x| < 0.5; counts its
    calls and keeps every row it evaluates."""

    family = "synthetic"

    def __init__(self):
        super().__init__(2, "shell")
        self.calls, self.seen = 0, []

    def residual_batch(self, X):
        X = self.check_points(X)
        self.calls += 1
        self.seen.extend(X.copy())
        r2 = _dots(X, X)
        return np.where((r2 < 0.25)[:, None], np.nan, X * (r2 - 1.0)[:, None])


def _search_alone(inst, x, direction, step, accepts):
    """One row's backtracking search, one rung per residual call: the rungs
    it tried and, if one was accepted, its point, residual, norm and step."""
    tried = []
    while step >= solvers.MIN_STEP:
        tried.append(x + step * direction)
        f, norm, _ = _residuals(inst, tried[-1][None])
        if accepts(norm, np.array([step]))[0]:
            return tried, (tried[-1], f[0], norm[0], step)
        step *= solvers.BACKTRACK
    return tried, None


@pytest.mark.parametrize("backtrack", [0.5, 0.99], ids=["halving", "backtrack-0.99"])
def test_line_search_matches_one_row_at_a_time(backtrack, monkeypatch):
    # each row backtracks along +-u from radius r0; a rung is acceptable when
    # the norm falls enough and its step lies in [lo, hi].  Every row of a
    # search starts at STEP0, so the rows are searched in groups by first step
    min_step = 0.01
    monkeypatch.setattr(solvers, "BACKTRACK", backtrack)
    monkeypatch.setattr(solvers, "MIN_STEP", min_step)
    u = np.array([0.6, 0.8])
    searches = [  # (first step, its rows (r0, sign of the direction, lo, hi))
        (1.0, [(2.0, -1.0, 0.0, np.inf),  # above min_step, first rung taken
               (2.0, -1.0, 0.0, 2.0 * min_step),  # taken near min_step
               # acceptable only at the first rung below min_step
               (2.0, -1.0, 0.9 * backtrack * min_step, np.nextafter(min_step, 0.0)),
               (2.0, 1.0, 0.0, np.inf)]),  # uphill: no rung is acceptable
        (min_step, [(2.0, -1.0, 0.0, np.inf)]),  # equal to min_step
        (0.5 * min_step, [(2.0, -1.0, 0.0, np.inf)]),  # below: no search
        (1.3, [(1.6, -1.0, 0.0, np.inf)]),  # the first rungs land in the mask
        # uphill, and rung 8, the last of round 2, is the last one >= min_step
        (min_step * backtrack**-8.5, [(2.0, 1.0, 0.0, np.inf)]),
    ]

    def search(step, rows):
        """One line search from ``step`` over ``rows``, each row against
        ``_search_alone``; returns which rows moved, their start points and
        directions, and the points the search evaluated."""
        monkeypatch.setattr(solvers, "STEP0", step)
        r0, sign, lo, hi = (np.array(col) for col in zip(*rows))
        inst = Shell()
        b = _Batch(inst, r0[:, None] * u, SolverConfig())
        f, norm0, _ = _residuals(inst, b.x)
        x0, direction = b.x.copy(), sign[:, None] * u
        live = b.live
        live.delta = direction

        def sufficient(norm, s, r):
            return (norm <= (1.0 - 1e-4 * s) * norm0[r]) & (lo[r] <= s) & (s <= hi[r])

        inst.calls, inst.seen = 0, []
        taken = _line_search(inst, live, sufficient)
        calls, rows_in, seen = inst.calls, len(inst.seen), {p.tobytes() for p in inst.seen}
        rounds, evaluated = [0], 0
        for i in range(len(rows)):
            tried, took = _search_alone(inst, x0[i], direction[i], step,
                                        lambda n_, s_, i=i: sufficient(n_, s_, np.array([i])))
            assert taken[i] == (0.0 if took is None else took[3])
            point, fi, ni, _ = took or (x0[i], f[i], norm0[i], 0.0)
            assert np.array_equal(live.x[i], point)
            assert np.array_equal(live.f[i], fi) and live.norm[i] == ni
            assert seen.issuperset(p.tobytes() for p in tried)
            if tried:  # rung 0 alone, then LADDER_RUNGS rungs a round
                rounds.append(1 + math.ceil((len(tried) - 1) / LADDER_RUNGS))
                evaluated += 1 + LADDER_RUNGS * (rounds[-1] - 1)
        assert calls == max(rounds) and rows_in == evaluated
        assert _dots(live.x, live.x).min() >= 0.25  # no row moved into the mask
        return (taken > 0).tolist(), x0, direction, seen

    results = [search(step, rows) for step, rows in searches]
    assert [moved for moved, *_ in results] == \
        [[True, True, False, False], [True], [False], [True], [False]]
    # the row acceptable only below min_step evaluated that rung in its block
    _, x0, direction, seen = results[0]
    s = 1.0
    while s >= min_step:
        s *= backtrack
    assert (x0[2] + s * direction[2]).tobytes() in seen
    # and the masked first rung was evaluated
    _, x0, direction, seen = results[3]
    assert (x0[0] + 1.3 * direction[0]).tobytes() in seen


class HoledRing(XYLattice):
    """``XYLattice(1, 4)`` whose residual cannot be evaluated past x[0] = 3."""

    def __init__(self):
        super().__init__(1, 4)

    def residual_batch(self, X):
        X = self.check_points(X)
        return np.where(X[:, :1] > 3.0, np.nan, super().residual_batch(X))


@pytest.mark.parametrize("method", ["newton", "gradsq", "homotopy"])
def test_a_start_life_from_start_to_end(method, monkeypatch):
    # a root ends at once, a start that cannot be evaluated ends before its
    # first trace entry, and max_iters=0 ends the start after its first one
    cfg = SolverConfig(method=method, record_trace=True)
    root, hole = multistart(HoledRing(), cfg, starts=[np.zeros(3), [4.0, 0.0, 0.0]]).outcomes
    assert (root.status, root.iterations, len(root.trace)) == (Status.CONVERGED, 0, 1)
    assert (hole.status, hole.iterations, hole.trace) == (Status.EVAL_ERROR, 0, [])
    out = solve(HoledRing(), [0.5, 1.0, 1.5], dataclasses.replace(cfg, max_iters=0))
    assert (out.status, out.iterations, len(out.trace)) == (Status.MAX_ITERS, 0, 1)
    # no campaign below, run with each method, calls a family kernel on an
    # empty stack of points: the bench's disordered-gradsq campaign; the ring
    # at max_iters=3, where no homotopy start converges and the last ones end
    # max-iters or singular-step in one pass; and LJ-4, where every row of a
    # homotopy corrector can lack a step
    campaigns = [(XYLattice(2, 3, disorder="uniform-signed", seed=1), 25, 7, 1500),
                 (XYLattice(1, 4), 20, 0, 3), (LennardJonesCluster(4), 5, 0, 300)]
    empty = []
    for inst, starts, seed, max_iters in campaigns:
        for name in ("residual_batch", "residual_jacobian_batch", "hessian_batch",
                     "energy_batch"):
            def counted(X, kernel=getattr(inst, name), name=name):
                if not len(X):
                    empty.append((inst.label, name))
                return kernel(X)
            monkeypatch.setattr(inst, name, counted)
        multistart(inst, SolverConfig(method=method, starts=starts, seed=seed,
                                      max_iters=max_iters))
    assert empty == []
