import math
import os

import numpy as np
import pytest

from spbench.clusters import LennardJonesCluster, ThomsonSphere
from spbench.core import EvaluationError, ProblemInstance, RootSystem, classify
from spbench.games import NashGame, NashInstance
from spbench.lattices import Phi4Lattice, XYLattice
from spbench.puzzles import PuzzleInstance, generate_grid_puzzle
from spbench.serialize import save_result
from spbench.solvers import (
    Damping,
    HomotopySchedule,
    SolverConfig,
    Status,
    _linear_step,
    _linear_steps,
    gradsq_solve,
    homotopy_track,
    multistart,
    newton_solve,
    worker_count,
)


def _none_failed(X):
    return np.zeros(len(X), dtype=bool)


class Cubic(ProblemInstance):
    """V(x) = sum(x^4/4 - x^2/2): roots of the gradient at 0 and +-1."""

    family = "synthetic"

    def __init__(self, n=2):
        super().__init__(n, f"cubic-{n}")

    def energy(self, p):
        p = self.check_point(p)
        return float(np.sum(p**4 / 4 - p**2 / 2))

    def residual_batch(self, X):
        X = self.check_points(X)
        return X**3 - X, _none_failed(X)

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        jac = np.zeros((len(X), self.n, self.n))
        own = np.arange(self.n)
        jac[:, own, own] = 3 * X**2 - 1
        return jac, _none_failed(X)

    def sample_start(self, rng):
        return rng.uniform(-2, 2, self.n)


class NoRoot(RootSystem):
    """f(x) = x^2 + 1 never vanishes; W has a spurious minimum at 0."""

    family = "synthetic"

    def __init__(self):
        super().__init__(1, "no-root")

    def residual_batch(self, X):
        X = self.check_points(X)
        return X**2 + 1.0, _none_failed(X)

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        return (2.0 * X)[:, :, None], _none_failed(X)

    def _jacobian_and_curvature_batch(self, X):
        # f'' = 2, so f f'' = 2 (x^2 + 1)
        jac, failed = self.residual_jacobian_batch(X)
        return jac, (2.0 * (X**2 + 1.0))[:, :, None], failed


class Hole(ProblemInstance):
    """Gradient system that cannot be evaluated inside |x| < 0.5."""

    family = "synthetic"

    def __init__(self):
        super().__init__(1, "hole")

    def energy(self, p):
        p = self.check_point(p)
        if abs(p[0]) < 0.5:
            raise EvaluationError("inside the hole")
        return float((p[0] ** 2 - 1) ** 2)

    def residual_batch(self, X):
        X = self.check_points(X)
        return 4 * X * (X**2 - 1), np.abs(X[:, 0]) < 0.5

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        return (12 * X**2 - 4)[:, :, None], np.abs(X[:, 0]) < 0.5


def test_newton_converges_quadratically_to_nearby_root():
    inst = Cubic()
    out = newton_solve(inst, np.array([1.2, -0.8]))
    assert out.status is Status.CONVERGED
    assert out.residual_norm <= 1e-10
    assert np.allclose(out.point, [1.0, -1.0], atol=1e-8)
    assert out.iterations < 12


def test_newton_zero_iterations_at_root():
    inst = Cubic()
    out = newton_solve(inst, np.array([1.0, 1.0]))
    assert out.status is Status.CONVERGED
    assert out.iterations == 0
    assert np.array_equal(out.point, [1.0, 1.0])


def test_newton_max_iters():
    inst = Cubic()
    cfg = SolverConfig(method="newton", max_iters=1)
    out = newton_solve(inst, np.array([5.0, 5.0]), cfg)
    assert out.status is Status.MAX_ITERS
    assert out.iterations == 1


def test_newton_singular_at_degenerate_jacobian():
    # the NoRoot Jacobian 2x vanishes exactly at the origin
    out = newton_solve(NoRoot(), np.array([0.0]))
    assert out.status is Status.SINGULAR_STEP


def test_newton_eval_error_at_start():
    out = newton_solve(Hole(), np.array([0.1]))
    assert out.status is Status.EVAL_ERROR


def test_newton_survives_eval_error_in_line_search():
    # stepping across the hole is treated as a failed trial, not a crash
    out = newton_solve(Hole(), np.array([2.0]))
    assert out.status in (Status.CONVERGED, Status.DIVERGED)
    if out.status is Status.CONVERGED:
        assert abs(abs(out.point[0]) - 1.0) < 1e-8


def test_newton_trace_recording():
    inst = Cubic()
    cfg = SolverConfig(method="newton", record_trace=True)
    out = newton_solve(inst, np.array([1.4, 1.4]), cfg)
    assert out.trace is not None
    assert out.trace[0][0] == 0
    assert len(out.trace) == out.iterations + 1
    norms = [t[2] for t in out.trace]
    assert norms[-1] <= 1e-10
    out2 = newton_solve(inst, np.array([1.4, 1.4]))
    assert out2.trace is None


def test_homotopy_trace_recording():
    inst = Cubic()
    start = np.array([1.4, 1.4])
    cfg = SolverConfig(method="homotopy", record_trace=True)
    out = homotopy_track(inst, start, cfg)
    assert out.status is Status.CONVERGED
    assert [t[0] for t in out.trace] == list(range(out.iterations + 1))
    assert np.array_equal(out.trace[0][1], start)
    assert np.array_equal(out.trace[-1][1], out.point)
    assert out.trace[-1][2] == out.residual_norm
    for _, x, norm in out.trace:
        assert norm == pytest.approx(np.linalg.norm(inst.residual(x)), rel=1e-12, abs=1e-15)
    assert homotopy_track(inst, start).trace is None


def test_newton_respects_cond_limit():
    inst = Phi4Lattice(2)
    cfg = SolverConfig(method="newton", cond_limit=1.0 + 1e-9)
    out = newton_solve(inst, np.array([1.0, 2.0, 3.0, 4.0]), cfg)
    assert out.status is Status.SINGULAR_STEP


def test_linear_step_least_norm_when_rhs_in_range():
    # rank-deficient beyond any condition limit, but the right-hand side lies
    # in the range: the least-norm step solves the system
    delta = _linear_step(np.diag([1.0, 0.0]), np.array([1.0, 0.0]), 1e12)
    assert np.array_equal(delta, [1.0, 0.0])


def test_linear_step_refuses_rhs_in_null_directions():
    assert _linear_step(np.diag([1.0, 0.0]), np.array([0.0, 1.0]), 1e12) is None


def test_newton_thomson_octahedron_with_charge_near_pole():
    # charges 2-5 on the equator, charge 6 a hair from the south pole where
    # the polar chart degenerates; the Hessian fails the condition guard
    # there, yet Newton must still reach the octahedron
    half = np.pi / 2
    x = np.array([half, half, half, half, np.pi, half, -half, np.pi - 1e-5, 0.0])
    x[:7] += 1e-4 * np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
    inst = ThomsonSphere(6)
    out = newton_solve(inst, x)
    assert out.status is Status.CONVERGED
    assert abs(inst.energy(out.point) - 9.985281374) <= 1e-8


def test_newton_lj_trimer_reaches_equilateral_minimum():
    inst = LennardJonesCluster(3)
    r = 2 ** (1 / 6)
    x = np.array([r, r / 2, r * np.sqrt(3) / 2]) + np.array([0.05, -0.04, 0.03])
    out = newton_solve(inst, x)
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
    out = newton_solve(inst, start)
    assert out.status is Status.CONVERGED
    assert verify_geometric(puz, out.point.reshape(-1, 2))


def test_gradsq_converges_on_gradient_system():
    inst = Cubic()
    out = gradsq_solve(inst, np.array([1.3, -1.3]))
    assert out.status is Status.CONVERGED
    assert out.residual_norm <= 1e-10


def test_gradsq_reports_spurious_minimum():
    out = gradsq_solve(NoRoot(), np.array([0.8]))
    assert out.status is Status.SPURIOUS_MINIMUM
    assert abs(out.point[0]) < 1e-4
    assert out.residual_norm > 0.5


def test_gradsq_max_iters():
    inst = Cubic()
    cfg = SolverConfig(method="gradsq", max_iters=2)
    out = gradsq_solve(inst, np.array([1.9, 1.9]), cfg)
    assert out.status is Status.MAX_ITERS


def test_gradsq_eval_error():
    out = gradsq_solve(Hole(), np.array([0.2]))
    assert out.status is Status.EVAL_ERROR


def test_homotopy_reaches_root():
    inst = Cubic()
    out = homotopy_track(inst, np.array([1.7, -0.6]))
    assert out.status is Status.CONVERGED
    assert out.residual_norm <= 1e-10
    assert out.iterations >= 1


def test_homotopy_constant_path_at_root():
    inst = Cubic()
    out = homotopy_track(inst, np.array([0.0, 1.0]))
    assert out.status is Status.CONVERGED
    assert out.iterations == 0
    assert np.array_equal(out.point, [0.0, 1.0])


def test_homotopy_on_xy_lattice():
    inst = XYLattice(1, 4)
    rng = np.random.default_rng(8)
    converged = 0
    for _ in range(10):
        out = homotopy_track(inst, inst.sample_start(rng))
        if out.status is Status.CONVERGED:
            converged += 1
            assert np.linalg.norm(inst.gradient(out.point)) <= 1e-10
    assert converged >= 7


def test_homotopy_singular_start():
    out = homotopy_track(NoRoot(), np.array([0.0]))
    assert out.status is Status.SINGULAR_STEP


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method="bfgs")
    with pytest.raises(ValueError, match="starts"):
        SolverConfig(starts=-5)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=-1)
    for name in ("starts", "max_iters", "seed"):
        for bad in (2.5, -1, True, "3"):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})
    for bad in ((2.0, -2.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0), (1.0,), 3.0,
                ("a", "b")):
        with pytest.raises(ValueError, match="start_box"):
            SolverConfig(start_box=bad)
    SolverConfig(starts=0, max_iters=0, seed=np.int64(3), start_box=(-1.0, 2))
    for name in ("accept_tol", "dedup_tol"):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: bad})
    for bad in (0.5, -1.0, math.nan):
        with pytest.raises(ValueError, match="cond_limit"):
            SolverConfig(cond_limit=bad)
    SolverConfig(accept_tol=0.0, dedup_tol=0.0, cond_limit=1.0)
    out = newton_solve(Cubic(), np.array([1.5, 0.5]), SolverConfig(max_iters=0))
    assert out.status is Status.MAX_ITERS
    assert out.iterations == 0


def test_damping_and_schedule_validation():
    # checked at construction: a backtrack factor of 1 would keep the line
    # search from ever dropping below min_step, so no campaign may run with it
    for bad in (1.0, 1.5, 0.0, -0.5, math.nan):
        with pytest.raises(ValueError, match="backtrack"):
            Damping(backtrack=bad)
    for name in ("initial", "min_step"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                Damping(**{name: bad})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="decrease"):
            Damping(decrease=bad)
    for name in ("dt_initial", "dt_min", "dt_max"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                HomotopySchedule(**{name: bad})
    with pytest.raises(ValueError, match="grow"):
        HomotopySchedule(grow=math.nan)
    for name in ("corrector_iters", "easy_iters"):
        for bad in (-1, 1.5, False):
            with pytest.raises(ValueError, match=name):
                HomotopySchedule(**{name: bad})
    Damping(backtrack=0.99, min_step=1e-300)
    HomotopySchedule(corrector_iters=0, easy_iters=0)


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
    cfg = SolverConfig(method="gradsq", starts=5, seed=1, start_box=(-2.0, 2.0))
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


def test_multistart_start_id_stability():
    # the first 10 starts of a 20-start campaign equal the 10-start campaign
    inst = Cubic()
    small = multistart(inst, SolverConfig(method="newton", starts=10, seed=9))
    big = multistart(inst, SolverConfig(method="newton", starts=20, seed=9))
    for s, b in zip(small.starts, big.starts[:10]):
        assert np.array_equal(s, b)


def test_multistart_thread_count_invariance():
    inst = XYLattice(1, 4)
    cfg = SolverConfig(method="newton", starts=40, seed=5)
    os.environ["SPBENCH_THREADS"] = "1"
    try:
        one = multistart(inst, cfg)
    finally:
        os.environ["SPBENCH_THREADS"] = "8"
    try:
        eight = multistart(inst, cfg)
    finally:
        del os.environ["SPBENCH_THREADS"]
    assert len(one.solutions) == len(eight.solutions)
    for a, b in zip(one.solutions.points, eight.solutions.points):
        assert np.array_equal(a.point, b.point)
    for a, b in zip(one.outcomes, eight.outcomes):
        assert a.status is b.status


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


def test_worker_count_env():
    os.environ["SPBENCH_THREADS"] = "3"
    try:
        assert worker_count() == 3
        os.environ["SPBENCH_THREADS"] = "0"
        with pytest.raises(ValueError):
            worker_count()
    finally:
        del os.environ["SPBENCH_THREADS"]
    assert worker_count() >= 1


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
def test_multistart_chunk_invariance(name, tmp_path, monkeypatch):
    # one batch, uneven batches, and batches of one start give the same bytes
    make, kwargs = CHUNKED_CAMPAIGNS[name]
    inst = make()
    starts = 14
    cfg = SolverConfig(starts=starts, seed=11, **kwargs)
    files, outcomes = [], []
    for chunks in (1, 7, starts):
        monkeypatch.setenv("SPBENCH_THREADS", str(chunks))
        res = multistart(inst, cfg)
        path = tmp_path / f"{name}-{chunks}.json"
        save_result(res, cfg, path)
        files.append(path.read_bytes())
        outcomes.append([(o.status, o.iterations, o.point.tobytes(), o.residual_norm)
                         for o in res.outcomes])
    assert files[0] == files[1] == files[2]
    assert outcomes[0] == outcomes[1] == outcomes[2]


@pytest.mark.parametrize("method", ["newton", "gradsq", "homotopy"])
def test_multistart_without_starts(method):
    inst = XYLattice(1, 4)
    for res in (multistart(inst, SolverConfig(method=method, starts=0)),
                multistart(inst, SolverConfig(method=method, starts=5), starts=[])):
        assert res.stats.starts == 0
        assert res.outcomes == []
        assert res.starts == []
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
        alone = newton_solve if method == "newton" else homotopy_track
        assert np.array_equal(res.outcomes[i].point, alone(inst, starts[i]).point)


class NanJacobian(Cubic):
    """The Cubic residual with a Jacobian that is nan but not masked."""

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        return np.full((len(X), self.n, self.n), np.nan), _none_failed(X)


@pytest.mark.parametrize("method", ["newton", "homotopy"])
def test_non_finite_jacobian_is_singular_step(method):
    # the first start is a root and needs no Jacobian
    res = multistart(NanJacobian(), SolverConfig(method=method),
                     starts=[np.array([1.0, -1.0]), np.array([1.5, 0.5])])
    assert [o.status for o in res.outcomes] == [Status.CONVERGED, Status.SINGULAR_STEP]
    alone = newton_solve if method == "newton" else homotopy_track
    assert alone(NanJacobian(), np.array([1.5, 0.5])).status is Status.SINGULAR_STEP


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
        delta, ok = _linear_steps(jac, rhs, 1e12)
        assert ok.tolist() == expect
        for j, r, d, good in zip(jac, rhs, delta, ok):
            alone = _linear_step(j, r, 1e12)
            assert (alone is None) if not good else np.array_equal(alone, d)
        if jac is square:
            assert np.array_equal(delta[:2], [[1.0, 1.0], [1.0, 0.0]])
        if jac is tall:
            assert np.allclose(delta[0], [1.0, 1.0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("k,n", [(3, 3), (8, 8), (15, 15), (20, 8), (156, 8)])
def test_linear_steps_agree_with_numpy(k, n):
    # well-conditioned square systems against solve, full-rank tall ones
    # against least squares
    rng = np.random.default_rng(k * 1000 + n)
    jac = rng.standard_normal((12, k, n))
    if k == n:
        jac += 2.0 * np.sqrt(n) * np.eye(n)
    rhs = rng.standard_normal((12, k))
    delta, ok = _linear_steps(jac, rhs, 1e12)
    assert ok.all()
    for j, r, d in zip(jac, rhs, delta):
        ref = np.linalg.solve(j, r) if k == n else np.linalg.lstsq(j, r, rcond=None)[0]
        assert np.linalg.norm(d - ref) <= 1e-12 * np.linalg.norm(ref)
