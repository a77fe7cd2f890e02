import os

import numpy as np
import pytest

from spbench.clusters import ThomsonSphere
from spbench.core import EvaluationError, ProblemInstance
from spbench.lattices import Phi4Lattice, XYLattice
from spbench.solvers import (
    SolverConfig,
    Status,
    _linear_step,
    gradsq_solve,
    homotopy_track,
    multistart,
    newton_solve,
    worker_count,
)


class Cubic(ProblemInstance):
    """V(x) = sum(x^4/4 - x^2/2): roots of the gradient at 0 and +-1."""

    family = "synthetic"

    def __init__(self, n=2):
        super().__init__(n, f"cubic-{n}")

    def energy(self, p):
        p = self.check_point(p)
        return float(np.sum(p**4 / 4 - p**2 / 2))

    def gradient(self, p):
        p = self.check_point(p)
        return p**3 - p

    def hessian(self, p):
        p = self.check_point(p)
        return np.diag(3 * p**2 - 1)

    def sample_start(self, rng):
        return rng.uniform(-2, 2, self.n)


class NoRoot(ProblemInstance):
    """f(x) = x^2 + 1 never vanishes; W has a spurious minimum at 0."""

    family = "synthetic"

    def __init__(self):
        super().__init__(1, "no-root")

    def residual(self, p):
        p = self.check_point(p)
        return np.array([p[0] ** 2 + 1.0])

    def residual_jacobian(self, p):
        p = self.check_point(p)
        return np.array([[2.0 * p[0]]])

    def energy(self, p):
        f = self.residual(p)
        return float(f @ f)

    def gradient(self, p):
        return 2.0 * self.residual_jacobian(p).T @ self.residual(p)


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

    def gradient(self, p):
        p = self.check_point(p)
        if abs(p[0]) < 0.5:
            raise EvaluationError("inside the hole")
        return np.array([4 * p[0] * (p[0] ** 2 - 1)])

    def hessian(self, p):
        p = self.check_point(p)
        if abs(p[0]) < 0.5:
            raise EvaluationError("inside the hole")
        return np.array([[12 * p[0] ** 2 - 4]])


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
