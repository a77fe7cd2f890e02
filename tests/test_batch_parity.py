"""The batched solvers against one-start-at-a-time reference loops.

The references below are the sequential forms of Newton, gradsq and the
homotopy tracker: one start, one point per residual call, scalar step
lengths and 1-d dot products.  The batched solvers must reproduce them
bitwise: same status, iteration count, end point and residual norm for every
start, whatever else shares the batch.  A residual that cannot be evaluated
ends a start ``eval-error`` or refuses a trial point; a Jacobian that cannot
be evaluated is taken as nan, which has no step, so the start ends
``singular-step``.
"""

import math

import numpy as np
import pytest

from spbench.clusters import LennardJonesCluster, ThomsonSphere
from spbench.core import EvaluationError
from spbench.games import NashGame, NashInstance
from spbench.lattices import Phi4Lattice, XYLattice
from spbench.puzzles import PuzzleInstance, generate_grid_puzzle
from spbench.solvers import (
    BACKTRACK, COND_LIMIT, CORRECTOR_ITERS, DECREASE, DT0, DT_GROW, DT_MAX, DT_MIN, EASY_ITERS,
    GRADSQ_ABS_GTOL, GRADSQ_REL_GTOL, LEAST_NORM_FORCING, MIN_STEP, MU0, MU_MIN, STEP0,
    SolverConfig, Status, _resolved, draw_starts, multistart)
from test_solvers import Hole


def _norm(instance, x):
    f = np.asarray(instance.residual(x), dtype=float)
    norm = math.sqrt(f @ f)
    if not math.isfinite(norm):
        raise EvaluationError("non-finite residual")
    return f, norm


def _jacobian(instance, x, f):
    """The residual Jacobian at ``x``, nan where it cannot be evaluated."""
    try:
        return np.asarray(instance.residual_jacobian(x), dtype=float)
    except EvaluationError:
        return np.full((len(f), len(x)), np.nan)


def _step(jac, rhs):
    """One system's step.  A square system with an inverse and
    cond_inf = |J|_inf |J^-1|_inf below ``COND_LIMIT`` / n takes J^-1 rhs.
    Any other takes it from its thin SVD J = U diag(s) V^T: V diag(1/s) U^T
    rhs on the singular values s > 0 within ``COND_LIMIT`` of the largest.
    A rectangular system must keep them all; a square one may drop some when
    the share of rhs in the dropped directions is at most the forcing term."""
    jac = np.asarray(jac, dtype=float)
    if not np.all(np.isfinite(jac)):
        return None
    m, n = jac.shape
    if m == n:
        try:
            inv = np.linalg.inv(jac)
        except np.linalg.LinAlgError:
            inv = None
        if inv is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                cond = np.abs(jac).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
            if cond < COND_LIMIT / n:
                return inv @ rhs
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    keep = (sv > 0.0) & (sv >= sv[0] / COND_LIMIT)
    proj = rhs @ u
    if m != n:
        if m < n or not keep.all():
            return None
    elif math.sqrt(proj[~keep] @ proj[~keep]) > LEAST_NORM_FORCING * math.sqrt(rhs @ rhs):
        return None
    coef = np.zeros(len(sv))
    coef[keep] = proj[keep] / sv[keep]
    return coef @ vt


def _newton(instance, x, cfg):
    for it in range(cfg.max_iters + 1):
        try:
            f, norm = _norm(instance, x)
        except EvaluationError:
            return Status.EVAL_ERROR, x, math.inf, it
        if norm <= cfg.accept_tol:
            return Status.CONVERGED, x, norm, it
        if it == cfg.max_iters:
            return Status.MAX_ITERS, x, norm, it
        delta = _step(_jacobian(instance, x, f), -f)
        if delta is None:
            return Status.SINGULAR_STEP, x, norm, it
        step = STEP0
        while step >= MIN_STEP:
            cand = x + step * delta
            try:
                cand_norm = _norm(instance, cand)[1]
            except EvaluationError:
                cand_norm = math.inf
            if cand_norm <= (1.0 - DECREASE * step) * norm:
                x = cand
                break
            step *= BACKTRACK
        else:
            return Status.DIVERGED, x, norm, it


def _gradsq(instance, x, cfg):
    mu = MU0
    for it in range(cfg.max_iters + 1):
        try:
            f, norm = _norm(instance, x)
        except EvaluationError:
            return Status.EVAL_ERROR, x, math.inf, it
        if norm <= cfg.accept_tol:
            return Status.CONVERGED, x, norm, it
        jac = _jacobian(instance, x, f)
        grad = 2.0 * jac.T @ f
        gnorm = math.sqrt(grad @ grad)
        jnorm = math.sqrt(float(np.sum(jac * jac)))
        if ((gnorm <= GRADSQ_ABS_GTOL or gnorm <= GRADSQ_REL_GTOL * 2.0 * jnorm * norm)
                and norm > 100.0 * cfg.accept_tol):
            return Status.SPURIOUS_MINIMUM, x, norm, it
        if it == cfg.max_iters:
            return Status.MAX_ITERS, x, norm, it
        if not np.all(np.isfinite(jac)):
            return Status.SINGULAR_STEP, x, norm, it
        # the Levenberg-Marquardt step V diag(s / (s^2 + mu)) U^T (-f)
        u, sv, vt = np.linalg.svd(jac, full_matrices=False)
        delta = ((-f @ u) * sv / (sv * sv + mu)) @ vt
        slope = float(grad @ delta)
        step = STEP0
        while step >= MIN_STEP:
            cand = x + step * delta
            try:
                cand_w = _norm(instance, cand)[1] ** 2
            except EvaluationError:
                cand_w = math.inf
            if cand_w <= norm * norm + DECREASE * step * slope:
                x = cand
                break
            step *= BACKTRACK
        else:
            if ((gnorm <= 1e4 * GRADSQ_ABS_GTOL
                 or gnorm <= 1e2 * GRADSQ_REL_GTOL * 2.0 * jnorm * norm)
                    and norm > 100.0 * cfg.accept_tol):
                return Status.SPURIOUS_MINIMUM, x, norm, it
            return Status.DIVERGED, x, norm, it
        mu = max(mu / 3.0 if step == STEP0 else 4.0 * mu, MU_MIN)


def _homotopy(instance, x, cfg):
    try:
        f0, norm = _norm(instance, x)
    except EvaluationError:
        return Status.EVAL_ERROR, x, math.inf, 0
    t, dt, steps = 0.0, DT0, 0
    if norm <= cfg.accept_tol:
        return Status.CONVERGED, x, norm, steps
    while t < 1.0:
        if steps >= cfg.max_iters:
            return Status.MAX_ITERS, x, norm, steps
        velocity = _step(_jacobian(instance, x, f0), -f0)
        if velocity is None:
            return Status.SINGULAR_STEP, x, norm, steps
        dt_eff = min(dt, 1.0 - t)
        t_new = t + dt_eff
        cur = x + dt_eff * velocity
        used = None
        for k in range(CORRECTOR_ITERS + 1):
            try:
                f, cur_norm = _norm(instance, cur)
            except EvaluationError:
                break
            h = f - (1.0 - t_new) * f0
            if float(np.linalg.norm(h)) <= cfg.accept_tol:
                used = k
                break
            if k == CORRECTOR_ITERS:
                break
            dc = _step(_jacobian(instance, cur, f), -h)
            if dc is None:
                break
            cur = cur + dc
        if used is None:
            dt *= 0.5
            if dt < DT_MIN:
                return Status.DIVERGED, x, norm, steps
            continue
        x, norm, t = cur, cur_norm, t_new
        steps += 1
        if used <= EASY_ITERS:
            dt = min(dt * DT_GROW, DT_MAX)
    return (Status.CONVERGED if norm <= cfg.accept_tol else Status.DIVERGED), x, norm, steps


REFERENCES = {"newton": _newton, "gradsq": _gradsq, "homotopy": _homotopy}


class CountingHole(Hole):
    """``Hole`` from starts in [0.5, 3], counting the rows it cannot
    evaluate: a start never is one, so those are line-search rungs that land
    in the hole."""

    def __init__(self):
        super().__init__()
        self.masked = 0

    def residual_batch(self, X):
        f = super().residual_batch(X)
        self.masked += int((~np.isfinite(f).all(axis=1)).sum())
        return f

    def sample_start_batch(self, rngs):
        return np.array([rng.uniform(0.5, 3.0, 1) for rng in rngs]).reshape(len(rngs), 1)


def _nash_3_players():
    rng = np.random.default_rng(7)
    return NashInstance(NashGame([rng.uniform(-1.0, 1.0, (2, 2, 2)) for _ in range(3)]))


CASES = {
    "ring": (lambda: XYLattice(1, 4), ("newton", "gradsq", "homotopy")),
    "disordered": (lambda: XYLattice(2, 3, disorder="uniform-signed", seed=1),
                   ("newton", "gradsq", "homotopy")),
    "phi4-coupled": (lambda: Phi4Lattice(3, J=0.3), ("newton", "gradsq", "homotopy")),
    "thomson": (lambda: ThomsonSphere(5), ("newton", "homotopy")),
    "puzzle": (lambda: PuzzleInstance(generate_grid_puzzle(2, 1, 2, seed=3)[0]), ("newton",)),
    "lj-4": (lambda: LennardJonesCluster(4), ("newton",)),
    "nash-3-players": (_nash_3_players, ("newton", "gradsq")),
    "hole": (CountingHole, ("newton", "gradsq")),
}


def _config(method):
    return _resolved(SolverConfig(method=method, starts=12, seed=3,
                                  max_iters=300 if method == "gradsq" else None))


@pytest.mark.parametrize("case,method", [(c, m) for c, (_, ms) in sorted(CASES.items())
                                         for m in ms])
def test_batched_solver_matches_sequential_reference(case, method):
    inst = CASES[case][0]()
    cfg = _config(method)
    res = multistart(inst, cfg)
    for start, out in zip(draw_starts(inst, cfg), res.outcomes):
        status, point, norm, iterations = REFERENCES[method](inst, start, cfg)
        assert out.status is status
        assert out.iterations == iterations
        assert np.array_equal(out.point, point)
        assert out.residual_norm == norm


@pytest.mark.parametrize("method", CASES["hole"][1])
def test_hole_case_reaches_masked_rungs(method):
    inst = CountingHole()
    multistart(inst, _config(method))
    assert inst.masked > 0
