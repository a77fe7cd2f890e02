"""The batched solvers against one-start-at-a-time reference loops.

The references below are the sequential forms of Newton, gradsq and the
homotopy tracker: one start, one point per residual call, scalar step
lengths and 1-d dot products.  The batched solvers must reproduce them
bitwise: same status, iteration count, end point and residual norm for every
start, whatever else shares the batch.
"""

import math

import numpy as np
import pytest

from spbench.clusters import ThomsonSphere
from spbench.core import EvaluationError
from spbench.lattices import Phi4Lattice, XYLattice
from spbench.puzzles import PuzzleInstance, generate_grid_puzzle
from spbench.solvers import (LEAST_NORM_FORCING, SolverConfig, Status, _resolved,
                             draw_starts, multistart)


def _norm(instance, x):
    f = np.asarray(instance.residual(x), dtype=float)
    norm = math.sqrt(f @ f)
    if not math.isfinite(norm):
        raise EvaluationError("non-finite residual")
    return f, norm


def _step(jac, rhs, cond_limit):
    """One system's step from its thin SVD J = U diag(s) V^T: V diag(1/s) U^T
    rhs on the singular values s > 0 within ``cond_limit`` of the largest.
    A rectangular system must keep them all; a square one may drop some when
    the share of rhs in the dropped directions is at most the forcing term."""
    jac = np.asarray(jac, dtype=float)
    if not np.all(np.isfinite(jac)):
        return None
    m, n = jac.shape
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    keep = (sv > 0.0) & (sv >= sv[0] / cond_limit)
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
        try:
            delta = _step(instance.residual_jacobian(x), -f, cfg.cond_limit)
        except EvaluationError:
            return Status.EVAL_ERROR, x, norm, it
        if delta is None:
            return Status.SINGULAR_STEP, x, norm, it
        step = cfg.damping.initial
        while step >= cfg.damping.min_step:
            cand = x + step * delta
            try:
                cand_norm = _norm(instance, cand)[1]
            except EvaluationError:
                cand_norm = math.inf
            if cand_norm <= (1.0 - cfg.damping.decrease * step) * norm:
                x = cand
                break
            step *= cfg.damping.backtrack
        else:
            return Status.DIVERGED, x, norm, it


def _gradsq(instance, x, cfg):
    prev_x = prev_g = None
    for it in range(cfg.max_iters + 1):
        try:
            f, norm = _norm(instance, x)
        except EvaluationError:
            return Status.EVAL_ERROR, x, math.inf, it
        if norm <= cfg.accept_tol:
            return Status.CONVERGED, x, norm, it
        try:
            jac = np.asarray(instance.residual_jacobian(x), dtype=float)
        except EvaluationError:
            return Status.EVAL_ERROR, x, norm, it
        grad = 2.0 * jac.T @ f
        gnorm = math.sqrt(grad @ grad)
        jnorm = math.sqrt(float(np.sum(jac * jac)))
        if ((gnorm <= cfg.gradsq_abs_gtol or gnorm <= cfg.gradsq_rel_gtol * 2.0 * jnorm * norm)
                and norm > 100.0 * cfg.accept_tol):
            return Status.SPURIOUS_MINIMUM, x, norm, it
        if it == cfg.max_iters:
            return Status.MAX_ITERS, x, norm, it
        step = 1.0 / max(1.0, gnorm)
        if prev_g is not None:
            ds = x - prev_x
            curv = float(ds @ (grad - prev_g))
            if curv > 0.0:
                step = float(ds @ ds) / curv
        step = min(max(step, 1e-12), 1e6)
        while step >= cfg.damping.min_step:
            cand = x - step * grad
            try:
                cand_w = _norm(instance, cand)[1] ** 2
            except EvaluationError:
                cand_w = math.inf
            if cand_w <= norm * norm - cfg.damping.decrease * step * gnorm * gnorm:
                prev_x, prev_g, x = x, grad, cand
                break
            step *= cfg.damping.backtrack
        else:
            if ((gnorm <= 1e4 * cfg.gradsq_abs_gtol
                 or gnorm <= 1e2 * cfg.gradsq_rel_gtol * 2.0 * jnorm * norm)
                    and norm > 100.0 * cfg.accept_tol):
                return Status.SPURIOUS_MINIMUM, x, norm, it
            return Status.DIVERGED, x, norm, it


def _homotopy(instance, x, cfg):
    sched = cfg.homotopy
    try:
        f0, norm = _norm(instance, x)
    except EvaluationError:
        return Status.EVAL_ERROR, x, math.inf, 0
    t, dt, steps = 0.0, sched.dt_initial, 0
    if norm <= cfg.accept_tol:
        return Status.CONVERGED, x, norm, steps
    while t < 1.0:
        if steps >= cfg.max_iters:
            return Status.MAX_ITERS, x, norm, steps
        try:
            velocity = _step(instance.residual_jacobian(x), -f0, cfg.cond_limit)
        except EvaluationError:
            return Status.EVAL_ERROR, x, norm, steps
        if velocity is None:
            return Status.SINGULAR_STEP, x, norm, steps
        dt_eff = min(dt, 1.0 - t)
        t_new = t + dt_eff
        cur = x + dt_eff * velocity
        used = None
        for k in range(sched.corrector_iters + 1):
            try:
                f, cur_norm = _norm(instance, cur)
            except EvaluationError:
                break
            h = f - (1.0 - t_new) * f0
            if float(np.linalg.norm(h)) <= cfg.accept_tol:
                used = k
                break
            if k == sched.corrector_iters:
                break
            try:
                dc = _step(instance.residual_jacobian(cur), -h, cfg.cond_limit)
            except EvaluationError:
                break
            if dc is None:
                break
            cur = cur + dc
        if used is None:
            dt *= 0.5
            if dt < sched.dt_min:
                return Status.DIVERGED, x, norm, steps
            continue
        x, norm, t = cur, cur_norm, t_new
        steps += 1
        if used <= sched.easy_iters:
            dt = min(dt * sched.grow, sched.dt_max)
    return (Status.CONVERGED if norm <= cfg.accept_tol else Status.DIVERGED), x, norm, steps


REFERENCES = {"newton": _newton, "gradsq": _gradsq, "homotopy": _homotopy}

CASES = {
    "ring": (lambda: XYLattice(1, 4), ("newton", "gradsq", "homotopy")),
    "disordered": (lambda: XYLattice(2, 3, disorder="uniform-signed", seed=1),
                   ("newton", "gradsq", "homotopy")),
    "phi4-coupled": (lambda: Phi4Lattice(3, J=0.3), ("newton", "gradsq", "homotopy")),
    "thomson": (lambda: ThomsonSphere(5), ("newton", "homotopy")),
    "puzzle": (lambda: PuzzleInstance(generate_grid_puzzle(2, 1, 2, seed=3)[0]), ("newton",)),
}


@pytest.mark.parametrize("case,method", [(c, m) for c, (_, ms) in sorted(CASES.items())
                                         for m in ms])
def test_batched_solver_matches_sequential_reference(case, method):
    inst = CASES[case][0]()
    cfg = _resolved(SolverConfig(method=method, starts=12, seed=3,
                                 max_iters=300 if method == "gradsq" else None), method)
    res = multistart(inst, cfg)
    for start, out in zip(draw_starts(inst, cfg), res.outcomes):
        status, point, norm, iterations = REFERENCES[method](inst, start, cfg)
        assert out.status is status
        assert out.iterations == iterations
        assert np.array_equal(out.point, point)
        assert out.residual_norm == norm
