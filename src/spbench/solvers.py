"""Root finders and the seeded multistart driver.

Three methods share one outcome type:

* ``newton_solve``: damped Newton on the residual, with a backtracking line
  search on the residual norm and a condition-number guard on each linear
  solve.  A square system that fails the guard gets the least-norm step on
  its well-conditioned singular directions, provided the right-hand side
  barely reaches the dropped ones (an inexact-Newton step, see
  ``LEAST_NORM_FORCING``); otherwise the start ends ``singular-step``.
  Quadratic near regular roots, and the workhorse everywhere.
* ``gradsq_solve``: descent on the scalar landscape W = |f|^2 along its exact
  gradient 2 J^T f, with a backtracking line search.  It cannot jump over
  barriers, which is the point: it gets stuck in minima of W that are not
  roots, and reports them as ``spurious-minimum`` instead of pretending.
* ``homotopy_track``: Newton homotopy from the start point, deforming
  f(x) - (1 - t) f(x0) from a trivially solved system at t=0 to the real one
  at t=1 with an Euler predictor and a short Newton corrector, under an
  adaptive step length.

``multistart`` fans any of them over seeded starts, classifies the converged
points and deduplicates them.  Start vectors depend only on (seed, start_id),
so campaigns are reproducible at any thread count.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (EvaluationError, Provenance, SolutionSet, classify, dedup)

THREADS_ENV = "SPBENCH_THREADS"

# Forcing term of the least-norm step that ``_linear_step`` takes when a square
# system fails the condition guard: the step is taken only if its linear
# residual |J delta - rhs| / |rhs| stays at or below this value (Dembo,
# Eisenstat & Steihaug, "Inexact Newton methods", SIAM J. Numer. Anal. 1982).
# Coordinate singularities such as a Thomson charge at the pole (theta = pi)
# make the Jacobian numerically rank-deficient while the residual's share in
# the lost direction shrinks with the distance to the pole, so the step is
# still sound there.
LEAST_NORM_FORCING = 1e-4


class Status(str, enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERS = "max-iters"
    SPURIOUS_MINIMUM = "spurious-minimum"
    EVAL_ERROR = "eval-error"
    SINGULAR_STEP = "singular-step"


@dataclass(frozen=True)
class Damping:
    """Backtracking line-search knobs shared by the damped methods."""

    initial: float = 1.0
    backtrack: float = 0.5
    min_step: float = 1e-12
    decrease: float = 1e-4


@dataclass(frozen=True)
class HomotopySchedule:
    """Adaptive step control for ``homotopy_track``."""

    dt_initial: float = 0.05
    dt_min: float = 1e-8
    dt_max: float = 0.25
    grow: float = 1.5
    corrector_iters: int = 5
    easy_iters: int = 2


_DEFAULT_MAX_ITERS = {"newton": 100, "gradsq": 5000, "homotopy": 2000}


@dataclass(frozen=True)
class SolverConfig:
    method: str = "newton"
    accept_tol: float = 1e-10
    max_iters: int | None = None
    damping: Damping = field(default_factory=Damping)
    homotopy: HomotopySchedule = field(default_factory=HomotopySchedule)
    starts: int = 100
    seed: int = 0
    start_box: tuple | None = None
    dedup_tol: float = 1e-6
    cond_limit: float = 1e12
    gradsq_abs_gtol: float = 1e-9
    gradsq_rel_gtol: float = 1e-6
    record_trace: bool = False

    def __post_init__(self):
        if self.method not in _DEFAULT_MAX_ITERS:
            raise ValueError(f"unknown method {self.method!r}, "
                             f"expected one of {sorted(_DEFAULT_MAX_ITERS)}")


@dataclass
class SolveOutcome:
    status: Status
    point: np.ndarray
    residual_norm: float
    iterations: int
    trace: list | None = None


def _resolved(cfg, method):
    if cfg is None:
        cfg = SolverConfig(method=method)
    if cfg.method != method:
        cfg = dataclasses.replace(cfg, method=method)
    if cfg.max_iters is None:
        cfg = dataclasses.replace(cfg, max_iters=_DEFAULT_MAX_ITERS[method])
    return cfg


def _residual_norm(instance, x):
    f = np.asarray(instance.residual(x), dtype=float)
    norm = math.sqrt(f @ f)  # nan/inf entries surface here
    if not math.isfinite(norm):
        raise EvaluationError("non-finite residual")
    return f, norm


def _linear_step(jac, rhs, cond_limit):
    """Solve jac @ delta = rhs with a conditioning guard.

    Square systems within ``cond_limit`` are solved exactly.  A square system
    that fails the guard is split by one SVD: singular values below
    sv[0] / cond_limit are dropped, and the least-norm step on the kept
    directions is returned when the share of ``rhs`` in the dropped
    directions, which is the step's linear residual |jac @ delta - rhs| /
    |rhs|, is at most ``LEAST_NORM_FORCING``.  Otherwise, and for systems that
    are not finite, it returns None.  Rectangular systems go through least
    squares and return None unless they have full column rank within the
    limit."""
    jac = np.asarray(jac, dtype=float)
    if jac.ndim != 2:
        raise ValueError(f"jacobian must be 2-d, got {jac.ndim}-d")
    if not np.all(np.isfinite(jac)):
        return None
    m, n = jac.shape
    if m == n:
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[-1] <= 0.0 or sv[0] / sv[-1] > cond_limit:
            return _least_norm_step(jac, rhs, cond_limit)
        try:
            return np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            return None
    delta, _, rank, sv = np.linalg.lstsq(jac, rhs, rcond=None)
    if rank < n or sv[-1] <= 0.0 or sv[0] / sv[-1] > cond_limit:
        return None
    return delta


def _least_norm_step(jac, rhs, cond_limit):
    """The least-norm step of ``_linear_step`` for an ill-conditioned square
    system, or None when the dropped directions carry too much of rhs."""
    u, sv, vt = np.linalg.svd(jac)
    keep = (sv > 0.0) & (sv >= sv[0] / cond_limit)
    proj = u.T @ rhs
    lost = proj[~keep]
    if np.linalg.norm(lost) > LEAST_NORM_FORCING * np.linalg.norm(rhs):
        return None
    return vt[keep].T @ (proj[keep] / sv[keep])


def newton_solve(instance, start, cfg=None):
    """Damped Newton iteration on the residual from one start point."""
    cfg = _resolved(cfg, "newton")
    x = instance.check_point(np.array(start, dtype=float))
    trace = [] if cfg.record_trace else None
    for it in range(cfg.max_iters + 1):
        try:
            f, norm = _residual_norm(instance, x)
        except EvaluationError:
            return SolveOutcome(Status.EVAL_ERROR, x, float("inf"), it, trace)
        if trace is not None:
            trace.append((it, x.copy(), norm))
        if norm <= cfg.accept_tol:
            return SolveOutcome(Status.CONVERGED, x, norm, it, trace)
        if it == cfg.max_iters:
            return SolveOutcome(Status.MAX_ITERS, x, norm, it, trace)
        try:
            jac = instance.residual_jacobian(x)
        except EvaluationError:
            return SolveOutcome(Status.EVAL_ERROR, x, norm, it, trace)
        delta = _linear_step(jac, -f, cfg.cond_limit)
        if delta is None:
            return SolveOutcome(Status.SINGULAR_STEP, x, norm, it, trace)
        step = cfg.damping.initial
        moved = False
        while step >= cfg.damping.min_step:
            cand = x + step * delta
            try:
                _, cand_norm = _residual_norm(instance, cand)
            except EvaluationError:
                cand_norm = float("inf")
            if cand_norm <= (1.0 - cfg.damping.decrease * step) * norm:
                x = cand
                moved = True
                break
            step *= cfg.damping.backtrack
        if not moved:
            return SolveOutcome(Status.DIVERGED, x, norm, it, trace)
    raise AssertionError("unreachable")


def gradsq_solve(instance, start, cfg=None):
    """Descent on W = |f|^2 with exact gradient and backtracking.

    Stops as ``converged`` only when the residual itself is small; a small
    gradient with a large residual is reported as ``spurious-minimum``.  The
    gradient test has a scale-free branch (gradient small against the local
    slope bound 2 |J| |f|) and an absolute branch for landscapes whose
    Jacobian degenerates at the spurious point.  Step lengths start from a
    secant estimate so narrow valleys do not stall the iteration.
    """
    cfg = _resolved(cfg, "gradsq")
    x = instance.check_point(np.array(start, dtype=float))
    trace = [] if cfg.record_trace else None
    prev_x = None
    prev_g = None
    for it in range(cfg.max_iters + 1):
        try:
            f, norm = _residual_norm(instance, x)
        except EvaluationError:
            return SolveOutcome(Status.EVAL_ERROR, x, float("inf"), it, trace)
        w_val = norm * norm
        if trace is not None:
            trace.append((it, x.copy(), norm))
        if norm <= cfg.accept_tol:
            return SolveOutcome(Status.CONVERGED, x, norm, it, trace)
        try:
            jac = np.asarray(instance.residual_jacobian(x), dtype=float)
        except EvaluationError:
            return SolveOutcome(Status.EVAL_ERROR, x, norm, it, trace)
        grad = 2.0 * jac.T @ f
        gnorm = math.sqrt(grad @ grad)
        jnorm = math.sqrt(float(np.sum(jac * jac)))
        small_grad = (gnorm <= cfg.gradsq_abs_gtol
                      or gnorm <= cfg.gradsq_rel_gtol * 2.0 * jnorm * norm)
        if small_grad and norm > 100.0 * cfg.accept_tol:
            return SolveOutcome(Status.SPURIOUS_MINIMUM, x, norm, it, trace)
        if it == cfg.max_iters:
            return SolveOutcome(Status.MAX_ITERS, x, norm, it, trace)
        if prev_g is not None:
            ds = x - prev_x
            dy = grad - prev_g
            curv = float(ds @ dy)
            step = float(ds @ ds) / curv if curv > 0.0 else 1.0 / max(1.0, gnorm)
        else:
            step = 1.0 / max(1.0, gnorm)
        step = min(max(step, 1e-12), 1e6)
        moved = False
        while step >= cfg.damping.min_step:
            cand = x - step * grad
            try:
                _, cand_norm = _residual_norm(instance, cand)
                cand_w = cand_norm * cand_norm
            except EvaluationError:
                cand_w = float("inf")
            if cand_w <= w_val - cfg.damping.decrease * step * gnorm * gnorm:
                prev_x, prev_g = x, grad
                x = cand
                moved = True
                break
            step *= cfg.damping.backtrack
        if not moved:
            # the line search died at floating-point resolution: decide
            # between a spurious minimum and plain divergence with relaxed
            # thresholds, since W can no longer be decreased at all
            floor_grad = (gnorm <= 1e4 * cfg.gradsq_abs_gtol
                          or gnorm <= 1e2 * cfg.gradsq_rel_gtol * 2.0 * jnorm * norm)
            if floor_grad and norm > 100.0 * cfg.accept_tol:
                return SolveOutcome(Status.SPURIOUS_MINIMUM, x, norm, it, trace)
            return SolveOutcome(Status.DIVERGED, x, norm, it, trace)
    raise AssertionError("unreachable")


def homotopy_track(instance, start, cfg=None):
    """Newton homotopy from ``start``: follow the zero set of
    f(x) - (1 - t) f(x0) from t=0 to t=1 with Euler prediction and a few
    Newton corrections per step.  The trace holds the start and every
    accepted step."""
    cfg = _resolved(cfg, "homotopy")
    sched = cfg.homotopy
    x = instance.check_point(np.array(start, dtype=float))
    trace = [] if cfg.record_trace else None
    try:
        f0, norm = _residual_norm(instance, x)
    except EvaluationError:
        return SolveOutcome(Status.EVAL_ERROR, x, float("inf"), 0, trace)
    t, dt, steps = 0.0, sched.dt_initial, 0
    if trace is not None:
        trace.append((steps, x.copy(), norm))
    if norm <= cfg.accept_tol:
        return SolveOutcome(Status.CONVERGED, x, norm, steps, trace)
    while t < 1.0:
        if steps >= cfg.max_iters:
            return SolveOutcome(Status.MAX_ITERS, x, norm, steps, trace)
        try:
            jac = instance.residual_jacobian(x)
        except EvaluationError:
            return SolveOutcome(Status.EVAL_ERROR, x, norm, steps, trace)
        velocity = _linear_step(jac, -f0, cfg.cond_limit)
        if velocity is None:
            return SolveOutcome(Status.SINGULAR_STEP, x, norm, steps, trace)
        dt_eff = min(dt, 1.0 - t)
        t_new = t + dt_eff
        cur = x + dt_eff * velocity
        used = None
        for k in range(sched.corrector_iters + 1):
            try:
                f, cur_norm = _residual_norm(instance, cur)
            except EvaluationError:
                break
            h = f - (1.0 - t_new) * f0
            if float(np.linalg.norm(h)) <= cfg.accept_tol:
                used = k
                break
            if k == sched.corrector_iters:
                break
            try:
                jac_c = instance.residual_jacobian(cur)
            except EvaluationError:
                break
            dc = _linear_step(jac_c, -h, cfg.cond_limit)
            if dc is None:
                break
            cur = cur + dc
        if used is None:
            dt *= 0.5
            if dt < sched.dt_min:
                return SolveOutcome(Status.DIVERGED, x, norm, steps, trace)
            continue
        x, norm, t = cur, cur_norm, t_new
        steps += 1
        if trace is not None:
            trace.append((steps, x.copy(), norm))
        if used <= sched.easy_iters:
            dt = min(dt * sched.grow, sched.dt_max)
    status = Status.CONVERGED if norm <= cfg.accept_tol else Status.DIVERGED
    return SolveOutcome(status, x, norm, steps, trace)


_METHODS = {
    "newton": newton_solve,
    "gradsq": gradsq_solve,
    "homotopy": homotopy_track,
}


@dataclass
class CampaignStats:
    starts: int
    converged: int
    diverged: int
    spurious: int
    eval_errors: int
    wall_time: float = 0.0


@dataclass
class MultistartResult:
    solutions: SolutionSet
    stats: CampaignStats
    outcomes: list
    starts: list


def worker_count():
    """Thread count for multistart: the SPBENCH_THREADS variable if set,
    else 1.  Each start's numpy calls are too small to run outside the
    interpreter lock, so more threads only add hand-offs."""
    env = os.environ.get(THREADS_ENV)
    if env is None:
        return 1
    value = int(env)
    if value < 1:
        raise ValueError(f"{THREADS_ENV} must be >= 1, got {value}")
    return value


def draw_starts(instance, cfg):
    """The campaign's start points.  Each one comes from its own generator
    seeded with (seed, start_id), so point i is the same no matter how many
    starts run or in which order."""
    starts = []
    for i in range(cfg.starts):
        rng = np.random.default_rng((cfg.seed, i))
        if cfg.start_box is not None:
            lo, hi = cfg.start_box
            starts.append(rng.uniform(lo, hi, instance.n))
        else:
            starts.append(np.asarray(instance.sample_start(rng), dtype=float))
    return starts


def multistart(instance, cfg=None, starts=None):
    """Run one solver from many starts, classify and deduplicate.

    ``starts`` overrides the seeded sample with an explicit list.  Converged
    endpoints whose classification fails to evaluate count as eval errors;
    max-iters and singular-step endpoints count as diverged in the tally
    (the per-start outcomes keep the distinction).
    """
    if cfg is None:
        cfg = SolverConfig()
    cfg = _resolved(cfg, cfg.method)
    solver = _METHODS[cfg.method]
    if starts is None:
        starts = draw_starts(instance, cfg)
    else:
        starts = [instance.check_point(np.asarray(s, dtype=float)) for s in starts]

    began = time.perf_counter()
    workers = worker_count()
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(lambda s: solver(instance, s, cfg), starts))
    else:
        outcomes = [solver(instance, s, cfg) for s in starts]
    wall = time.perf_counter() - began

    found = []
    converged = diverged = spurious = eval_errors = 0
    for i, out in enumerate(outcomes):
        if out.status is Status.CONVERGED:
            prov = Provenance(solver=cfg.method, seed=cfg.seed, start_id=i)
            try:
                found.append(classify(instance, out.point, provenance=prov))
                converged += 1
            except EvaluationError:
                eval_errors += 1
        elif out.status is Status.SPURIOUS_MINIMUM:
            spurious += 1
        elif out.status is Status.EVAL_ERROR:
            eval_errors += 1
        else:
            diverged += 1
    solutions = dedup(found, tol=cfg.dedup_tol, metric=instance.dedup_metric)
    stats = CampaignStats(starts=len(starts), converged=converged,
                          diverged=diverged, spurious=spurious,
                          eval_errors=eval_errors, wall_time=wall)
    return MultistartResult(solutions=solutions, stats=stats,
                            outcomes=outcomes, starts=starts)
