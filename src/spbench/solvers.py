"""Root finders and the seeded multistart driver.

``solve(instance, start, cfg)`` runs the method ``cfg.method`` names from one
start; all three share one outcome type:

* ``newton``: damped Newton on the residual, backtracking on the residual
  norm.  Each linear step is inverse first, SVD where the guard is in
  doubt: a square Jacobian well inside the condition-number guard takes
  the step from its inverse, others from a thin SVD, on the singular
  directions within ``COND_LIMIT`` of the largest.  A square system that
  drops some of them still gets the least-norm step, provided the
  right-hand side barely reaches the dropped ones (an inexact-Newton step,
  see ``LEAST_NORM_FORCING``); a rectangular one must keep them all, and
  gets the least-squares step.  Otherwise the start ends ``singular-step``.
  Quadratic near regular roots, and the workhorse everywhere.
* ``gradsq``: Levenberg-Marquardt descent on W = |f|^2 along
  V diag(s / (s^2 + mu)) U^T (-f) from the thin SVD, backtracking on W
  through the line search it shares with Newton.  Each start's damping mu
  falls while full steps pass, towards Gauss-Newton's step, and rises while
  they fail, towards a short step along -grad W.  It cannot jump over
  barriers, which is the point: it gets stuck in minima of W that are not
  roots.  It stops as ``converged`` only when the residual itself is small;
  a small gradient with a large residual is a ``spurious-minimum``.  The
  gradient test has a scale-free branch (gradient small against the local
  slope bound 2 |J| |f|) and an absolute branch for landscapes whose
  Jacobian degenerates at the spurious point.
* ``homotopy``: Newton homotopy from the start point x0, following the zero
  set of f(x) - (1 - t) f(x0) from a trivially solved system at t=0 to the
  real one at t=1 with an Euler predictor and a few Newton corrections per
  step, under an adaptive step length.  Its trace holds the start and every
  accepted step.

Each method is written once, over an (m, n) stack of starts: it advances the
starts still live together, one call of a family's stacked kernel
(``residual_batch``, ``residual_jacobian_batch``) per step, while every start
keeps its own point, status, iteration count, step length and trace.  A
live start's state sits in one place, its row of the ``_Live`` arrays, and
moves to the ``_Batch`` columns when it ends.  A row's arithmetic never
depends on the other rows, so a start ends exactly where it would alone;
``solve`` is the batch of one.

``multistart`` runs any of them over seeded starts as one batch, classifies
the converged points and deduplicates them.  Start vectors depend only on
(seed, start_id), so campaigns are reproducible at any batch size.

A ``SolverConfig`` holds what campaigns vary; the line search, the
conditioning guard, gradsq's gradient tolerances and the homotopy's step
control are the module constants below.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import time
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# classify stays importable from here, where bench/tracing.py wraps it
from .core import SolutionSet, _checked, _dots, _typed, classify, classify_batch, dedup

# Forcing term of the least-norm step that ``_linear_steps`` takes when the thin
# SVD of a square system has singular values below the condition guard: the
# step on the kept directions is taken only if its linear residual
# |J delta - rhs| / |rhs|, which is the share of rhs in the dropped
# directions, stays at or below this value (Dembo, Eisenstat & Steihaug,
# "Inexact Newton methods", SIAM J. Numer. Anal. 1982).  Coordinate
# singularities such as a Thomson charge at the pole (theta = pi) make the
# Jacobian numerically rank-deficient while the residual's share in the lost
# direction shrinks with the distance to the pole, so the step is still sound
# there.
LEAST_NORM_FORCING = 1e-4

# gradsq's Levenberg-Marquardt damping (More 1978): mu starts at MU0, becomes
# mu / 3 after a full step and 4 mu after a shorter one, never below MU_MIN.
MU0 = 1e-2
MU_MIN = 1e-20

# The line search shared by Newton and gradsq: the first step STEP0, times
# BACKTRACK per rung, never below MIN_STEP, and the sufficient-decrease factor
# DECREASE.  A BACKTRACK of 1 or more would never fall below MIN_STEP.
STEP0 = 1.0
BACKTRACK = 0.5
MIN_STEP = 1e-12
DECREASE = 1e-4

# ``_linear_steps`` keeps the singular values within COND_LIMIT of the largest.
COND_LIMIT = 1e12

# gradsq's spurious-minimum test: a gradient norm at most GRADSQ_ABS_GTOL, or
# at most GRADSQ_REL_GTOL times the local slope bound 2 |J| |f|.
GRADSQ_ABS_GTOL = 1e-9
GRADSQ_REL_GTOL = 1e-6

# The homotopy's step control: the first step DT0 in t, halved after a failed
# corrector and ending the start ``diverged`` below DT_MIN, grown by DT_GROW
# up to DT_MAX after a corrector that met the tolerance within EASY_ITERS of
# its CORRECTOR_ITERS Newton iterations.
DT0 = 0.05
DT_MIN = 1e-8
DT_MAX = 0.25
DT_GROW = 1.5
CORRECTOR_ITERS = 5
EASY_ITERS = 2


class Status(str, enum.Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERS = "max-iters"
    SPURIOUS_MINIMUM = "spurious-minimum"
    EVAL_ERROR = "eval-error"
    SINGULAR_STEP = "singular-step"


_DEFAULT_MAX_ITERS = {"newton": 100, "gradsq": 5000, "homotopy": 2000}


@dataclass(frozen=True)
class SolverConfig:
    method: str = "newton"
    accept_tol: float = 1e-10
    max_iters: int | None = None
    starts: int = 100
    seed: int = 0
    dedup_tol: float = 1e-6
    record_trace: bool = False

    def __post_init__(self):
        if self.method not in _DEFAULT_MAX_ITERS:
            raise ValueError(f"unknown method {self.method!r}, "
                             f"expected one of {sorted(_DEFAULT_MAX_ITERS)}")
        _checked(vars(self), {"starts": "a non-negative int", "seed": "a non-negative int",
                              "accept_tol": "finite and >= 0", "dedup_tol": "finite and >= 0",
                              "record_trace": "a bool"})
        if self.max_iters is not None:
            _typed([self.max_iters], "a non-negative int", "max_iters")


@dataclass
class SolveOutcome:
    status: Status
    point: np.ndarray
    residual_norm: float
    iterations: int
    trace: list | None = None


def _resolved(cfg):
    """``cfg``, or the default config, with its method's default ``max_iters`` filled in."""
    cfg = cfg or SolverConfig()
    if cfg.max_iters is None:
        cfg = dataclasses.replace(cfg, max_iters=_DEFAULT_MAX_ITERS[cfg.method])
    return cfg


def _residuals(instance, X):
    """Residuals at the rows of X, their norms, and the mask of rows whose
    evaluation raised or whose norm is not finite or overflows (norm inf)."""
    f, failed = instance.residual_batch(X)
    f = np.asarray(f, dtype=float)
    with np.errstate(over="ignore"):
        norm = np.sqrt(_dots(f, f))
    failed = failed | ~np.isfinite(norm)
    norm[failed] = np.inf
    return f, norm, failed


class _Live:
    """One entry per live start in each array attribute, kept aligned: ``idx``
    is the start's row in the batch, ``x`` its current point, ``norm`` its
    residual norm, and solvers add what else they carry from step to step."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def __len__(self):
        return len(self.idx)

    def keep(self, mask):
        for name, value in vars(self).items():
            setattr(self, name, value[mask])


_STATUSES = list(Status)  # a status code is its position here


class _Batch:
    """The starts of one batched solve: as columns each start's point
    ``x``, status code, iteration count and residual norm, and its trace.
    ``x`` holds the starts until ``end`` writes a start's end point there;
    until then the point moves in ``_Live.x``."""

    def __init__(self, instance, starts, cfg):
        self.x = instance.check_points(starts).copy()
        m = len(self.x)
        self.status = np.full(m, -1)  # until the start ends
        self.iterations, self.norm = np.zeros(m, dtype=int), np.zeros(m)
        self.traces = [[] for _ in self.x] if cfg.record_trace else None

    def live(self, norm, **arrays):
        return _Live(idx=np.arange(len(self.x)), x=self.x.copy(), norm=norm, **arrays)

    def record(self, live, steps, mask=None):
        """Append (step, point, norm) to the traces of the live starts, or
        of those selected by ``mask``."""
        if self.traces is None:
            return
        steps = np.broadcast_to(steps, live.idx.shape)
        for i in np.flatnonzero(mask) if mask is not None else range(len(live)):
            self.traces[live.idx[i]].append((int(steps[i]), live.x[i].copy(),
                                             float(live.norm[i])))

    def end(self, live, mask, status, steps):
        """End the live starts selected by ``mask`` at their points with
        ``status`` after ``steps`` iterations, and drop them from ``live``."""
        if not mask.any():
            return
        rows = live.idx[mask]
        self.x[rows] = live.x[mask]
        self.status[rows] = _STATUSES.index(status)
        self.iterations[rows] = np.broadcast_to(steps, mask.shape)[mask]
        self.norm[rows] = live.norm[mask]
        live.keep(~mask)

    def outcomes(self):
        """The per-start view: one SolveOutcome per start."""
        return list(map(SolveOutcome, [_STATUSES[c] for c in self.status.tolist()], self.x,
                        self.norm.tolist(), self.iterations.tolist(),
                        self.traces or [None] * len(self.x)))


def _inverses(jac):
    """Inverses of a stack of square matrices, and the mask of rows with
    cond_inf = |J|_inf |J^-1|_inf below COND_LIMIT / n.  Since
    cond_2 <= n cond_inf, every singular value of such a row passes the SVD
    guard.  A stacked ``inv`` fails as a whole on one exactly singular
    matrix; the stack is then bisected, so that only such a matrix fails."""
    m, n = len(jac), jac.shape[-1]
    try:
        inv = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        if m == 1:  # the matrix stands in for the inverse it has not
            return jac, np.zeros(1, dtype=bool)
        halves = _inverses(jac[:m // 2]), _inverses(jac[m // 2:])
        return tuple(np.concatenate(part) for part in zip(*halves))
    with np.errstate(over="ignore", invalid="ignore"):
        cond = np.abs(jac).sum(axis=2).max(axis=1) * np.abs(inv).sum(axis=2).max(axis=1)
    return inv, cond < COND_LIMIT / n


def _linear_steps(jac, rhs, mu=None):
    """Solve jac[i] @ delta[i] = rhs[i] for a stack of (k, n) systems, inverse
    first, SVD where the guard is in doubt; returns the steps and a mask of
    the rows that have one.  An undamped square row that passes the test of
    ``_inverses`` takes inv @ rhs; the other rows share one stacked thin SVD.
    Given a damping ``mu[i]`` per row, every finite row has a step, the
    Levenberg-Marquardt one V diag(s / (s^2 + mu)) U^T rhs.

    The SVD J = U diag(s) V^T gives both the conditioning guard and the step:
    singular values with s > 0 and s >= s[0] / COND_LIMIT are kept, and the
    step is V diag(1 / s) U^T rhs on the kept directions.  A row whose
    singular values are all kept has a step; for k > n it is the
    least-squares one.  A square row that drops some has the least-norm step
    when the share of ``rhs`` in the dropped directions, which is the step's
    linear residual |jac @ delta - rhs| / |rhs|, is at most
    ``LEAST_NORM_FORCING``.  Other rows have no step: underdetermined (k < n)
    and rank-deficient rectangular systems, and systems that are not finite.
    Each row's arithmetic is that of a lone system."""
    jac = np.asarray(jac, dtype=float)
    if jac.ndim != 3:
        raise ValueError(f"jacobians must be a 3-d stack, got {jac.ndim}-d")
    m, k, n = jac.shape
    delta, ok = np.zeros((m, n)), np.zeros(m, dtype=bool)
    rows = np.flatnonzero(np.isfinite(jac).all(axis=(1, 2)))
    if mu is None and k == n:
        inv, good = _inverses(jac[rows])
        delta[rows[good]] = (inv[good] @ rhs[rows[good]][:, :, None])[:, :, 0]
        ok[rows[good]] = True
        rows = rows[~good]
        if not len(rows):
            return delta, ok
    b = rhs[rows]
    u, s, vt = np.linalg.svd(jac[rows], full_matrices=False)
    keep = (s > 0.0) & (s >= s[:, :1] / COND_LIMIT)
    proj = (b[:, None, :] @ u)[:, 0, :]
    coef = np.divide(proj, s, out=np.zeros_like(proj), where=keep)
    if mu is not None:  # Levenberg-Marquardt: every finite row has a step
        has, coef = slice(None), proj * s / (s * s + mu[rows][:, None])
    elif k == n:
        dropped = np.where(keep, 0.0, proj)
        has = ~(np.sqrt(_dots(dropped, dropped)) > LEAST_NORM_FORCING * np.sqrt(_dots(b, b)))
    else:
        has = keep.all(axis=1) & (k > n)
    delta[rows[has]] = (coef[has][:, None, :] @ vt[has])[:, 0, :]
    ok[rows[has]] = True
    return delta, ok


# Rungs that ``_line_search`` tries per row once its first rung has failed.
# Most searches end on the first rung, so it is tried alone.  Its share over the
# bench workloads at seed 0: Newton 0.77 (clusters) to 0.99 (XY ring); gradsq
# on disordered XY (d=2, L=3) 0.78 at 25 starts and 0.74 at 500, nearly all
# the rest on rungs 1-3.  A whole-ladder first round was rejected, with
# gradsq's earlier gradient step: 0.69x the time of that 25-start campaign but
# 1.39x at 500 starts, where 8x the rows swamp the kernel.
LADDER_RUNGS = 8


def _line_search(instance, live, direction, step, sufficient):
    """Backtrack along ``direction`` from each live row's point ``live.x``
    with first step ``step``; move the rows where ``sufficient(norm, steps,
    rows)`` holds for a rung's residual norm, updating their ``x``, ``f``
    and ``norm`` in ``live``, and return the step each row took (0 where it
    did not move): the first acceptable rung of step, step * BACKTRACK, ... down to
    ``MIN_STEP``, as a one-at-a-time search would.  Each round is one
    dense (rows, rungs) block in one call: one rung per row, then
    ``LADDER_RUNGS``.  A block's rungs below ``MIN_STEP`` are evaluated but
    never taken: the ladder only falls, so a one-at-a-time search stops
    before them."""
    taken = np.zeros(len(live))
    go_on = step >= MIN_STEP
    rows, step = go_on.nonzero()[0], step[go_on]
    n, rungs = direction.shape[1], 1
    while rows.size:
        m = len(rows)
        ladder = np.full((m, rungs), BACKTRACK)
        ladder[:, 0] = step
        ladder = np.multiply.accumulate(ladder, axis=1)  # the bits of repeated *=
        cand = (live.x[rows][:, None, :]
                + ladder[:, :, None] * direction[rows][:, None, :]).reshape(m * rungs, n)
        f, norm, _ = _residuals(instance, cand)
        accept = ((ladder >= MIN_STEP)
                  & sufficient(norm.reshape(m, rungs), ladder, rows[:, None]))
        hit = accept.any(axis=1)
        took = rows[hit]
        if took.size:
            pick = hit.nonzero()[0] * rungs + accept[hit].argmax(axis=1)
            live.x[took] = cand[pick]
            live.f[took], live.norm[took] = f[pick], norm[pick]
            taken[took] = ladder.ravel()[pick]
        step = ladder[:, -1] * BACKTRACK
        go_on = ~hit & (step >= MIN_STEP)
        rows, step = rows[go_on], step[go_on]
        rungs = LADDER_RUNGS
    return taken


def _newton_batch(instance, starts, cfg):
    b = _Batch(instance, starts, cfg)
    f, norm, failed = _residuals(instance, b.x)
    live = b.live(norm, f=f)
    b.end(live, failed, Status.EVAL_ERROR, 0)
    for it in range(cfg.max_iters + 1):
        b.record(live, it)
        b.end(live, live.norm <= cfg.accept_tol, Status.CONVERGED, it)
        if it == cfg.max_iters:
            b.end(live, np.ones(len(live), dtype=bool), Status.MAX_ITERS, it)
        if not len(live):
            break
        jac, failed = instance.residual_jacobian_batch(live.x)
        live.delta, ok = _linear_steps(jac, -live.f)
        b.end(live, failed, Status.EVAL_ERROR, it)
        b.end(live, ~ok[~failed], Status.SINGULAR_STEP, it)
        norm0 = live.norm.copy()
        taken = _line_search(instance, live, live.delta, np.full(len(live), STEP0),
                             lambda norm, s, r: norm <= (1.0 - DECREASE * s) * norm0[r])
        b.end(live, taken == 0, Status.DIVERGED, it)
    return b


def _gradsq_batch(instance, starts, cfg):
    b = _Batch(instance, starts, cfg)
    f, norm, failed = _residuals(instance, b.x)
    live = b.live(norm, f=f, mu=np.full_like(norm, MU0))
    b.end(live, failed, Status.EVAL_ERROR, 0)
    def flat(a, r):  # the spurious-minimum test, gradient tolerances times a and r
        return (((live.gnorm <= a * GRADSQ_ABS_GTOL)
                 | (live.gnorm <= r * GRADSQ_REL_GTOL * 2.0 * live.jnorm * live.norm))
                & (live.norm > 100.0 * cfg.accept_tol))
    for it in range(cfg.max_iters + 1):
        b.record(live, it)
        b.end(live, live.norm <= cfg.accept_tol, Status.CONVERGED, it)
        live.jac, failed = instance.residual_jacobian_batch(live.x)
        b.end(live, failed, Status.EVAL_ERROR, it)
        if not len(live):
            break
        live.grad = ((2.0 * live.jac.transpose(0, 2, 1)) @ live.f[:, :, None])[:, :, 0]
        live.gnorm = np.sqrt(_dots(live.grad, live.grad))
        live.jnorm = np.sqrt(np.sum(live.jac * live.jac, axis=(1, 2)))
        b.end(live, flat(1.0, 1.0), Status.SPURIOUS_MINIMUM, it)
        if it == cfg.max_iters:
            b.end(live, np.ones(len(live), dtype=bool), Status.MAX_ITERS, it)
        live.delta, ok = _linear_steps(live.jac, -live.f, live.mu)
        b.end(live, ~ok, Status.SINGULAR_STEP, it)
        # Armijo on W along delta: W(x + s delta) <= W + d s grad . delta
        w, slope = live.norm * live.norm, _dots(live.grad, live.delta)
        taken = _line_search(instance, live, live.delta, np.full(len(live), STEP0),
                             lambda norm, s, r: norm * norm <= w[r] + DECREASE * s * slope[r])
        live.mu = np.maximum(np.where(taken == STEP0, live.mu / 3.0, 4.0 * live.mu), MU_MIN)
        # where W cannot fall at floating-point resolution, relaxed thresholds
        # tell a spurious minimum from plain divergence
        spurious = (taken == 0) & flat(1e4, 1e2)
        b.end(live, spurious, Status.SPURIOUS_MINIMUM, it)
        b.end(live, taken[~spurious] == 0, Status.DIVERGED, it)
    return b


def _homotopy_batch(instance, starts, cfg):
    tol = cfg.accept_tol
    b = _Batch(instance, starts, cfg)
    m = len(b.x)
    f0, norm, failed = _residuals(instance, b.x)
    live = b.live(norm, f0=f0, t=np.zeros(m), dt=np.full(m, DT0), steps=np.zeros(m, dtype=int))
    b.end(live, failed, Status.EVAL_ERROR, 0)
    b.record(live, 0)
    b.end(live, live.norm <= tol, Status.CONVERGED, 0)
    while len(live):
        b.end(live, live.steps >= cfg.max_iters, Status.MAX_ITERS, live.steps)
        # the velocity at x solves J(x) v = -f0
        jac, failed = instance.residual_jacobian_batch(live.x)
        live.velocity, ok = _linear_steps(jac, -live.f0)
        b.end(live, failed, Status.EVAL_ERROR, live.steps)
        b.end(live, ~ok[~failed], Status.SINGULAR_STEP, live.steps)
        dt_eff = np.minimum(live.dt, 1.0 - live.t)
        t_new = live.t + dt_eff
        cur = live.x + dt_eff[:, None] * live.velocity
        used, cur_norm = _correct(instance, cur, (1.0 - t_new)[:, None] * live.f0, tol)
        took = used >= 0
        live.x[took], live.norm[took], live.t[took] = cur[took], cur_norm[took], t_new[took]
        live.steps[took] += 1
        b.record(live, live.steps, took)
        easy = took & (used <= EASY_ITERS)
        live.dt[easy] = np.minimum(live.dt * DT_GROW, DT_MAX)[easy]
        live.dt[~took] *= 0.5
        b.end(live, ~took & (live.dt < DT_MIN), Status.DIVERGED, live.steps)
        done = live.t >= 1.0
        b.end(live, done & (live.norm <= tol), Status.CONVERGED, live.steps)
        b.end(live, live.t >= 1.0, Status.DIVERGED, live.steps)
    return b


def _correct(instance, cur, shift, tol):
    """Newton corrector on f(x) - shift from the predicted points ``cur``,
    updated in place.  Returns per row the iteration at which it met the
    tolerance (-1 if it failed) and the residual norm there."""
    used = np.full(len(cur), -1)
    cur_norm = np.zeros(len(cur))
    active = np.arange(len(cur))
    for k in range(CORRECTOR_ITERS + 1):
        f, norm, failed = _residuals(instance, cur[active])
        h = f - shift[active]
        met = ~failed & (np.sqrt(_dots(h, h)) <= tol)
        used[active[met]] = k
        cur_norm[active[met]] = norm[met]
        go_on = ~failed & ~met
        active, h = active[go_on], h[go_on]
        if k == CORRECTOR_ITERS or not active.size:
            break
        jac, failed = instance.residual_jacobian_batch(cur[active])
        dc, ok = _linear_steps(jac, -h)
        ok &= ~failed
        active = active[ok]
        cur[active] = cur[active] + dc[ok]
    return used, cur_norm


_METHODS = {"newton": _newton_batch, "gradsq": _gradsq_batch, "homotopy": _homotopy_batch}


def solve(instance, start, cfg=None):
    """Run ``cfg.method`` (Newton by default) from the one point ``start``:
    the batch of one."""
    cfg = _resolved(cfg)
    return _METHODS[cfg.method](instance, instance.check_point(start)[None], cfg).outcomes()[0]


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
    starts: np.ndarray


@functools.cache
def _hash_chain(init, mult, calls):
    """The constants of ``calls`` successive SeedSequence hash calls, as a
    read-only (calls + 1, 1) uint32 column: call k xors with entry k, then
    multiplies by entry k + 1."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    chain = np.array(chain, dtype=np.uint32)[:, None]
    chain.flags.writeable = False
    return chain


def _hashmix(v, chain):
    """SeedSequence's hashmix of ``v`` under the successive calls of ``chain``."""
    v = (v ^ chain[:-1]) * chain[1:]
    return v ^ v >> 16


def _seed_states(seed, count):
    """``np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)`` for
    every start id i < ``count``, as a (count, 4) array: numpy's SeedSequence
    hash with a pool of 4 words, run once over uint32 arrays with a column
    per start, whose arithmetic wraps as the hash's does."""
    # the entropy is the little-endian 32-bit words of seed (0 is one word), then i
    seed = int(seed)
    words = max(1, (seed.bit_length() + 31) // 32)
    rows = max(words + 1, 4)
    entropy = np.zeros((rows, count), dtype=np.uint32)
    entropy[:words] = [[seed >> 32 * k & 0xFFFFFFFF] for k in range(words)]
    entropy[words] = np.arange(count)
    chain = _hash_chain(0x43b0d7e5, 0x931e8875, 4 * rows)
    pool, k = _hashmix(entropy[:4], chain[:5]), 4
    # each pool word, then each entropy word past the pool, mixes into the other pool words
    for src in range(rows):
        dst = [d for d in range(4) if d != src]
        v = _hashmix(pool[src] if src < 4 else entropy[src], chain[k:k + len(dst) + 1])
        v = np.uint32(0xca01f9dd) * pool[dst] - np.uint32(0x4973f715) * v
        pool[dst], k = v ^ v >> 16, k + len(dst)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_chain(0x8b51f9dd, 0x58f38ded, 8))
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _State(ISeedSequence):
    """A seed sequence whose state is already generated."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def draw_starts(instance, cfg):
    """The campaign's start points, an (m, n) stack.  Start i comes from its
    own generator, the one ``np.random.default_rng((seed, i))`` gives, so
    point i is the same no matter how many starts run or in which order."""
    return instance.sample_start_batch([np.random.Generator(np.random.PCG64(_State(words)))
                                        for words in _seed_states(cfg.seed, cfg.starts)])


def multistart(instance, cfg=None, starts=None):
    """Run one solver from many starts as one batch, classify and deduplicate.

    ``starts`` overrides the seeded sample with explicit points, each checked
    by ``check_point``.  Converged endpoints whose classification fails to
    evaluate count as eval errors; max-iters and singular-step endpoints
    count as diverged in the tally (the per-start outcomes keep the
    distinction).
    """
    cfg = _resolved(cfg)
    if starts is None:
        starts = draw_starts(instance, cfg)
    else:
        starts = np.array([instance.check_point(s) for s in starts],
                          dtype=float).reshape(len(starts), instance.n)

    began = time.perf_counter()
    batch = _METHODS[cfg.method](instance, starts, cfg)
    wall = time.perf_counter() - began

    ends = np.flatnonzero(batch.status == _STATUSES.index(Status.CONVERGED))
    found, errors = classify_batch(instance, batch.x[ends], cfg.method, cfg.seed, ends)
    solutions = dedup(found, tol=cfg.dedup_tol, metric=instance.dedup_metric)
    tally = np.bincount(batch.status, minlength=len(_STATUSES)).tolist()
    spurious = tally[_STATUSES.index(Status.SPURIOUS_MINIMUM)]
    failed = tally[_STATUSES.index(Status.EVAL_ERROR)]
    stats = CampaignStats(starts=len(starts), converged=len(found),
                          diverged=len(starts) - len(ends) - spurious - failed,
                          spurious=spurious, eval_errors=failed + len(errors),
                          wall_time=wall)
    return MultistartResult(solutions, stats, batch.outcomes(), starts)
