"""Root finders and the seeded multistart driver.

Three methods share one outcome type:

* ``newton_solve``: damped Newton on the residual, backtracking on the
  residual norm.  Each linear step comes from one thin SVD of the Jacobian,
  which also gives the condition-number guard: the step lives on the
  singular directions within ``cond_limit`` of the largest.  A square
  system that drops some of them still gets the least-norm step, provided
  the right-hand side barely reaches the dropped ones (an inexact-Newton
  step, see ``LEAST_NORM_FORCING``); a rectangular one must keep them all,
  and gets the least-squares step.  Otherwise the start ends
  ``singular-step``.  Quadratic near regular roots, and the workhorse
  everywhere.
* ``gradsq_solve``: descent on the scalar landscape W = |f|^2 along its exact
  gradient 2 J^T f, backtracking on W from a secant step through the one
  line search it shares with Newton, ``_line_search``.  It cannot jump over
  barriers, which is the point: it gets stuck in minima of W that are not
  roots, and reports them as ``spurious-minimum`` instead of pretending.
* ``homotopy_track``: Newton homotopy from the start point, deforming
  f(x) - (1 - t) f(x0) from a trivially solved system at t=0 to the real one
  at t=1 with an Euler predictor and a short Newton corrector, under an
  adaptive step length.

Each method is written once, over an (m, n) stack of starts: it advances the
starts still live together, one call of a family's stacked kernel
(``residual_batch``, ``residual_jacobian_batch``) per step, while every start
keeps its own status, iteration count, step length and trace.  A row's
arithmetic never depends on the other rows, so a start ends exactly where it
would alone; the per-start functions are the batch of one.

``multistart`` runs any of them over seeded starts, classifies the converged
points and deduplicates them.  Start vectors depend only on (seed, start_id),
so campaigns are reproducible at any batch size.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# classify stays importable from here, where bench/tracing.py wraps it
from .core import SolutionSet, _dots, _require, classify, classify_batch, dedup

THREADS_ENV = "SPBENCH_THREADS"

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

    def __post_init__(self):
        # a backtrack factor of 1 or more never takes the step below min_step
        _require(self, initial="finite and > 0", backtrack="in (0, 1)",
                 min_step="finite and > 0", decrease="finite")


@dataclass(frozen=True)
class HomotopySchedule:
    """Adaptive step control for ``homotopy_track``."""

    dt_initial: float = 0.05
    dt_min: float = 1e-8
    dt_max: float = 0.25
    grow: float = 1.5
    corrector_iters: int = 5
    easy_iters: int = 2

    def __post_init__(self):
        _require(self, dt_initial="finite and > 0", dt_min="finite and > 0",
                 dt_max="finite and > 0", grow="finite",
                 corrector_iters="a non-negative int", easy_iters="a non-negative int")


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
        _require(self, starts="a non-negative int", seed="a non-negative int",
                 accept_tol="finite and >= 0", dedup_tol="finite and >= 0", cond_limit=">= 1",
                 start_box="None or finite (lo, hi) with lo < hi")
        if self.max_iters is not None:
            _require(self, max_iters="a non-negative int")


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


def _residuals(instance, X):
    """Residuals at the rows of X, their norms, and the mask of rows whose
    evaluation raised or whose norm is not finite (norm inf)."""
    f, failed = instance.residual_batch(X)
    f = np.asarray(f, dtype=float)
    norm = np.sqrt(_dots(f, f))
    failed = failed | ~np.isfinite(norm)
    norm[failed] = np.inf
    return f, norm, failed


class _Live:
    """One entry per live start in each array attribute, kept aligned: ``idx``
    is the start's row in the batch, ``norm`` its residual norm, and solvers
    add what else they carry per start."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def __len__(self):
        return len(self.idx)

    def keep(self, mask):
        for name, value in vars(self).items():
            setattr(self, name, value[mask])


_STATUSES = list(Status)  # a status code is its position here


class _Batch:
    """The starts of one batched solve: their current points ``x``, and as
    columns each start's status code, iteration count and residual norm,
    which ``end`` writes, and its trace.  A start that has ended never moves
    again, so its row of ``x`` is its end point."""

    def __init__(self, instance, starts, cfg):
        self.x = instance.check_points(starts).copy()
        m = len(self.x)
        self.status = np.full(m, -1)  # until the start ends
        self.iterations, self.norm = np.zeros(m, dtype=int), np.zeros(m)
        self.traces = [[] for _ in self.x] if cfg.record_trace else None

    def live(self, norm, **arrays):
        return _Live(idx=np.arange(len(self.x)), norm=norm, **arrays)

    def record(self, live, steps, mask=None):
        """Append (step, point, norm) to the traces of the live starts, or
        of those selected by ``mask``."""
        if self.traces is None:
            return
        steps = np.broadcast_to(steps, live.idx.shape)
        for i in np.flatnonzero(mask) if mask is not None else range(len(live)):
            r = live.idx[i]
            self.traces[r].append((int(steps[i]), self.x[r].copy(), float(live.norm[i])))

    def end(self, live, mask, status, steps):
        """End the live starts selected by ``mask`` with ``status`` after
        ``steps`` iterations, and drop them from ``live``."""
        if not mask.any():
            return
        rows = live.idx[mask]
        self.status[rows] = _STATUSES.index(status)
        self.iterations[rows] = np.broadcast_to(steps, mask.shape)[mask]
        self.norm[rows] = live.norm[mask]
        live.keep(~mask)

    def outcomes(self):
        """The per-start view: one SolveOutcome per start."""
        return list(map(SolveOutcome, [_STATUSES[c] for c in self.status.tolist()], self.x,
                        self.norm.tolist(), self.iterations.tolist(),
                        self.traces or [None] * len(self.x)))


def _linear_steps(jac, rhs, cond_limit):
    """Solve jac[i] @ delta[i] = rhs[i] for a stack of (k, n) systems with one
    stacked thin SVD; returns the steps and a mask of the rows that have one.

    The SVD J = U diag(s) V^T gives both the conditioning guard and the step:
    singular values with s > 0 and s >= s[0] / cond_limit are kept, and the
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
    delta = np.zeros((m, n))
    ok = np.zeros(m, dtype=bool)
    rows = np.flatnonzero(np.isfinite(jac).all(axis=(1, 2)))
    b = rhs[rows]
    u, s, vt = np.linalg.svd(jac[rows], full_matrices=False)
    keep = (s > 0.0) & (s >= s[:, :1] / cond_limit)
    proj = (b[:, None, :] @ u)[:, 0, :]
    if k == n:
        dropped = np.where(keep, 0.0, proj)
        has = ~(np.sqrt(_dots(dropped, dropped)) > LEAST_NORM_FORCING * np.sqrt(_dots(b, b)))
    else:
        has = keep.all(axis=1) & (k > n)
    coef = np.divide(proj, s, out=np.zeros_like(proj), where=keep)
    delta[rows[has]] = (coef[has][:, None, :] @ vt[has])[:, 0, :]
    ok[rows[has]] = True
    return delta, ok


# Rungs that ``_line_search`` tries per row once its first rung has failed.
# Most searches end on the first rung, so it is tried alone.  Its share over the
# bench workloads at seed 0: Newton 0.77 (clusters) to 0.99 (XY ring); gradsq
# on disordered XY (d=2, L=3) 0.69, with 0.28 on rungs 1-7 and 0.03 later.  A
# whole-ladder first round was rejected: 0.69x the time of that 25-start
# campaign but 1.39x at 500 starts, where 8x the rows swamp the kernel, and a
# row backtracks after a backtrack (0.32) about as often as after none (0.31).
LADDER_RUNGS = 8


def _line_search(instance, b, live, direction, step, sufficient, damping):
    """Backtrack along ``direction`` from each live row's first step ``step``;
    move the rows where ``sufficient(norm, steps, rows)`` holds for a rung's
    residual norm, and return which did.  A row takes the first acceptable
    rung of step, step * backtrack, ... down to ``damping.min_step``, as a
    one-at-a-time search would.  Each round is one dense (rows, rungs) block
    in one call: one rung per row, then ``LADDER_RUNGS``.  A block's rungs
    below ``min_step`` are evaluated but never taken: the ladder only falls,
    so a one-at-a-time search stops before them."""
    moved = np.zeros(len(live), dtype=bool)
    go_on = step >= damping.min_step
    rows, step = go_on.nonzero()[0], step[go_on]
    n, rungs = direction.shape[1], 1
    while rows.size:
        m = len(rows)
        ladder = np.full((m, rungs), damping.backtrack)
        ladder[:, 0] = step
        ladder = np.multiply.accumulate(ladder, axis=1)  # the bits of repeated *=
        cand = (b.x[live.idx[rows]][:, None, :]
                + ladder[:, :, None] * direction[rows][:, None, :]).reshape(m * rungs, n)
        f, norm, _ = _residuals(instance, cand)
        accept = ((ladder >= damping.min_step)
                  & sufficient(norm.reshape(m, rungs), ladder, rows[:, None]))
        hit = accept.any(axis=1)
        took = rows[hit]
        if took.size:
            pick = hit.nonzero()[0] * rungs + accept[hit].argmax(axis=1)
            b.x[live.idx[took]] = cand[pick]
            live.f[took], live.norm[took] = f[pick], norm[pick]
            moved[took] = True
        step = ladder[:, -1] * damping.backtrack
        go_on = ~hit & (step >= damping.min_step)
        rows, step = rows[go_on], step[go_on]
        rungs = LADDER_RUNGS
    return moved


def _solve_one(batch, instance, start, cfg, method):
    """A per-start call: the batch of one."""
    start = instance.check_point(np.array(start, dtype=float))
    return batch(instance, start[None], _resolved(cfg, method)).outcomes()[0]


def newton_solve(instance, start, cfg=None):
    """Damped Newton iteration on the residual from one start point."""
    return _solve_one(_newton_batch, instance, start, cfg, "newton")


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
        live.jac, failed = instance.residual_jacobian_batch(b.x[live.idx])
        b.end(live, failed, Status.EVAL_ERROR, it)
        live.delta, ok = _linear_steps(live.jac, -live.f, cfg.cond_limit)
        b.end(live, ~ok, Status.SINGULAR_STEP, it)
        norm0, damping = live.norm.copy(), cfg.damping
        moved = _line_search(instance, b, live, live.delta, np.full(len(live), damping.initial),
                             lambda norm, s, r: norm <= (1.0 - damping.decrease * s) * norm0[r],
                             damping)
        b.end(live, ~moved, Status.DIVERGED, it)
    return b


def gradsq_solve(instance, start, cfg=None):
    """Descent on W = |f|^2 with exact gradient and backtracking.

    Stops as ``converged`` only when the residual itself is small; a small
    gradient with a large residual is reported as ``spurious-minimum``.  The
    gradient test has a scale-free branch (gradient small against the local
    slope bound 2 |J| |f|) and an absolute branch for landscapes whose
    Jacobian degenerates at the spurious point.  Step lengths start from a
    secant estimate so narrow valleys do not stall the iteration.
    """
    return _solve_one(_gradsq_batch, instance, start, cfg, "gradsq")


def _gradsq_batch(instance, starts, cfg):
    b = _Batch(instance, starts, cfg)
    f, norm, failed = _residuals(instance, b.x)
    live = b.live(norm, f=f)
    b.end(live, failed, Status.EVAL_ERROR, 0)
    tol = cfg.accept_tol
    for it in range(cfg.max_iters + 1):
        b.record(live, it)
        b.end(live, live.norm <= tol, Status.CONVERGED, it)
        live.jac, failed = instance.residual_jacobian_batch(b.x[live.idx])
        b.end(live, failed, Status.EVAL_ERROR, it)
        if not len(live):
            break
        live.grad = ((2.0 * live.jac.transpose(0, 2, 1)) @ live.f[:, :, None])[:, :, 0]
        live.gnorm = np.sqrt(_dots(live.grad, live.grad))
        live.jnorm = np.sqrt(np.sum(live.jac * live.jac, axis=(1, 2)))
        small_grad = ((live.gnorm <= cfg.gradsq_abs_gtol)
                      | (live.gnorm <= cfg.gradsq_rel_gtol * 2.0 * live.jnorm * live.norm))
        b.end(live, small_grad & (live.norm > 100.0 * tol), Status.SPURIOUS_MINIMUM, it)
        if it == cfg.max_iters:
            b.end(live, np.ones(len(live), dtype=bool), Status.MAX_ITERS, it)
        # the scalar rules max(1, g), max(s, 1e-12) and min(s, 1e6), nan included
        step = 1.0 / np.where(live.gnorm > 1.0, live.gnorm, 1.0)
        x = b.x[live.idx]
        if it > 0:  # every live row moved at every earlier iteration
            ds = x - live.prev_x
            curv = _dots(ds, live.grad - live.prev_g)
            np.divide(_dots(ds, ds), curv, out=step, where=curv > 0.0)
        step = np.clip(step, 1e-12, 1e6)
        live.prev_x = x
        w, d = live.norm * live.norm, cfg.damping.decrease
        moved = _line_search(
            instance, b, live, -live.grad, step,
            lambda norm, s, r: norm * norm <= w[r] - d * s * live.gnorm[r] * live.gnorm[r],
            cfg.damping)
        if not moved.all():
            # W can no longer fall at floating-point resolution: relaxed
            # thresholds tell a spurious minimum from plain divergence
            floor = ((live.gnorm <= 1e4 * cfg.gradsq_abs_gtol)
                     | (live.gnorm <= 1e2 * cfg.gradsq_rel_gtol * 2.0 * live.jnorm * live.norm))
            spurious = ~moved & floor & (live.norm > 100.0 * tol)
            b.end(live, spurious, Status.SPURIOUS_MINIMUM, it)
            b.end(live, ~moved[~spurious], Status.DIVERGED, it)
        live.prev_g = live.grad
    return b


def homotopy_track(instance, start, cfg=None):
    """Newton homotopy from ``start``: follow the zero set of
    f(x) - (1 - t) f(x0) from t=0 to t=1 with Euler prediction and a few
    Newton corrections per step.  The trace holds the start and every
    accepted step."""
    return _solve_one(_homotopy_batch, instance, start, cfg, "homotopy")


def _homotopy_batch(instance, starts, cfg):
    sched = cfg.homotopy
    tol = cfg.accept_tol
    b = _Batch(instance, starts, cfg)
    m = len(b.x)
    f0, norm, failed = _residuals(instance, b.x)
    # the velocity at x solves J(x) v = -f0 and stays valid until x moves
    live = b.live(norm, f0=f0, t=np.zeros(m), dt=np.full(m, sched.dt_initial),
                  steps=np.zeros(m, dtype=int), velocity=np.zeros_like(b.x),
                  fresh=np.zeros(m, dtype=bool))
    b.end(live, failed, Status.EVAL_ERROR, 0)
    b.record(live, 0)
    b.end(live, live.norm <= tol, Status.CONVERGED, 0)
    while len(live):
        b.end(live, live.steps >= cfg.max_iters, Status.MAX_ITERS, live.steps)
        need = np.flatnonzero(~live.fresh)
        if need.size:
            jac, failed = instance.residual_jacobian_batch(b.x[live.idx[need]])
            velocity, ok = _linear_steps(jac, -live.f0[need], cfg.cond_limit)
            live.velocity[need], live.fresh[need] = velocity, True
            error = np.zeros(len(live), dtype=bool)
            error[need[failed]] = True
            singular = np.zeros(len(live), dtype=bool)
            singular[need[~ok]] = True
            b.end(live, error, Status.EVAL_ERROR, live.steps)
            b.end(live, singular[~error], Status.SINGULAR_STEP, live.steps)
        dt_eff = np.where(1.0 - live.t < live.dt, 1.0 - live.t, live.dt)
        live.t_new = live.t + dt_eff
        live.cur = b.x[live.idx] + dt_eff[:, None] * live.velocity
        live.used, live.cur_norm = _correct(instance, live, cfg)
        failed = live.used < 0
        live.dt[failed] *= 0.5
        b.end(live, failed & (live.dt < sched.dt_min), Status.DIVERGED, live.steps)
        took = live.used >= 0
        b.x[live.idx[took]] = live.cur[took]
        live.norm[took], live.t[took] = live.cur_norm[took], live.t_new[took]
        live.steps[took] += 1
        live.fresh[took] = False
        b.record(live, live.steps, took)
        grown = live.dt * sched.grow
        easy = took & (live.used <= sched.easy_iters)
        live.dt[easy] = np.where(sched.dt_max < grown, sched.dt_max, grown)[easy]
        done = live.t >= 1.0
        b.end(live, done & (live.norm <= tol), Status.CONVERGED, live.steps)
        b.end(live, live.t >= 1.0, Status.DIVERGED, live.steps)
    return b


def _correct(instance, live, cfg):
    """Newton corrector on f(x) - (1 - t_new) f0 from the predicted points
    ``live.cur``, updated in place.  Returns per row the iteration at which
    it met the tolerance (-1 if it failed) and the residual norm there."""
    used = np.full(len(live), -1)
    cur_norm = np.zeros(len(live))
    active = np.arange(len(live))
    for k in range(cfg.homotopy.corrector_iters + 1):
        f, norm, failed = _residuals(instance, live.cur[active])
        h = f - (1.0 - live.t_new[active])[:, None] * live.f0[active]
        met = ~failed & (np.sqrt(_dots(h, h)) <= cfg.accept_tol)
        used[active[met]] = k
        cur_norm[active[met]] = norm[met]
        go_on = ~failed & ~met
        active, h = active[go_on], h[go_on]
        if k == cfg.homotopy.corrector_iters or not active.size:
            break
        jac, failed = instance.residual_jacobian_batch(live.cur[active])
        dc, ok = _linear_steps(jac, -h, cfg.cond_limit)
        ok &= ~failed
        active = active[ok]
        live.cur[active] = live.cur[active] + dc[ok]
    return used, cur_norm


_METHODS = {"newton": _newton_batch, "gradsq": _gradsq_batch, "homotopy": _homotopy_batch}


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
    """How many batches multistart splits its starts into: the
    SPBENCH_THREADS variable if set, else 1.  The batches run one after
    another on the calling thread, and a campaign's results do not depend on
    their number; fewer, larger batches spend less interpreter time per
    start."""
    env = os.environ.get(THREADS_ENV, "1")
    try:
        if int(env) >= 1:
            return int(env)
    except ValueError:
        pass
    raise ValueError(f"{THREADS_ENV} must be an integer >= 1, got {env!r}")


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
    """The campaign's start points.  Start i comes from its own generator,
    the one ``np.random.default_rng((seed, i))`` gives, so point i is the
    same no matter how many starts run or in which order."""
    rngs = [np.random.Generator(np.random.PCG64(_State(words)))
            for words in _seed_states(cfg.seed, cfg.starts)]
    if cfg.start_box is not None:
        return [rng.uniform(*cfg.start_box, instance.n) for rng in rngs]
    return list(instance.sample_start_batch(rngs))


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
    stack = np.array(starts, dtype=float) if starts else np.empty((0, instance.n))
    batches = [solver(instance, chunk, cfg)
               for chunk in np.array_split(stack, max(1, min(worker_count(), len(stack))))]
    wall = time.perf_counter() - began

    status = np.concatenate([b.status for b in batches])
    ends = np.flatnonzero(status == _STATUSES.index(Status.CONVERGED))
    points = np.concatenate([b.x for b in batches])[ends]
    found, errors = classify_batch(instance, points, cfg.method, cfg.seed, ends)
    solutions = dedup(found, tol=cfg.dedup_tol, metric=instance.dedup_metric)
    tally = np.bincount(status, minlength=len(_STATUSES)).tolist()
    spurious = tally[_STATUSES.index(Status.SPURIOUS_MINIMUM)]
    failed = tally[_STATUSES.index(Status.EVAL_ERROR)]
    stats = CampaignStats(starts=len(starts), converged=len(found),
                          diverged=len(starts) - len(ends) - spurious - failed,
                          spurious=spurious, eval_errors=failed + len(errors),
                          wall_time=wall)
    return MultistartResult(solutions, stats, [o for b in batches for o in b.outcomes()], starts)
