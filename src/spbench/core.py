"""Shared vocabulary for the benchmark: problem instances, stationary-point
classification and windowed duplicate removal.

Every problem family subclasses ProblemInstance and writes its energy, its
residual and its Jacobian once, as kernels over an (m, n) stack of points
that return one array, a row that could not be evaluated not finite; every
per-point evaluation is their batch of one.  Gradient families (the
lattice and cluster models) expose the objective as ``energy`` and the
system to solve is its gradient.  Root-finding families (game and puzzle
systems) subclass RootSystem: the residual is their polynomial system, and
its squared norm is their ``energy`` so that descent methods and
classification have a scalar landscape to work with.
Classification reads each family's own ``hessian_batch``; the tests hold
every family's derivatives to central differences.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

EUCLIDEAN = "euclidean"
ANGULAR_MOD_2PI = "angular-mod-2pi"

_METRICS = (EUCLIDEAN, ANGULAR_MOD_2PI)

# an eigenvalue of a classified Hessian counts as zero when its magnitude is
# at most ZERO_TOL * (1 + max |eigenvalue|)
ZERO_TOL = 1e-6


class EvaluationError(RuntimeError):
    """An energy/residual evaluation failed (coincident particles, overflow)."""


class ProblemInstance:
    """Base class for a concrete problem with a fixed parameter set.

    Subclasses set ``family`` and implement the kernels ``energy_batch``,
    ``residual_batch`` and ``residual_jacobian_batch``.  A family built
    from plain values states its parameters once, in ``_PARAMS``; others
    override ``params`` and ``from_params``.
    The per-point ``energy``, ``residual``, ``residual_jacobian`` and
    ``sample_start`` are the batch of one, and the first three raise
    EvaluationError where the kernel's row is not finite; for the gradient
    families the residual is also the ``gradient`` and, as
    ``hessian_batch``, its Jacobian the ``hessian``.  Starts are drawn
    uniformly from the region ``_draw_lo + _draw_span u``, u in [0, 1)^n,
    whose bounds a family sets as scalars or per coordinate; a family whose
    starts are not a uniform box overrides ``sample_start_batch``.
    """

    family = "abstract"
    dedup_metric = EUCLIDEAN
    # each constructor parameter but ``label``, kept as an attribute of its
    # name, with the ``_TYPES`` rule of its value in an instance file
    _PARAMS = {}
    # what makes a kernel's row not finite, for the per-point error messages
    _failure = "evaluation failed"

    def __init__(self, n, label):
        self.n = int(n)
        self.label = str(label)

    def check_point(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(f"{self.label}: point has shape {p.shape}, expected ({self.n},)")
        return p

    def check_points(self, X):
        """``check_point`` for an (m, n) stack of points, one per row."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"{self.label}: points have shape {X.shape}, expected (m, {self.n})")
        return X

    def energy_batch(self, X):
        """Energies at the rows of ``X``, as ``residual_batch``."""
        raise NotImplementedError

    def residual_batch(self, X):
        """Residuals at the rows of the (m, n) array ``X``, stacked in one
        C-order array, where a row that could not be evaluated is not
        finite.  A row's values do not depend on the other rows, and a
        stack of no rows gives no rows."""
        raise NotImplementedError

    def residual_jacobian_batch(self, X):
        """Residual Jacobians at the rows of ``X``, as ``residual_batch``."""
        raise NotImplementedError

    def _at_point(self, kernel, p):
        """The values of ``kernel`` at the single point ``p``, the batch of
        one; EvaluationError if they are not finite."""
        values = kernel(self.check_point(p)[None])[0]
        if not np.isfinite(values).all():
            raise EvaluationError(f"{self.label}: {self._failure}")
        return values

    def residual(self, p):
        return self._at_point(self.residual_batch, p)

    def residual_jacobian(self, p):
        return self._at_point(self.residual_jacobian_batch, p)

    def energy(self, p):
        return float(self._at_point(self.energy_batch, p))

    def gradient(self, p):
        return self.residual(p)

    def hessian_batch(self, X):
        """Energy Hessians at the rows of ``X``, as ``residual_batch``."""
        return self.residual_jacobian_batch(X)

    def hessian(self, p):
        return self._at_point(self.hessian_batch, p)

    def _energies(self, X, res):
        """``energy_batch(X)``, given the residuals ``res`` at the rows of
        ``X``, which a family may reuse."""
        return self.energy_batch(X)

    def params(self):
        """Serializable dict of the defining parameters, an array as a list."""
        values = {name: getattr(self, name) for name in self._PARAMS}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}

    @classmethod
    def from_params(cls, params, label=None):
        """The instance that a ``params()`` dict describes: each parameter
        must be present and obey its rule; other keys are ignored."""
        return cls(**_checked(params, cls._PARAMS), label=label)

    def sample_start_batch(self, rngs):
        """An (m, n) stack of starts from the family's region, row i drawn by ``rngs[i]`` alone."""
        return _uniform_rows(rngs, self._draw_lo, self._draw_span, self.n)

    def sample_start(self, rng):
        return self.sample_start_batch([rng])[0]


class RootSystem(ProblemInstance):
    """A system f(x) = 0 seen through the landscape W = |f|^2.

    Subclasses also implement ``_jacobian_and_curvature_batch``.  The energy
    is f . f, the gradient 2 J^T f and the Hessian 2 (J^T J + sum_k f_k
    grad^2 f_k), exact, from one evaluation, and not finite where J or the
    curvature is not.
    """

    def _jacobian_and_curvature_batch(self, X):
        """Per row of ``X``, as ``residual_jacobian_batch`` gives it: the
        Jacobian, and sum_k f_k grad^2 f_k, the residual's second
        derivatives weighted by its own components."""
        raise NotImplementedError

    def energy_batch(self, X):
        return self._energies(X, self.residual_batch(X))

    def _energies(self, X, res):
        return _dots(res, res)

    def gradient(self, p):
        return 2.0 * self.residual_jacobian(p).T @ self.residual(p)

    def hessian_batch(self, X):
        jac, curv = self._jacobian_and_curvature_batch(X)
        with np.errstate(over="ignore", invalid="ignore"):
            return 2.0 * (jac.swapaxes(1, 2) @ jac + curv)


def _uniform_rows(rngs, lo, span, n):
    """Row i is lo + span ``rngs[i].random(n)``, the bits ``rngs[i].uniform`` draws over
    [lo, lo + span), without the checks that make array bounds cost more than the draw."""
    u = np.empty((len(rngs), n))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    return lo + span * u


def _masked(values, failed):
    """A kernel's return where failed rows would be finite: ``values`` in C
    order, since the solvers' row-wise products round differently on strided
    rows than on a lone point, with the rows of ``failed`` set to nan."""
    values = np.ascontiguousarray(values)
    values[failed] = np.nan
    return values


def _block_diagonal(blocks):
    """The (m, N a, N b) stack of matrices with the (m, N, a, b) ``blocks``
    on their diagonals."""
    m, count, rows, cols = blocks.shape
    out = np.zeros((m, count, rows, count, cols))
    own = np.arange(count)
    out[:, own, :, own, :] = blocks.swapaxes(0, 1)
    return out.reshape(m, count * rows, count * cols)


def _finite(values):
    """Whether every number is a finite float or an int that converts to one."""
    return all(abs(v) <= sys.float_info.max for v in values)


# the rule of a value read from a file or given as a setting: the types it
# admits, where a bool is no number, and a test of all the values at once;
# "numbers" admits a number or nested lists of them, "a list ..." only the lists
_TYPES = {"a finite number": (Real, _finite), "numbers": (Real, None), "an int": (Integral, None),
          "a list": (list, None), "a list of finite numbers": (Real, _finite),
          "a list of ints": (Integral, None),
          "a non-negative int": (Integral, lambda vs: min(vs) >= 0),
          "finite and >= 0": (Real, lambda vs: all(0 <= v < math.inf for v in vs)),
          "a bool": (bool, None), "a string": (str, None),
          "a string or null": ((str, type(None)), None), "a JSON object": (dict, None),
          "a metric name": (str, lambda vs: set(vs) <= set(_METRICS))}


_MISSING = object()  # a value that is not there, which no rule admits


def _typed(values, rule, where):
    """The list ``values`` when each value obeys ``rule``, a key of ``_TYPES``;
    otherwise ValueError "<where> must be <rule>", or "<where> is missing"
    for ``_MISSING``, for the first that does not, its position in place of
    a "{}" in ``where``."""
    types, test = _TYPES[rule]
    flat, kinds = values, set(map(type, values))
    listed = kinds <= {list} or not rule.startswith("a list")
    while rule.endswith(("numbers", "ints")) and list in kinds:  # nested lists, level by level
        flat = [x for v in flat for x in (v if type(v) is list else (v,))]
        kinds = set(map(type, flat))
    if (listed and all(issubclass(k, types) and (k is not bool or types is bool) for k in kinds)
            and (test is None or not flat or test(flat))):
        return values
    for i, value in enumerate(values if "{}" in where else ()):  # raises at the first bad one
        _typed([value], rule, where.format(i))
    if values[0] is _MISSING:
        raise ValueError(f"{where} is missing")
    raise ValueError(f"{where} must be {rule}, got {json.dumps(values[0], default=repr)[:40]}")


def _checked(values, rules, where=""):
    """The entry of the JSON object ``values`` for each name of ``rules``,
    checked by ``_typed`` against its rule, where ``where`` names ``values``
    ("params" when empty) and prefixes each name."""
    values = _typed([values], "a JSON object", where.rstrip(": ") or "params")[0]
    return {name: _typed([values.get(name, _MISSING)], rule, where + name)[0]
            for name, rule in rules.items()}


def _label(base, *extras):
    """``base``, then "-<tag><value>" for each (tag, value, default) whose
    value is not its default, the values in ``g`` format."""
    return base + "".join(f"-{tag}{float(v):g}" for tag, v, default in extras
                          if float(v) != default)


@dataclass(frozen=True)
class Provenance:
    solver: str = "direct"
    seed: int = 0
    start_id: int = 0


@dataclass
class StationaryPoint:
    """A classified point: saddle index, zero-eigenvalue count, bookkeeping."""

    instance_label: str
    point: np.ndarray
    energy: float
    residual_norm: float
    index: int
    zero_eigs: int
    singular: bool
    provenance: Provenance = field(default_factory=Provenance)


class PointColumns:
    """Stationary points of one instance as columns; row i of each is point
    i.  ``coords`` is an (m, n) array, or a list of arrays when the points
    are not all 1-d of one length.  The other columns follow in the order of
    ``COLUMNS``, given as any sequences and kept as arrays of its dtypes;
    ``solver``, ``seed`` and ``start_id`` are the provenance, as the Python
    values."""

    COLUMNS = (("energy", float), ("residual_norm", float), ("index", int),
               ("zero_eigs", int), ("singular", bool), ("solver", object),
               ("seed", object), ("start_id", object))

    def __init__(self, instance_label, coords, *columns):
        self.instance_label, self.coords = instance_label, coords
        if not isinstance(coords, np.ndarray):
            try:
                self.coords = np.array(coords, dtype=float)
            except ValueError:  # points of different shapes
                self.coords = np.empty(0)
            if self.coords.ndim != 2:
                self.coords = ([np.asarray(p, dtype=float) for p in coords] if len(coords)
                               else np.empty((0, 0)))
        for (name, dtype), column in zip(self.COLUMNS, columns, strict=True):
            setattr(self, name, np.asarray(column, dtype=dtype))

    def __len__(self):
        return len(self.energy)

    def take(self, rows):
        """The points at ``rows``, an integer array, in that order."""
        coords = (self.coords[rows] if isinstance(self.coords, np.ndarray)
                  else [self.coords[i] for i in rows.tolist()])
        return PointColumns(self.instance_label, coords,
                            *(getattr(self, name)[rows] for name, _ in self.COLUMNS))

    def points(self):
        """The per-point view: one StationaryPoint per row."""
        provenances = map(Provenance, self.solver.tolist(), self.seed.tolist(),
                          self.start_id.tolist())
        return [StationaryPoint(self.instance_label, *row) for row in zip(
            self.coords, self.energy.tolist(), self.residual_norm.tolist(), self.index.tolist(),
            self.zero_eigs.tolist(), self.singular.tolist(), provenances)]


class SolutionSet:
    """Deduplicated stationary points of one instance, in canonical order, as
    PointColumns; ``points`` is their per-point view, built on first use."""

    def __init__(self, tolerance, metric, columns):
        self.tolerance, self.metric, self.columns = tolerance, metric, columns

    @property
    def instance_label(self):
        return self.columns.instance_label

    @functools.cached_property
    def points(self):
        return self.columns.points()

    def __len__(self):
        return len(self.columns)

    def index_histogram(self):
        index, counts = np.unique(self.columns.index, return_counts=True)
        return dict(zip(index.tolist(), counts.tolist()))


def _dots(a, b):
    """Row-wise dot products a[i] @ b[i].  Stacked matmul rounds each row
    exactly as the 1-d product does, which a sum over axis 1 would not."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def classify_batch(instance, P, solver="direct", seed=0, start_id=0):
    """Classify each row of the (m, n) stack ``P`` as a stationary point of
    ``instance``, each as it would be alone.  Returns the PointColumns of the
    rows that classify, in order, with provenance (solver, seed, start_id of
    the row, a scalar or one per row), and the EvaluationError that stopped
    each other row, by row.  Each Hessian is symmetrized as (H + H^T)/2; the
    index counts its eigenvalues below -tol, and the point is singular when
    any eigenvalue lies within tol of zero, where
    tol = ZERO_TOL * (1 + max |eigenvalue|).
    """
    P = instance.check_points(P)
    m, n = P.shape
    if not m:
        return PointColumns(instance.label, P, *[()] * len(PointColumns.COLUMNS)), {}
    H = np.asarray(instance.hessian_batch(P), dtype=float)
    if H.shape != (m, n, n):
        raise ValueError(f"{instance.label}: Hessians have shape {H.shape}, "
                         f"expected {(m, n, n)}")
    res = np.asarray(instance.residual_batch(P), dtype=float)
    energies = np.asarray(instance._energies(P, res), dtype=float)
    bad = ~np.isfinite(H).all(axis=(1, 2))
    failed = ~(np.isfinite(res).all(axis=1) & np.isfinite(energies))
    stopped = bad | failed
    errors = {}
    for i in np.flatnonzero(stopped).tolist():
        why = instance._failure if failed[i] else "non-finite Hessian entries at classify point"
        errors[i] = EvaluationError(f"{instance.label}: {why}")
    eigs = np.linalg.eigvalsh(np.where(bad[:, None, None], 0.0, 0.5 * (H + H.swapaxes(1, 2))))
    tol = ZERO_TOL * (1.0 + np.abs(eigs).max(axis=1, initial=0.0))[:, None]
    zero_eigs = (np.abs(eigs) <= tol).sum(axis=1)
    ok = np.flatnonzero(~stopped)
    return PointColumns(instance.label, P[ok], energies[ok],
                        np.sqrt(_dots(res, res))[ok], (eigs < -tol).sum(axis=1)[ok],
                        zero_eigs[ok], zero_eigs[ok] > 0, [solver] * len(ok), [seed] * len(ok),
                        np.broadcast_to(start_id, (m,))[ok]), errors


def classify(instance, p, provenance=None):
    """``classify_batch`` on the single point ``p``, as a StationaryPoint;
    raises its EvaluationError."""
    prov = provenance or Provenance()
    found, errors = classify_batch(instance, instance.check_point(p)[None], prov.solver,
                                   prov.seed, prov.start_id)
    if errors:
        raise errors[0]
    return found.points()[0]


def _wrap(d, metric):
    """Coordinate differences under ``metric``: unchanged for the Euclidean
    one, each component wrapped onto (-pi, pi] for the angular one."""
    if metric == EUCLIDEAN:
        return d
    return np.mod(d + np.pi, 2.0 * np.pi) - np.pi


def dedup(columns, tol=1e-6, metric=EUCLIDEAN):
    """Collapse near-duplicate stationary points, given as PointColumns, into
    a SolutionSet.

    Points are sorted canonically (ascending energy, then lexicographic
    coordinates) and kept greedily: a point is kept unless an earlier kept
    representative lies closer than ``tol``, so the result does not depend on
    input order and dedup of its own output returns it unchanged.  Only the
    representatives whose 1-d key lies within 2 tol plus a rounding slack of
    the point's are measured: the projection on a fixed unit vector u, as
    |u.d| <= |d|, or for the angular metric the first angle mod 2 pi, also
    listed a turn either side.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {_METRICS}")
    if isinstance(columns.coords, list):
        raise ValueError(f"dedup saw points of lengths {sorted({p.size for p in columns.coords})} "
                         f"for {columns.instance_label!r}")
    # a stable sort on energy, then each coordinate in turn, as sorted() on tuples
    order = np.lexsort([*columns.coords.T[::-1], columns.energy])
    X = columns.coords[order]
    m, n = X.shape
    u = np.sqrt(np.arange(2.0, n + 2.0))  # unequal weights: permuted points get distinct keys
    first = X[:, 0] if n else np.zeros(m)
    keys = X @ (u / np.linalg.norm(u)) if metric == EUCLIDEAN else np.mod(first, 2 * np.pi)
    pad = 2.0 * tol + 1e-9 * (1.0 + np.abs(X).sum(axis=1).max(initial=0.0))
    # a pad of inf or nan (points or tol not finite) makes every representative a candidate
    turns = (0.0,) if metric == EUCLIDEAN else (-2 * np.pi, 0.0, 2 * np.pi)
    window, rows_of, reps = [], [], []  # the representatives' keys, sorted, and rows of X
    for i, key in enumerate(keys.tolist()):
        rows = rows_of[bisect_left(window, key - pad):bisect_right(window, key + pad)]
        if not (rows and np.any(np.linalg.norm(_wrap(X[i] - X[rows], metric), axis=1) < tol)):
            reps.append(i)
            for turn in turns:
                at = bisect_right(window, key + turn)
                window.insert(at, key + turn)
                rows_of.insert(at, i)
    return SolutionSet(float(tol), metric, columns.take(order[reps]))
