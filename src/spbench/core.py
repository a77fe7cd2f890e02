"""Shared vocabulary for the benchmark: problem instances, stationary-point
classification, finite-difference checks, and duplicate removal.

Every problem family subclasses ProblemInstance and writes its residual and
its Jacobian once, as kernels over an (m, n) stack of points; every other
evaluation but ``energy`` derives from them, per point as the batch of one.
Gradient families (the lattice and cluster models) expose the objective as
``energy`` and the system to solve is its gradient.  Root-finding families
(game and puzzle systems) subclass RootSystem: the residual is their
polynomial system, and its squared norm is their ``energy`` so that descent
methods and classification have a scalar landscape to work with.
``fd_hessian`` serves ``ClassifyConfig(hessian_mode="finite-difference")``.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

EUCLIDEAN = "euclidean"
ANGULAR_MOD_2PI = "angular-mod-2pi"

_METRICS = (EUCLIDEAN, ANGULAR_MOD_2PI)


class EvaluationError(RuntimeError):
    """An energy/residual evaluation failed (coincident particles, overflow)."""


class ProblemInstance:
    """Base class for a concrete problem with a fixed parameter set.

    Subclasses set ``family`` and implement the kernels ``residual_batch``
    and ``residual_jacobian_batch``, ``energy`` (per point, so that a family
    may sum it exactly), ``params`` and ``sample_start``.  The per-point
    ``residual`` and ``residual_jacobian`` are the batch of one and raise
    EvaluationError where the kernel masks the row; for the gradient families
    they are also the ``gradient`` and the ``hessian``.
    """

    family = "abstract"
    dedup_metric = EUCLIDEAN
    # what makes a kernel mask a row, for the per-point error messages
    _failure = "evaluation failed"

    def __init__(self, n, label):
        self.n = int(n)
        self.label = str(label)

    def check_point(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.n,):
            raise ValueError(
                f"{self.label}: point has shape {p.shape}, expected ({self.n},)"
            )
        return p

    def check_points(self, X):
        """``check_point`` for an (m, n) stack of points, one per row."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(
                f"{self.label}: points have shape {X.shape}, expected (m, {self.n})"
            )
        return X

    def residual_batch(self, X):
        """Residuals at the rows of the (m, n) array ``X``, stacked, and a
        boolean mask of the rows that could not be evaluated.  A row's
        values do not depend on the other rows, and a stack of no rows
        gives values and a mask of no rows."""
        raise NotImplementedError

    def residual_jacobian_batch(self, X):
        """Residual Jacobians at the rows of ``X``, stacked, and the mask of
        rows that could not be evaluated, as ``residual_batch``."""
        raise NotImplementedError

    def _at_point(self, kernel, p):
        """The values of ``kernel`` at the single point ``p``, the batch of
        one; EvaluationError if the kernel masks it."""
        *values, failed = kernel(self.check_point(p)[None])
        if failed[0]:
            raise EvaluationError(f"{self.label}: {self._failure}")
        return values[0][0] if len(values) == 1 else tuple(v[0] for v in values)

    def residual(self, p):
        return self._at_point(self.residual_batch, p)

    def residual_jacobian(self, p):
        return self._at_point(self.residual_jacobian_batch, p)

    def energy(self, p):
        raise NotImplementedError

    def gradient(self, p):
        return self.residual(p)

    def hessian(self, p):
        return self.residual_jacobian(p)

    def _energy_of_residual(self, res):
        """The energy from the residual ``res``, or None if it is no function of it."""
        return None

    def params(self):
        """Serializable dict of the defining parameters."""
        raise NotImplementedError

    @classmethod
    def from_params(cls, params, label=None):
        """The instance that a ``params()`` dict describes.  The default
        passes every constructor parameter but ``label`` by name, and each
        one must be present; other keys are ignored."""
        names = [name for name in inspect.signature(cls).parameters if name != "label"]
        return cls(**{name: params[name] for name in names}, label=label)

    def sample_start(self, rng):
        """Draw one solver start from the family's default region."""
        raise NotImplementedError


class RootSystem(ProblemInstance):
    """A system f(x) = 0 seen through the landscape W = |f|^2.

    Subclasses also implement ``_jacobian_and_curvature_batch``.  The energy
    is f . f, the gradient 2 J^T f and the Hessian 2 (J^T J + sum_k f_k
    grad^2 f_k), exact and from one evaluation of the system.
    """

    def _jacobian_and_curvature_batch(self, X):
        """Per row of ``X``: the Jacobian, as ``residual_jacobian_batch``
        gives it, and sum_k f_k grad^2 f_k, the residual's second
        derivatives weighted by its own components; then the failed rows."""
        raise NotImplementedError

    def jacobian_and_curvature(self, p):
        """The Jacobian J(p) and sum_k f_k(p) grad^2 f_k(p)."""
        return self._at_point(self._jacobian_and_curvature_batch, p)

    def energy(self, p):
        return self._energy_of_residual(self.residual(p))

    def _energy_of_residual(self, res):
        return float(res @ res)

    def gradient(self, p):
        return 2.0 * self.residual_jacobian(p).T @ self.residual(p)

    def hessian(self, p):
        jac, curv = self.jacobian_and_curvature(p)
        with np.errstate(over="ignore", invalid="ignore"):
            h = 2.0 * (jac.T @ jac + curv)
        if not np.all(np.isfinite(h)):
            raise EvaluationError(f"{self.label}: non-finite Hessian")
        return h


def _masked(values, failed):
    """A kernel's return: ``values`` in C order, since the solvers' row-wise
    products round differently on strided rows than on a lone point, with
    the rows of ``failed`` set to nan; and ``failed``."""
    values = np.ascontiguousarray(values)
    values[failed] = np.nan
    return values, failed


def _block_diagonal(blocks):
    """The (m, N a, N b) stack of matrices with the (m, N, a, b) ``blocks``
    on their diagonals."""
    m, count, rows, cols = blocks.shape
    out = np.zeros((m, count, rows, count, cols))
    own = np.arange(count)
    out[:, own, :, own, :] = blocks.swapaxes(0, 1)
    return out.reshape(m, count * rows, count * cols)


def fd_gradient(instance, p, step=1e-5):
    """Central-difference gradient of ``instance.energy`` at ``p``."""
    return _central_differences(instance, instance.energy, p, step, "gradient")


def fd_hessian(instance, p, step=1e-5):
    """Central-difference Jacobian of the analytic gradient at ``p``."""
    return _central_differences(instance, instance.gradient, p, step, "Hessian")


def _central_differences(instance, fn, p, step, what):
    """(fn(p + step e_i) - fn(p - step e_i)) / (2 step) for each unit vector
    e_i, stacked on the last axis; EvaluationError unless all are finite."""
    p = instance.check_point(p)
    columns = [(np.asarray(fn(p + e), dtype=float) - np.asarray(fn(p - e), dtype=float))
               / (2.0 * step) for e in np.eye(instance.n) * step]
    out = np.stack(columns, axis=-1)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"{instance.label}: non-finite finite-difference {what}")
    return out


_RULES = {
    "finite": math.isfinite,
    "finite and >= 0": lambda v: math.isfinite(v) and v >= 0.0,
    "finite and > 0": lambda v: math.isfinite(v) and v > 0.0,
    "in (0, 1)": lambda v: 0.0 < v < 1.0,
    ">= 1": lambda v: v >= 1.0,
    "a non-negative int": lambda v: (isinstance(v, (int, np.integer))
                                     and not isinstance(v, bool) and v >= 0),
    "None or finite (lo, hi) with lo < hi":
        lambda v: v is None or (len(v) == 2 and -math.inf < v[0] < v[1] < math.inf),
}


def _require(cfg, **rules):
    """Raise ValueError unless every named field of ``cfg`` obeys its rule,
    a key of ``_RULES``; a value of the wrong type fails it."""
    for name, rule in rules.items():
        value = getattr(cfg, name)
        try:
            ok = _RULES[rule](value)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class ClassifyConfig:
    """Settings for stationary-point classification.

    ``zero_tol`` is a relative coefficient: an eigenvalue counts as zero when
    its magnitude is at most ``zero_tol * (1 + max |eigenvalue|)``.
    ``hessian_mode`` selects the instance's own Hessian ("analytic") or a
    forced finite difference of the gradient ("finite-difference").
    """

    hessian_mode: str = "analytic"
    fd_step: float = 1e-5
    zero_tol: float = 1e-6

    def __post_init__(self):
        if self.hessian_mode not in ("analytic", "finite-difference"):
            raise ValueError(f"unknown hessian_mode {self.hessian_mode!r}")
        _require(self, zero_tol="finite and >= 0", fd_step="finite and > 0")


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


@dataclass
class SolutionSet:
    """Deduplicated stationary points of one instance, in canonical order."""

    instance_label: str
    tolerance: float
    metric: str
    points: list = field(default_factory=list)

    def __len__(self):
        return len(self.points)

    def index_histogram(self):
        hist = {}
        for sp in self.points:
            hist[sp.index] = hist.get(sp.index, 0) + 1
        return dict(sorted(hist.items()))


def classify(instance, p, cfg=None, provenance=None):
    """Classify ``p`` as a stationary point of ``instance``.

    The Hessian is symmetrized as (H + H^T)/2 before the eigendecomposition,
    the index is the count of eigenvalues below -tol, and the point is marked
    singular when any eigenvalue magnitude falls within tol of zero, where
    tol = zero_tol * (1 + max |eigenvalue|).
    """
    cfg = cfg if cfg is not None else ClassifyConfig()
    p = instance.check_point(p)
    if cfg.hessian_mode == "finite-difference":
        h = fd_hessian(instance, p, cfg.fd_step)
    else:
        h = np.asarray(instance.hessian(p), dtype=float)
    if h.shape != (instance.n, instance.n):
        raise ValueError(
            f"{instance.label}: Hessian has shape {h.shape}, expected square of size {instance.n}"
        )
    if not np.all(np.isfinite(h)):
        raise EvaluationError(f"{instance.label}: non-finite Hessian entries at classify point")
    sym = 0.5 * (h + h.T)
    eigs = np.linalg.eigvalsh(sym)
    tol = cfg.zero_tol * (1.0 + float(np.max(np.abs(eigs))))
    index = int(np.sum(eigs < -tol))
    zero_eigs = int(np.sum(np.abs(eigs) <= tol))
    res = np.asarray(instance.residual(p), dtype=float)
    energy = instance._energy_of_residual(res)
    if energy is None:
        energy = float(instance.energy(p))
    return StationaryPoint(
        instance_label=instance.label,
        point=np.array(p, dtype=float),
        energy=energy,
        residual_norm=float(np.linalg.norm(res)),
        index=index,
        zero_eigs=zero_eigs,
        singular=zero_eigs > 0,
        provenance=provenance if provenance is not None else Provenance(),
    )


def point_distance(a, b, metric=EUCLIDEAN):
    """Distance between coordinate vectors under the named metric.

    The angular metric wraps each component difference onto the shortest arc
    in (-pi, pi] before taking the Euclidean norm, so vectors that differ by
    whole turns in any component compare as equal.
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.linalg.norm(_wrap(d, metric)))


def _wrap(d, metric):
    """Coordinate differences under ``metric``: unchanged for the Euclidean
    one, each component wrapped onto (-pi, pi] for the angular one."""
    if metric == EUCLIDEAN:
        return d
    if metric == ANGULAR_MOD_2PI:
        return np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    raise ValueError(f"unknown metric {metric!r}, expected one of {_METRICS}")


def dedup(points, tol=1e-6, metric=EUCLIDEAN):
    """Collapse near-duplicate stationary points into a SolutionSet.

    Points are first sorted canonically (ascending energy, then lexicographic
    coordinates), then clustered greedily: a point joins the first existing
    representative closer than ``tol``, otherwise it opens a new cluster.
    The canonical sort makes the result independent of input order, and
    running dedup on its own output returns it unchanged.
    """
    if metric not in _METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {_METRICS}")
    labels = sorted({sp.instance_label for sp in points})
    if len(labels) > 1:
        raise ValueError(f"dedup saw mixed instance labels: {labels}")
    label = labels[0] if labels else ""
    ordered = sorted(points, key=lambda sp: (sp.energy, tuple(sp.point)))
    reps = []
    kept = np.empty((len(ordered), len(ordered[0].point) if ordered else 0))
    for sp in ordered:
        d = _wrap(sp.point - kept[:len(reps)], metric)
        if not np.any(np.linalg.norm(d, axis=1) < tol):
            kept[len(reps)] = sp.point
            reps.append(sp)
    return SolutionSet(instance_label=label, tolerance=float(tol), metric=metric, points=reps)


def stationary_point_to_dict(sp):
    return {
        "coords": [float(v) for v in sp.point],
        "energy": float(sp.energy),
        "residual_norm": float(sp.residual_norm),
        "index": int(sp.index),
        "zero_eigs": int(sp.zero_eigs),
        "singular": bool(sp.singular),
        "provenance": dataclasses.asdict(sp.provenance),
    }


def stationary_point_from_dict(label, d):
    prov = d.get("provenance", {})
    return StationaryPoint(
        instance_label=label,
        point=np.asarray(d["coords"], dtype=float),
        energy=float(d["energy"]),
        residual_norm=float(d["residual_norm"]),
        index=int(d["index"]),
        zero_eigs=int(d["zero_eigs"]),
        singular=bool(d["singular"]),
        provenance=Provenance(
            solver=str(prov.get("solver", "direct")),
            seed=int(prov.get("seed", 0)),
            start_id=int(prov.get("start_id", 0)),
        ),
    )
