"""Shared vocabulary for the benchmark: problem instances, stationary-point
classification, finite-difference checks, and duplicate removal.

Every problem family subclasses ProblemInstance.  Gradient families (the
lattice and cluster models) expose the objective as ``energy`` and the system
to solve is its gradient.  Root-finding families (game and puzzle systems)
subclass RootSystem: they expose the polynomial system as ``residual`` and
report the squared residual norm as their ``energy`` so that descent methods
and classification have a scalar landscape to work with.  Its Hessian comes
from one hook, ``jacobian_and_curvature``, which evaluates the system once.

Every shipped family has a closed-form ``hessian``.  ``fd_hessian`` serves
``ClassifyConfig(hessian_mode="finite-difference")`` and the ProblemInstance
default for families that bring no Hessian of their own.
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

    Subclasses set ``family`` and implement ``energy``, ``gradient``,
    ``params`` and ``sample_start``.  ``hessian`` defaults to a central
    finite difference of the analytic gradient; every shipped family
    overrides it with a closed form.  ``residual``/``residual_jacobian``
    default to the gradient/Hessian pair and are overridden by the
    root-system families.  The solvers evaluate whole stacks of points
    through ``residual_batch``/``residual_jacobian_batch``, which loop over
    rows unless a family brings a vectorized kernel.
    """

    family = "abstract"
    dedup_metric = EUCLIDEAN

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

    def energy(self, p):
        raise NotImplementedError

    def gradient(self, p):
        raise NotImplementedError

    def hessian(self, p):
        return fd_hessian(self, p)

    def residual(self, p):
        return self.gradient(p)

    def residual_jacobian(self, p):
        return self.hessian(p)

    def residual_batch(self, X):
        """Residuals at the rows of the (m, n) array ``X``, stacked, and a
        boolean mask of the rows whose evaluation raised EvaluationError
        (their values are nan).  The default evaluates row by row."""
        return _row_loop(self.residual, self.check_points(X), (1,))

    def residual_jacobian_batch(self, X):
        """Residual Jacobians at the rows of ``X``, stacked, and the mask of
        rows whose evaluation raised EvaluationError, as ``residual_batch``."""
        return _row_loop(self.residual_jacobian, self.check_points(X), (1, self.n))

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


def _row_loop(fn, X, fallback):
    """``fn`` at each row of ``X``, stacked, with the mask of rows where it
    raised EvaluationError; those rows are nan.  When no row could be
    evaluated the value shape is unknown, and each row is a nan block of
    shape ``fallback``, whose size-1 axes broadcast against the real shape."""
    values = []
    failed = np.zeros(len(X), dtype=bool)
    for i, x in enumerate(X):
        try:
            values.append(np.asarray(fn(x), dtype=float))
        except EvaluationError:
            values.append(None)
            failed[i] = True
    shape = next((v.shape for v in values if v is not None), fallback)
    out = np.full((len(X),) + shape, np.nan)
    for i, v in enumerate(values):
        if v is not None:
            out[i] = v
    return out, failed


class RootSystem(ProblemInstance):
    """A system f(x) = 0 seen through the landscape W = |f|^2.

    Subclasses implement ``residual``, ``residual_jacobian`` and
    ``jacobian_and_curvature``; the energy is f . f, the gradient 2 J^T f and
    the Hessian 2 (J^T J + sum_k f_k grad^2 f_k), exact with no finite
    difference and from one evaluation of the system.
    """

    def residual(self, p):
        raise NotImplementedError

    def residual_jacobian(self, p):
        raise NotImplementedError

    def jacobian_and_curvature(self, p):
        """The Jacobian J(p), equal to ``residual_jacobian(p)``, and
        sum_k f_k(p) grad^2 f_k(p), the residual's second derivatives
        weighted by its own components, from one evaluation."""
        raise NotImplementedError

    def energy(self, p):
        f = self.residual(p)
        return float(f @ f)

    def gradient(self, p):
        return 2.0 * self.residual_jacobian(p).T @ self.residual(p)

    def hessian(self, p):
        jac, curv = self.jacobian_and_curvature(p)
        with np.errstate(over="ignore", invalid="ignore"):
            h = 2.0 * (jac.T @ jac + curv)
        if not np.all(np.isfinite(h)):
            raise EvaluationError(f"{self.label}: non-finite Hessian")
        return h


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
}


def _require(cfg, **rules):
    """Raise ValueError unless every named field of ``cfg`` obeys its rule,
    a key of ``_RULES``."""
    for name, rule in rules.items():
        if not _RULES[rule](getattr(cfg, name)):
            raise ValueError(f"{name} must be {rule}, got {getattr(cfg, name)}")


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
    return StationaryPoint(
        instance_label=instance.label,
        point=np.array(p, dtype=float),
        energy=float(instance.energy(p)),
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
