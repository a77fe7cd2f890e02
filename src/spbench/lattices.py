"""Lattice families: a quartic scalar field on a periodic square grid, and a
planar-rotor (XY) model with optional coupling disorder on cubic lattices.

Both expose analytic gradients and Hessians.  The quartic model decouples
site by site when the neighbor coupling J is zero, which permits exhaustive
enumeration of its stationary points and exact counting of complex roots; the
rotor model keeps a frustrated, highly degenerate landscape even at small
sizes and is the stress test for path-following solvers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import ANGULAR_MOD_2PI, ProblemInstance, _label, _typed, classify_batch, dedup

PERIODIC = "periodic"
ANTI_PERIODIC = "anti-periodic"

# the most starts ``Phi4Lattice.grid_starts`` builds, the 3^9 of a 3 x 3 grid
GRID_CAP = 3**9


def _fmt(x):
    return format(float(x), "g")


class Phi4Lattice(ProblemInstance):
    """Quartic on-site potential plus nearest-neighbor springs on an N x N
    periodic grid.

    Site value x contributes lam/4! * x^4 - mu2/2 * x^2, and each of the four
    neighbor slots contributes J/4 * (x - x_neighbor)^2.  Neighbor slots are a
    multiset: on a 2 x 2 grid the up and down neighbors coincide, and on a
    1 x 1 grid all four slots point back at the site itself, so the coupling
    term cancels from the gradient exactly.  The kernels write x^3 and x^4 as
    products: on signed values numpy computes ``X**3`` with one scalar ``pow``
    call per element, about twenty times slower than ``X * X * X``.
    """

    family = "phi4"
    _PARAMS = {"N": "an int", "lam": "a number", "mu2": "a number", "J": "a number"}
    _draw_lo, _draw_span = -6.0, 12.0

    def __init__(self, N, lam=0.6, mu2=2.0, J=0.0, label=None):
        N = int(N)
        if N < 1:
            raise ValueError(f"grid side must be >= 1, got {N}")
        if label is None:
            label = _label(f"phi4-N{N}-J{_fmt(J)}", ("lam", lam, 0.6), ("mu2", mu2, 2.0))
        super().__init__(N * N, label)
        self.N = N
        self.lam = float(lam)
        self.mu2 = float(mu2)
        self.J = float(J)
        self.neighbors = self._neighbor_table(N)
        # the springs' part of the Hessian, the same at every point
        self._coupling = np.zeros((self.n, self.n))
        np.add.at(self._coupling, (np.repeat(np.arange(self.n), 4), self.neighbors.ravel()),
                  -self.J)

    @staticmethod
    def _neighbor_table(N):
        """The up, down, left and right neighbor of every site."""
        idx = np.arange(N * N).reshape(N, N)
        return np.stack([np.roll(idx, shift, axis=axis).ravel()
                         for shift, axis in ((-1, 0), (1, 0), (1, 1), (-1, 1))], axis=1)

    def energy_batch(self, X):
        X = self.check_points(X)
        X2 = X * X
        onsite = np.sum(self.lam / 24.0 * (X2 * X2) - 0.5 * self.mu2 * X2, axis=1)
        springs = (X[:, :, None] - X[:, self.neighbors]) ** 2
        spring = 0.25 * self.J * np.sum(springs.reshape(len(X), 4 * self.n), axis=1)
        return onsite + spring, np.zeros(len(X), dtype=bool)

    def residual_batch(self, X):
        X = self.check_points(X)
        nb_sum = X[:, self.neighbors].sum(axis=2)
        g = self.lam / 6.0 * (X * X * X) + (4.0 * self.J - self.mu2) * X - self.J * nb_sum
        return g, np.zeros(len(X), dtype=bool)

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        h = np.repeat(self._coupling[None], len(X), axis=0)
        diag = np.arange(self.n)
        h[:, diag, diag] += 0.5 * self.lam * X**2 + (4.0 * self.J - self.mu2)
        return h, np.zeros(len(X), dtype=bool)

    def site_roots(self):
        """Roots of the decoupled single-site equation: 0 and +-sqrt(6 mu2/lam)."""
        r = math.sqrt(6.0 * self.mu2 / self.lam)
        return (0.0, r, -r)

    def grid_starts(self, values=(-5.0, 0.0, 5.0)):
        """Cartesian product of per-site start values as an (m, n) stack, one
        row per combination; ValueError above ``GRID_CAP`` rows."""
        total = len(values) ** self.n
        if total > GRID_CAP:
            raise ValueError(f"grid of {total} starts exceeds cap {GRID_CAP}")
        return np.array(list(itertools.product(values, repeat=self.n)),
                        dtype=float).reshape(total, self.n)


def phi4_bezout(N):
    """Root count of the degree-3 stationarity system on the N x N grid,
    exact as an arbitrary-precision integer: 3 ** (N*N)."""
    N = int(N)
    if N < 1:
        raise ValueError(f"grid side must be >= 1, got {N}")
    return 3 ** (N * N)


def phi4_enumerate_decoupled(instance):
    """Every real stationary point of a J = 0 instance, fully classified.

    With the springs off, each site independently sits at one of the three
    single-site roots, so the landscape is the Cartesian product of those
    choices and the saddle index equals the number of sites parked at zero.
    Raises if J != 0 or the enumeration would exceed ``GRID_CAP`` points.
    """
    if instance.J != 0.0:
        raise ValueError(f"decoupled enumeration requires J = 0, got J = {instance.J}")
    grid = instance.grid_starts(instance.site_roots())
    points, _ = classify_batch(instance, grid, solver="enumeration")
    return dedup(points, tol=1e-6, metric=instance.dedup_metric)


# each disorder kind and the names of its numbers
_DISORDER_KINDS = {"constant": ("value",), "uniform-signed": (), "uniform": ("low", "high")}


def _normalize_disorder(disorder):
    """The coupling disorder as a dict {"kind": ..., and its numbers}.
    Accepts that dict, whose numbers must be numbers, or the string grammar
    of the command line: ``constant[:VALUE]``, ``uniform-signed`` or
    ``uniform:LOW:HIGH``.  A constant's value defaults to 1."""
    if isinstance(disorder, str):
        kind, *numbers = disorder.split(":")
    elif isinstance(disorder, dict):
        kind = disorder.get("kind")
        numbers = [_typed([disorder[k]], "a number", f"disorder {k}")[0]
                   for k in _DISORDER_KINDS.get(kind, ()) if k in disorder]
    else:
        raise ValueError(f"cannot interpret disorder spec {disorder!r}")
    if kind not in _DISORDER_KINDS:
        raise ValueError(f"unknown disorder kind {kind!r}, expected one of "
                         f"constant[:VALUE], uniform-signed or uniform:LOW:HIGH")
    names = _DISORDER_KINDS[kind]
    if kind == "constant" and not numbers:
        numbers = [1.0]
    if len(numbers) != len(names):
        raise ValueError(f"{kind} disorder takes {' and '.join(names) or 'no numbers'}, "
                         f"got {numbers}")
    return {"kind": kind, **{name: float(v) for name, v in zip(names, numbers)}}


def _disorder_tag(d):
    if d["kind"] == "constant":
        return f"const{_fmt(d['value'])}"
    if d["kind"] == "uniform":
        return f"unif({_fmt(d['low'])},{_fmt(d['high'])})"
    return "signed"


class XYLattice(ProblemInstance):
    """Nearest-neighbor planar rotors on a d-dimensional cubic lattice of side
    L, with one coupling per edge.

    The energy sums 1 - J_e * cos(theta_a - theta_b) over the d * L^d edges
    (each site-to-site bond stored once).  Anti-periodic boundaries flip the
    sign of the coupling on wrap-around edges.  With periodic boundaries the
    energy is invariant under a global rotation of all angles; gauge fixing
    removes that freedom by pinning site 0 to angle zero, leaving L^d - 1
    free variables.  Angles are plain reals, never wrapped by the model.
    """

    family = "xy"
    _PARAMS = {"d": "an int", "L": "an int", "bc": "a string", "disorder": "a JSON object",
               "seed": "a non-negative int", "gauge_fixed": "a bool",
               "couplings": "a list of numbers"}
    dedup_metric = ANGULAR_MOD_2PI
    # starts pi - U[0, 2pi) land in (-pi, pi]
    _draw_lo, _draw_span = np.pi, -2.0 * np.pi

    def __init__(self, d, L, bc=PERIODIC, disorder="constant", seed=0,
                 gauge_fixed=None, couplings=None, label=None):
        d = int(d)
        L = int(L)
        if d not in (1, 2, 3):
            raise ValueError(f"lattice dimension must be 1, 2 or 3, got {d}")
        if L < 2:
            raise ValueError(f"lattice side must be >= 2, got {L}")
        if bc not in (PERIODIC, ANTI_PERIODIC):
            raise ValueError(f"unknown boundary condition {bc!r}")
        if gauge_fixed is None:
            gauge_fixed = bc == PERIODIC
        if gauge_fixed and bc == ANTI_PERIODIC:
            raise ValueError("gauge fixing assumes the global-rotation symmetry of "
                             "periodic boundaries; disable it for anti-periodic runs")
        self.d = d
        self.L = L
        self.bc = bc
        self.seed = int(seed)
        self.gauge_fixed = bool(gauge_fixed)
        self.disorder = _normalize_disorder(disorder)
        self.sites = L**d
        self.edge_a, self.edge_b, self.wrap = self._edge_table(d, L)
        if couplings is None:
            couplings = self._draw_couplings(self.n_edges)
        couplings = np.asarray(couplings, dtype=float)
        if couplings.shape != (self.n_edges,):
            raise ValueError(f"expected {self.n_edges} couplings, got shape {couplings.shape}")
        self.couplings = couplings
        sign = np.where(self.wrap & (bc == ANTI_PERIODIC), -1.0, 1.0)
        self._j_eff = couplings * sign
        a, b, m = self.edge_a, self.edge_b, self.sites
        self._hess_idx = np.concatenate((a * m + a, b * m + b, a * m + b, b * m + a))
        if label is None:
            label = f"xy-d{d}-L{L}-{bc}-{_disorder_tag(self.disorder)}-s{self.seed}"
            if bc == PERIODIC and not self.gauge_fixed:
                label += "-nogauge"
        super().__init__(self.sites - (1 if self.gauge_fixed else 0), label)

    @staticmethod
    def _edge_table(d, L):
        """Every site's edge to its next neighbor along each axis in turn: the
        two ends and whether the edge wraps around."""
        idx = np.arange(L**d).reshape((L,) * d)
        nb = np.concatenate([np.roll(idx, -1, axis=axis).ravel() for axis in range(d)])
        return np.tile(idx.ravel(), d), nb, np.indices(idx.shape).reshape(d, -1).ravel() == L - 1

    def _draw_couplings(self, n_edges):
        rng = np.random.default_rng(self.seed)
        d = self.disorder
        if d["kind"] == "constant":
            return np.full(n_edges, d["value"])
        if d["kind"] == "uniform-signed":
            return rng.integers(0, 2, n_edges) * 2.0 - 1.0
        return rng.uniform(d["low"], d["high"], n_edges)

    def _full_angles_batch(self, X):
        """Every site's angle, one row per point of X: site 0 pinned to zero
        when the gauge is fixed."""
        X = self.check_points(X)
        if not self.gauge_fixed:
            return X
        theta = np.zeros((len(X), self.sites))
        theta[:, 1:] = X
        return theta

    def full_angles(self, p):
        return self._full_angles_batch(self.check_point(p)[None])[0]

    def _edge_deltas(self, X):
        """Angle differences across every edge, one row per point of X."""
        theta = self._full_angles_batch(X)
        return theta[:, self.edge_a] - theta[:, self.edge_b]

    def energy_batch(self, X):
        # the edge differences come back strided, and a sum along a strided
        # row rounds differently from the sum over a lone point's edges
        c = self._j_eff * np.cos(np.ascontiguousarray(self._edge_deltas(X)))
        return np.sum(1.0 - c, axis=1), np.zeros(len(c), dtype=bool)

    # Both kernels scatter every row's edge terms into bins of their own by
    # offsetting the row's indices, so each bin sums the same terms in the
    # same order as for a single point.

    def residual_batch(self, X):
        s = self._j_eff * np.sin(self._edge_deltas(X))
        m, size = len(s), self.sites
        rows = size * np.arange(m)[:, None]
        g = (np.bincount((self.edge_a + rows).ravel(), weights=s.ravel(), minlength=m * size)
             - np.bincount((self.edge_b + rows).ravel(), weights=s.ravel(), minlength=m * size))
        g = g.reshape(m, size)
        return (g[:, 1:] if self.gauge_fixed else g), np.zeros(m, dtype=bool)

    def residual_jacobian_batch(self, X):
        c = self._j_eff * np.cos(self._edge_deltas(X))
        m, size = len(c), self.sites * self.sites
        idx = self._hess_idx + size * np.arange(m)[:, None]
        weights = np.concatenate((c, c, -c, -c), axis=1)
        h = np.bincount(idx.ravel(), weights=weights.ravel(), minlength=m * size)
        h = h.reshape(m, self.sites, self.sites)
        return (h[:, 1:, 1:] if self.gauge_fixed else h), np.zeros(m, dtype=bool)

    @property
    def n_edges(self):
        return len(self.edge_a)
