"""Particle-cluster families: point charges on the unit sphere, and free
atomic clusters bound by Lennard-Jones or Morse pair potentials.

Rigid-body freedom is removed by construction rather than by constraints.
Sphere charges use spherical angles with the first charge pinned to the north
pole and the second to the zero-azimuth meridian.  Free clusters pin the
first atom to the origin, the second to the x-axis, and the third to the
xy-plane.  Gradients and Hessians are analytic: both are built in Cartesian
coordinates from the pair potential's first and second derivatives and then
carried through the embedding, which for free clusters is a selection of
coordinates and for sphere charges the polar chart.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ProblemInstance, _block_diagonal, _label

_COINCIDENCE_TOL = 1e-12
# sample_start_batch draws until all pairs are this far apart, for at most this many draws
_MIN_SEPARATION = 0.5
_MAX_TRIES = 10000


def _pair_distances(pos, pairs):
    """For an (m, N, 3) stack of positions: the separation vectors, the
    distance matrices with a unit diagonal and the lengths of the pairs
    ``pairs`` (upper-triangle indices).  A row with coincident particles has
    nan for all its distances, so every value built from them is nan."""
    diff = pos[:, :, None, :] - pos[:, None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=3))
    lengths = dist[:, pairs[0], pairs[1]]
    own = np.arange(pos.shape[1])
    dist[:, own, own] = 1.0
    dist[np.any(lengths < _COINCIDENCE_TOL, axis=1)] = np.nan
    return diff, dist, lengths


def _cartesian_gradient(diff, dist, dvdr):
    """Cartesian gradients (m, N, 3) of a sum of pair potentials v(r_ij), and
    the matrices of v'(r_ij) / r_ij with a zero diagonal."""
    radial = dvdr(dist) / dist
    own = np.arange(dist.shape[1])
    radial[:, own, own] = 0.0
    return (radial[..., None] * diff).sum(axis=2), radial


def _cartesian_hessian(diff, dist, radial, d2vdr2):
    """Cartesian Hessians (m, 3N, 3N) of a sum of pair potentials v(r_ij),
    given the matrices of v'(r_ij) / r_ij from ``_cartesian_gradient``.

    The block of pair i != j is -(v'' u u^T + (v'/r)(I - u u^T)), u the unit
    separation vector; each diagonal block is minus the sum of the other
    blocks of its row.
    """
    # v'' u u^T + (v'/r)(I - u u^T) = ((v'' - v'/r) / r^2) d d^T + (v'/r) I
    along = (d2vdr2(dist) - radial) / (dist * dist)
    m, count = dist.shape[:2]
    own = np.arange(count)
    along[:, own, own] = 0.0
    hess = -np.einsum("mij,mijc,mijd->micjd", along, diff, diff)
    hess -= radial[:, :, None, :, None] * np.eye(3)[None, None, :, None, :]
    hess[:, own, :, own, :] = -hess.sum(axis=3).swapaxes(0, 1)
    return hess.reshape(m, 3 * count, 3 * count)


class _Cluster(ProblemInstance):
    """The kernels shared by the particle families.  Subclasses supply the
    pair potential v(r) with its first two derivatives, the draw region
    ``_draw_lo + _draw_span u``, u uniform in [0, 1), and ``_chart(X)``,
    which returns what the chain rule needs and the positions (m, N, 3) of
    every row.  The chain rule selects the ``_free`` Cartesian
    coordinates unless ``_pull_gradient`` and ``_pull_hessian`` say more."""

    _failure = (f"coincident particles (pair distance < {_COINCIDENCE_TOL}) "
                f"or a non-finite value")

    def positions(self, p):
        return self._chart(self.check_point(p)[None])[1][0]

    def energy_batch(self, X):
        _, pos = self._chart(self.check_points(X))
        dist = _pair_distances(pos, self._pairs)[1]
        # fsum rounds once, so copies of one configuration under rotation
        # and permutation do not differ by the rounding of the summation
        terms = self._pair_energy(dist[:, self._pairs[0], self._pairs[1]])
        return np.array([math.fsum(row) for row in terms.tolist()])

    def _cartesian(self, X, hessian):
        """The chart and the positions of every row of ``X``, the Cartesian
        gradients and the Cartesian Hessians if ``hessian``."""
        chart, pos = self._chart(self.check_points(X))
        diff, dist, _ = _pair_distances(pos, self._pairs)
        cart, radial = _cartesian_gradient(diff, dist, self._pair_dvdr)
        kart = _cartesian_hessian(diff, dist, radial, self._pair_d2vdr2) if hessian else None
        return chart, pos, cart, kart

    def _pull_gradient(self, chart, cart):
        return cart

    def _pull_hessian(self, chart, pos, cart, kart):
        return kart

    def residual_batch(self, X):
        chart, _, cart, _ = self._cartesian(X, hessian=False)
        g = self._pull_gradient(chart, cart)
        return np.ascontiguousarray(g.reshape(len(g), math.prod(g.shape[1:]))[:, self._free])

    def residual_jacobian_batch(self, X):
        hess = self._pull_hessian(*self._cartesian(X, hessian=True))
        return np.ascontiguousarray(hess[:, self._free[:, None], self._free])

    def sample_start_batch(self, rngs):
        """Starts from the draw region, rejection-sampled so that every pair of
        particles starts at least ``_MIN_SEPARATION`` apart.  Each round
        draws the next candidate of every start still pending and tests
        them together, so each generator yields the candidates it would
        alone."""
        starts, pending = np.empty((len(rngs), self.n)), np.arange(len(rngs))
        for _ in range(_MAX_TRIES):
            X = super().sample_start_batch([rngs[i] for i in pending])
            lengths = _pair_distances(self._chart(X)[1], self._pairs)[2]
            ok = np.min(lengths, axis=1) >= _MIN_SEPARATION
            starts[pending[ok]] = X[ok]
            pending = pending[~ok]
            if not len(pending):
                return starts
        raise RuntimeError(f"{self.label}: no start with pair separation >= {_MIN_SEPARATION} "
                           f"found in {_MAX_TRIES} tries")


class ThomsonSphere(_Cluster):
    """Coulomb energy sum(1/r_ij) of N unit charges confined to the unit sphere.

    Charge 1 sits at (0, 0, 1).  Charge 2 has one polar angle (azimuth fixed
    at zero).  Charges 3..N carry a polar and an azimuthal angle each, giving
    2N - 3 variables.
    """

    family = "thomson"
    _PARAMS = {"charges": "an int"}

    def __init__(self, charges, label=None):
        charges = int(charges)
        if charges < 2:
            raise ValueError(f"need at least 2 charges, got {charges}")
        super().__init__(2 * charges - 3, label if label is not None else f"thomson-{charges}")
        self.charges = charges
        self._pairs = np.triu_indices(charges, k=1)
        # the variables within (theta_1, phi_1, ..., theta_N, phi_N): all
        # but the pinned theta_1, phi_1 and phi_2
        self._free = np.r_[2, 4:2 * charges]
        # the draw region over theta_2 and then theta and phi of each further
        # charge: the bits of the scalar draws uniform(0.1, pi - 0.1) for
        # theta and pi - uniform(0, 2 pi) for phi
        theta = (math.pi - 0.1) - 0.1
        self._draw_lo = np.array([0.1] + [0.1, math.pi] * (charges - 2))
        self._draw_span = np.array([theta] + [theta, -2.0 * math.pi] * (charges - 2))

    @staticmethod
    def _pair_energy(r):
        return 1.0 / r

    @staticmethod
    def _pair_dvdr(r):
        return -1.0 / r**2

    # r**3 here and (sigma/r)**6 in LJ keep ``**``: numpy powers a positive
    # base on its vector path, unlike the signed ones the phi4 kernels write as
    # products, and a product would move these results' rounding for little gain
    @staticmethod
    def _pair_d2vdr2(r):
        return 2.0 / r**3

    def _chart(self, X):
        """Sin and cos of every charge's polar and azimuthal angle, each of
        shape (m, N), and the positions (m, N, 3)."""
        angles = np.zeros((len(X), 2 * self.charges))
        angles[:, self._free] = X
        sin, cos = np.sin(angles), np.cos(angles)
        st, sp, ct, cp = sin[:, 0::2], sin[:, 1::2], cos[:, 0::2], cos[:, 1::2]
        return (st, ct, sp, cp), np.stack((st * cp, st * sp, ct), axis=2)

    @staticmethod
    def _in_plane(cart, cp, sp):
        """Components of each charge's Cartesian gradient along
        (cos phi, sin phi, 0) and along (-sin phi, cos phi, 0)."""
        x, y = cart[..., 0], cart[..., 1]
        return x * cp + y * sp, y * cp - x * sp

    def _pull_gradient(self, chart, cart):
        st, ct, sp, cp = chart
        along, across = self._in_plane(cart, cp, sp)
        return np.stack((ct * along - st * cart[..., 2], st * across), axis=2)

    def _pull_hessian(self, chart, pos, cart, kart):
        """J^T K J + sum_i g_i . d^2 pos_i, with K and g the Cartesian Hessian
        and gradient and J the Jacobian of the chart."""
        st, ct, sp, cp = chart
        d_theta = np.stack((ct * cp, ct * sp, -st), axis=2)
        d_phi = np.stack((-st * sp, st * cp, np.zeros_like(st)), axis=2)
        jac = _block_diagonal(np.stack((d_theta, d_phi), axis=3))
        # g_i . d^2 pos_i / d(theta, phi)^2, where d^2 pos / d theta^2 = -pos
        along, across = self._in_plane(cart, cp, sp)
        curv = np.stack((-np.sum(cart * pos, axis=2), ct * across, ct * across, -st * along),
                        axis=2)
        return (jac.transpose(0, 2, 1) @ kart @ jac
                + _block_diagonal(curv.reshape(len(curv), self.charges, 2, 2)))


class _PairPotentialCluster(_Cluster):
    """Shared embedding for free clusters of N >= 2 atoms.

    Free coordinates: x of atom 2; x, y of atom 3; full triples afterwards.
    That removes six rigid-body freedoms for N >= 3 (n = 3N - 6) and five for
    the diatomic (n = 1, the signed separation along the x-axis).
    """

    def __init__(self, atoms, label):
        atoms = int(atoms)
        if atoms < 2:
            raise ValueError(f"need at least 2 atoms, got {atoms}")
        n = 1 if atoms == 2 else 3 * atoms - 6
        super().__init__(n, label)
        self.atoms = atoms
        self._pairs = np.triu_indices(atoms, k=1)
        # the free coordinates within the flattened (N, 3) positions; the
        # embedding is linear, so the chain rule is a selection by this index
        self._free = np.r_[3] if atoms == 2 else np.r_[3, 6, 7, 9:3 * atoms]
        # starts are uniform(-h, h) in every free coordinate
        h = 2.0 if atoms <= 4 else 1.2 * atoms ** (1.0 / 3.0) + 1.0
        self._draw_lo, self._draw_span = -h, 2.0 * h

    def _chart(self, X):
        pos = np.zeros((len(X), 3 * self.atoms))
        pos[:, self._free] = X
        return None, pos.reshape(len(X), self.atoms, 3)


class LennardJonesCluster(_PairPotentialCluster):
    """12-6 pair potential 4 eps ((sigma/r)^12 - (sigma/r)^6) summed over pairs."""

    family = "lj"
    _PARAMS = {"atoms": "an int", "epsilon": "a finite number", "sigma": "a finite number"}

    def __init__(self, atoms, epsilon=1.0, sigma=1.0, label=None):
        if label is None:
            label = _label(f"lj-{int(atoms)}", ("eps", epsilon, 1.0), ("sig", sigma, 1.0))
        super().__init__(atoms, label)
        self.epsilon = float(epsilon)
        self.sigma = float(sigma)

    def _pair_energy(self, r):
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (s6 * s6 - s6)

    def _pair_dvdr(self, r):
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (-12.0 * s6 * s6 + 6.0 * s6) / r

    def _pair_d2vdr2(self, r):
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (156.0 * s6 * s6 - 42.0 * s6) / (r * r)


class MorseCluster(_PairPotentialCluster):
    """Morse pair potential eps * u * (u - 2) with u = exp(rho (1 - r/r_e))."""

    family = "morse"
    _PARAMS = {"atoms": "an int", "rho": "a finite number", "epsilon": "a finite number",
               "r_e": "a finite number"}

    def __init__(self, atoms, rho, epsilon=1.0, r_e=1.0, label=None):
        if label is None:
            label = _label(f"morse-{int(atoms)}-rho{float(rho):g}", ("eps", epsilon, 1.0),
                           ("re", r_e, 1.0))
        super().__init__(atoms, label)
        self.rho = float(rho)
        self.epsilon = float(epsilon)
        self.r_e = float(r_e)

    def _pair_energy(self, r):
        u = np.exp(self.rho * (1.0 - r / self.r_e))
        return self.epsilon * u * (u - 2.0)

    def _pair_dvdr(self, r):
        u = np.exp(self.rho * (1.0 - r / self.r_e))
        return -2.0 * self.epsilon * self.rho / self.r_e * u * (u - 1.0)

    def _pair_d2vdr2(self, r):
        u = np.exp(self.rho * (1.0 - r / self.r_e))
        return 2.0 * self.epsilon * (self.rho / self.r_e) ** 2 * u * (2.0 * u - 1.0)


def pair_curvature(cluster):
    """Dimensionless stiffness r_min^2 v''(r_min) / eps of the pair potential
    at the bottom of its well, in closed form: 2 rho^2 for Morse and exactly
    72 for the 12-6 potential, so a Morse cluster with rho = 6 matches the
    12-6 well curvature.
    """
    if isinstance(cluster, LennardJonesCluster):
        return 72.0
    if isinstance(cluster, MorseCluster):
        return 2.0 * cluster.rho**2
    raise ValueError(f"no pair potential for family {cluster.family!r}")
