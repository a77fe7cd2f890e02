"""Particle-cluster families: point charges on the unit sphere, and free
atomic clusters bound by Lennard-Jones or Morse pair potentials.

Rigid-body freedom is removed by construction rather than by constraints.
Sphere charges use spherical angles with the first charge pinned to the north
pole and the second to the zero-azimuth meridian.  Free clusters pin the
first atom to the origin, the second to the x-axis, and the third to the
xy-plane.  Gradients are analytic; Hessians fall back to the shared central
difference of the gradient.
"""

from __future__ import annotations

import math

import numpy as np

from .core import EvaluationError, ProblemInstance

_COINCIDENCE_TOL = 1e-12


def _pair_distances(pos, pairs, label=None):
    """Separation vectors, the distance matrix and the lengths of the pairs
    ``pairs`` (upper-triangle indices).  With a label, coincident particles
    raise EvaluationError."""
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    lengths = dist[pairs]
    if label is not None and np.any(lengths < _COINCIDENCE_TOL):
        raise EvaluationError(f"{label}: coincident particles (pair distance < {_COINCIDENCE_TOL})")
    return diff, dist, lengths


class ThomsonSphere(ProblemInstance):
    """Coulomb energy sum(1/r_ij) of N unit charges confined to the unit sphere.

    Charge 1 sits at (0, 0, 1).  Charge 2 has one polar angle (azimuth fixed
    at zero).  Charges 3..N carry a polar and an azimuthal angle each, giving
    2N - 3 variables.
    """

    family = "thomson"

    def __init__(self, charges, label=None):
        charges = int(charges)
        if charges < 2:
            raise ValueError(f"need at least 2 charges, got {charges}")
        super().__init__(2 * charges - 3, label if label is not None else f"thomson-{charges}")
        self.charges = charges
        self._pairs = np.triu_indices(charges, k=1)

    def positions(self, p):
        p = self.check_point(p)
        pos = np.empty((self.charges, 3))
        pos[0] = (0.0, 0.0, 1.0)
        pos[1] = (math.sin(p[0]), 0.0, math.cos(p[0]))
        for i in range(2, self.charges):
            th = p[1 + 2 * (i - 2)]
            ph = p[2 + 2 * (i - 2)]
            pos[i] = (math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th))
        return pos

    def energy(self, p):
        _, _, lengths = _pair_distances(self.positions(p), self._pairs, self.label)
        return float(np.sum(1.0 / lengths))

    def gradient(self, p):
        p = self.check_point(p)
        diff, dist, _ = _pair_distances(self.positions(p), self._pairs, self.label)
        # d(1/r)/dx_i summed over partners j
        np.fill_diagonal(dist, 1.0)
        w = 1.0 / dist**3
        np.fill_diagonal(w, 0.0)
        cart = -(w[:, :, None] * diff).sum(axis=1)
        g = np.empty(self.n)
        th = p[0]
        g[0] = cart[1] @ np.array([math.cos(th), 0.0, -math.sin(th)])
        for i in range(2, self.charges):
            th = p[1 + 2 * (i - 2)]
            ph = p[2 + 2 * (i - 2)]
            dth = np.array([math.cos(th) * math.cos(ph), math.cos(th) * math.sin(ph), -math.sin(th)])
            dph = np.array([-math.sin(th) * math.sin(ph), math.sin(th) * math.cos(ph), 0.0])
            g[1 + 2 * (i - 2)] = cart[i] @ dth
            g[2 + 2 * (i - 2)] = cart[i] @ dph
        return g

    def params(self):
        return {"charges": self.charges}

    def sample_start(self, rng, min_separation=0.5, max_tries=10000):
        """Polar angles away from the poles, rejection-sampled so that every
        pair of charges starts at least ``min_separation`` apart."""
        for _ in range(max_tries):
            p = np.empty(self.n)
            p[0] = rng.uniform(0.1, math.pi - 0.1)
            for i in range(2, self.charges):
                p[1 + 2 * (i - 2)] = rng.uniform(0.1, math.pi - 0.1)
                p[2 + 2 * (i - 2)] = np.pi - rng.uniform(0.0, 2.0 * np.pi)
            if np.min(_pair_distances(self.positions(p), self._pairs)[2]) >= min_separation:
                return p
        raise RuntimeError(f"{self.label}: no start with pair separation >= {min_separation} "
                           f"found in {max_tries} tries")


class _PairPotentialCluster(ProblemInstance):
    """Shared embedding and chain rule for free clusters of N >= 2 atoms.

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

    def positions(self, p):
        p = self.check_point(p)
        pos = np.zeros((self.atoms, 3))
        pos[1, 0] = p[0]
        if self.atoms >= 3:
            pos[2, 0] = p[1]
            pos[2, 1] = p[2]
        for i in range(3, self.atoms):
            pos[i] = p[3 + 3 * (i - 3): 6 + 3 * (i - 3)]
        return pos

    def _pair_energy(self, r):
        raise NotImplementedError

    def _pair_dvdr(self, r):
        raise NotImplementedError

    def energy(self, p):
        _, _, lengths = _pair_distances(self.positions(p), self._pairs, self.label)
        return float(np.sum(self._pair_energy(lengths)))

    def gradient(self, p):
        diff, dist, _ = _pair_distances(self.positions(p), self._pairs, self.label)
        np.fill_diagonal(dist, 1.0)
        w = self._pair_dvdr(dist) / dist
        np.fill_diagonal(w, 0.0)
        cart = (w[:, :, None] * diff).sum(axis=1)
        # the embedding is linear, so the chain rule is a plain selection
        g = [cart[1, 0]]
        if self.atoms >= 3:
            g += [cart[2, 0], cart[2, 1]]
        for i in range(3, self.atoms):
            g += list(cart[i])
        return np.asarray(g)

    def sample_start(self, rng, min_separation=0.5, max_tries=10000):
        half_width = 2.0 if self.atoms <= 4 else 1.2 * self.atoms ** (1.0 / 3.0) + 1.0
        for _ in range(max_tries):
            p = rng.uniform(-half_width, half_width, self.n)
            if np.min(_pair_distances(self.positions(p), self._pairs)[2]) >= min_separation:
                return p
        raise RuntimeError(f"{self.label}: no start with pair separation >= {min_separation} "
                           f"found in {max_tries} tries")


class LennardJonesCluster(_PairPotentialCluster):
    """12-6 pair potential 4 eps ((sigma/r)^12 - (sigma/r)^6) summed over pairs."""

    family = "lj"

    def __init__(self, atoms, epsilon=1.0, sigma=1.0, label=None):
        if label is None:
            label = f"lj-{int(atoms)}"
            if float(epsilon) != 1.0:
                label += f"-eps{format(float(epsilon), 'g')}"
            if float(sigma) != 1.0:
                label += f"-sig{format(float(sigma), 'g')}"
        super().__init__(atoms, label)
        self.epsilon = float(epsilon)
        self.sigma = float(sigma)

    def _pair_energy(self, r):
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (s6 * s6 - s6)

    def _pair_dvdr(self, r):
        s6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (-12.0 * s6 * s6 + 6.0 * s6) / r

    def pair_minimum(self):
        """Separation and depth of the two-body well: (2^(1/6) sigma, -eps)."""
        return (2.0 ** (1.0 / 6.0) * self.sigma, -self.epsilon)

    def params(self):
        return {"atoms": self.atoms, "epsilon": self.epsilon, "sigma": self.sigma}


class MorseCluster(_PairPotentialCluster):
    """Morse pair potential eps * u * (u - 2) with u = exp(rho (1 - r/r_e))."""

    family = "morse"

    def __init__(self, atoms, rho, epsilon=1.0, r_e=1.0, label=None):
        if label is None:
            label = f"morse-{int(atoms)}-rho{format(float(rho), 'g')}"
            if float(epsilon) != 1.0:
                label += f"-eps{format(float(epsilon), 'g')}"
            if float(r_e) != 1.0:
                label += f"-re{format(float(r_e), 'g')}"
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

    def pair_minimum(self):
        """Separation and depth of the two-body well: (r_e, -eps)."""
        return (self.r_e, -self.epsilon)

    def params(self):
        return {"atoms": self.atoms, "epsilon": self.epsilon, "r_e": self.r_e, "rho": self.rho}


def pair_curvature(cluster, at_equilibrium=True):
    """Dimensionless stiffness r_min^2 v''(r_min) / eps of the pair potential
    at the bottom of its well.

    With ``at_equilibrium`` the closed forms are returned: 2 rho^2 for Morse
    and exactly 72 for the 12-6 potential, so a Morse cluster with rho = 6
    matches the 12-6 well curvature.  Otherwise the well is located
    numerically by bisection on v'(r) and the second derivative is taken by
    central differences, which serves as an independent cross-check.
    """
    if isinstance(cluster, LennardJonesCluster):
        if at_equilibrium:
            return 72.0
        lo, hi = 0.8 * cluster.sigma, 2.0 * cluster.sigma
    elif isinstance(cluster, MorseCluster):
        if at_equilibrium:
            return 2.0 * cluster.rho**2
        lo, hi = 0.5 * cluster.r_e, 2.0 * cluster.r_e
    else:
        raise ValueError(f"no pair potential for family {cluster.family!r}")

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cluster._pair_dvdr(np.array(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    r_min = 0.5 * (lo + hi)
    h = 1e-4 * r_min
    v = lambda r: float(cluster._pair_energy(np.array(r)))
    second = (v(r_min + h) - 2.0 * v(r_min) + v(r_min - h)) / (h * h)
    return r_min**2 * second / cluster.epsilon
