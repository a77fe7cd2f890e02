"""Independent checks of campaign outputs.

Every check here recomputes what it needs from its own formulas (energies,
gradients, residuals, geometry) and never calls the library's evaluation.
Each takes plain arrays and returns a list of problem descriptions; an
empty list means the output checks out.

Run ``python3 bench/checks.py`` to print the closed-form ring oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Thomson optima and the LJ7 global minimum (Cambridge Cluster Database;
# Wales & Doye, J. Phys. Chem. A 101, 1997)
THOMSON_OPTIMUM = {5: 6.474691495, 6: 9.985281374}
LJ7_OPTIMUM = -16.505384


# ---------------------------------------------------------------- XY ring

def angle_key(angles):
    """Angles reduced mod 2 pi and rounded to 6 digits, so points that
    differ by whole turns compare equal."""
    c = np.mod(np.asarray(angles, dtype=float), TWO_PI)
    c[c > TWO_PI - 1e-6] = 0.0
    return tuple(float(v) for v in np.round(c, 6))


def ring_hessian(theta):
    """Hessian of sum_k 1 - cos(theta_k - theta_{k+1}) over the periodic
    ring, in the free angles (site 0 pinned at zero)."""
    L = len(theta)
    c = np.cos(theta - np.roll(theta, -1))
    h = np.zeros((L, L))
    for k in range(L):
        kn = (k + 1) % L
        h[k, k] += c[k]
        h[kn, kn] += c[k]
        h[k, kn] -= c[k]
        h[kn, k] -= c[k]
    return h[1:, 1:]


def ring_oracle(L=4):
    """Isolated stationary points of the constant-coupling XY ring in closed
    form, as a dict from angle key to (energy, index).

    Stationarity makes every bond sine equal.  A bond difference d with
    0 < |sin d| < 1 either closes the ring only on a one-parameter family
    (half the bonds at d, half at pi - d), which is singular, or forces d to
    a multiple of pi/2.  So every isolated point has all bond differences in
    {0, pi/2, pi, 3pi/2}; enumerate those, keep the stationary ones whose
    Hessian has no near-zero eigenvalue.
    """
    quarter = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
    oracle = {}
    for deltas in itertools.product(quarter, repeat=L - 1):
        last = -sum(deltas) % TWO_PI
        bonds = np.array(deltas + (last,))
        sines = np.sin(bonds)
        if np.max(sines) - np.min(sines) > 1e-12:
            continue
        theta = np.concatenate(([0.0], -np.cumsum(bonds[:-1])))
        eigs = np.linalg.eigvalsh(ring_hessian(theta))
        if np.min(np.abs(eigs)) <= 1e-6 * (1.0 + np.max(np.abs(eigs))):
            continue
        energy = float(np.sum(1.0 - np.cos(bonds)))
        oracle[angle_key(theta[1:])] = (energy, int(np.sum(eigs < 0.0)))
    return oracle


def check_ring(points, singular, oracle):
    """Non-singular points must be a subset of the closed-form oracle."""
    problems = []
    for i, (p, sing) in enumerate(zip(points, singular)):
        if not sing and angle_key(p) not in oracle:
            problems.append(f"ring point {i} {angle_key(p)} is not an isolated "
                            f"stationary point of the ring")
    return problems


# ------------------------------------------------------ disordered XY lattice

def lattice_edges(d, L):
    """Periodic nearest-neighbour bonds of a d-dimensional cubic lattice,
    axis by axis in row-major site order."""
    shape = (L,) * d
    a, b = [], []
    for axis in range(d):
        for site in itertools.product(range(L), repeat=d):
            nb = list(site)
            nb[axis] = (nb[axis] + 1) % L
            a.append(np.ravel_multi_index(site, shape))
            b.append(np.ravel_multi_index(tuple(nb), shape))
    return np.array(a), np.array(b)


def xy_gradient(x, couplings, d, L):
    """Gradient of sum_e 1 - J_e cos(theta_a - theta_b) with site 0 pinned
    at zero (periodic, gauge-fixed)."""
    a, b = lattice_edges(d, L)
    theta = np.concatenate(([0.0], np.asarray(x, dtype=float)))
    g = np.zeros(L ** d)
    for e in range(len(a)):
        s = couplings[e] * math.sin(theta[a[e]] - theta[b[e]])
        g[a[e]] += s
        g[b[e]] -= s
    return g[1:]


def check_gradsq(converged, spurious, couplings, d, L, tol=1e-10):
    """Converged points have a gradient norm within ``tol``; points reported
    as spurious minima have W = |gradient|^2 > 0."""
    problems = []
    for i, p in enumerate(converged):
        g = float(np.linalg.norm(xy_gradient(p, couplings, d, L)))
        if not g <= tol:
            problems.append(f"converged point {i}: gradient norm {g:.3e} > {tol:.0e}")
    for i, p in enumerate(spurious):
        g = xy_gradient(p, couplings, d, L)
        if not float(g @ g) > 0.0:
            problems.append(f"spurious minimum {i} has W = 0, so it is a root")
    return problems


# ------------------------------------------------------------------ clusters

def thomson_energy(x, charges):
    """Coulomb energy with charge 1 at the north pole, charge 2 at polar
    angle x[0] on the zero meridian, then (theta, phi) pairs."""
    x = np.asarray(x, dtype=float)
    th = np.concatenate(([0.0, x[0]], x[1::2]))
    ph = np.concatenate(([0.0, 0.0], x[2::2]))
    pos = np.column_stack((np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)))
    return sum(1.0 / float(np.linalg.norm(pos[i] - pos[j]))
               for i, j in itertools.combinations(range(charges), 2))


def lj_energy(x, atoms):
    """12-6 energy with atom 1 at the origin, atom 2 on the x axis, atom 3
    in the xy plane and full triples after that (epsilon = sigma = 1)."""
    x = np.asarray(x, dtype=float)
    pos = np.zeros((atoms, 3))
    pos[1, 0] = x[0]
    if atoms >= 3:
        pos[2, :2] = x[1:3]
        pos[3:] = x[3:].reshape(atoms - 3, 3)
    total = 0.0
    for i, j in itertools.combinations(range(atoms), 2):
        r6 = float(np.sum((pos[i] - pos[j]) ** 2)) ** 3
        total += 4.0 * (1.0 / (r6 * r6) - 1.0 / r6)
    return total


def check_best_energy(points, energy, reference, tol):
    """The lowest energy among ``points``, by the given energy function,
    equals ``reference`` within ``tol``."""
    if not points:
        return ["no converged points"]
    best = min(energy(p) for p in points)
    if abs(best - reference) > tol:
        return [f"best energy {best:.9f} misses the reference {reference:.9f} "
                f"by {abs(best - reference):.1e} (tolerance {tol:.0e})"]
    return []


# ------------------------------------------------------------- phi^4 census

def check_phi4(points, indices, zero_eigs, lam, mu2, tol=1e-8):
    """Decoupled lattice: every site sits at 0 or +-sqrt(6 mu2 / lam), the
    saddle index is the number of sites at 0, and no eigenvalue is zero."""
    root = math.sqrt(6.0 * mu2 / lam)
    problems = []
    for i, (p, index, zeros) in enumerate(zip(points, indices, zero_eigs)):
        p = np.asarray(p, dtype=float)
        dist = np.min(np.abs(p[:, None] - np.array([0.0, root, -root])), axis=1)
        if np.max(dist) > tol:
            problems.append(f"point {i}: a site is {np.max(dist):.1e} from every site root")
            continue
        at_zero = int(np.sum(np.abs(p) <= tol))
        if index != at_zero:
            problems.append(f"point {i}: index {index} but {at_zero} sites at zero")
        if zeros != 0:
            problems.append(f"point {i}: {zeros} zero eigenvalues, expected none")
    return problems


# ------------------------------------------------------------------ puzzles

def check_puzzle(points, piece_edges, frame_edges, columns, rows, tol=1e-6):
    """Each root puts every piece on its own cell centre, and every edge
    position then holds exactly two edges, from different owners, of one
    colour and opposite directions.

    ``piece_edges`` lists, per piece, (offset, colour, angle) triples;
    ``frame_edges`` does the same for the fixed frame.
    """
    problems = []
    for i, p in enumerate(points):
        centres = np.asarray(p, dtype=float).reshape(-1, 2)
        cells = np.round(centres - 0.5)
        if np.max(np.abs(centres - (cells + 0.5))) > tol:
            problems.append(f"root {i}: a piece is off every cell centre")
            continue
        cell_set = {(int(cx), int(cy)) for cx, cy in cells}
        if (len(cell_set) != len(centres)
                or any(not (0 <= cx < columns and 0 <= cy < rows) for cx, cy in cell_set)):
            problems.append(f"root {i}: pieces do not fill distinct cells of the grid")
            continue
        slots = {}
        placed = [("frame", np.zeros(2), frame_edges)]
        placed += [(k, c, edges) for k, (c, edges) in enumerate(zip(centres, piece_edges))]
        for owner, origin, edges in placed:
            for offset, colour, angle in edges:
                key = tuple(np.round(origin + np.asarray(offset), 6) + 0.0)
                slots.setdefault(key, []).append((owner, colour, angle))
        for key, here in sorted(slots.items()):
            if len(here) != 2:
                problems.append(f"root {i}: {len(here)} edges meet at {key}")
                break
            (o1, c1, a1), (o2, c2, a2) = here
            opposite = abs(math.remainder(a1 - a2 - math.pi, TWO_PI)) <= 1e-9
            if o1 == o2 or c1 != c2 or not opposite:
                problems.append(f"root {i}: edges at {key} do not match "
                                f"({c1} against {c2})")
                break
    return problems


# ---------------------------------------------------------------- Nash games

def _pure_payoffs(payoffs, probs, player):
    """Payoff of each pure strategy of ``player`` against the others' mixture."""
    t = payoffs[player]
    for axis in reversed(range(len(probs))):
        if axis != player:
            t = np.tensordot(t, probs[axis], axes=([axis], [0]))
    return t


def split_profile(x, dims):
    x = np.asarray(x, dtype=float)
    offsets = np.concatenate(([0], np.cumsum(dims)))
    probs = [x[offsets[i]:offsets[i + 1]] for i in range(len(dims))]
    return probs, x[offsets[-1]:]


def nash_residual(payoffs, x):
    """Stationarity system: p_ik (pi_i - u_i(k, p_-i)) for every player and
    pure strategy, then each simplex sum minus one."""
    dims = payoffs[0].shape
    probs, pis = split_profile(x, dims)
    parts = [probs[i] * (pis[i] - _pure_payoffs(payoffs, probs, i))
             for i in range(len(dims))]
    parts.append(np.array([p.sum() - 1.0 for p in probs]))
    return np.concatenate(parts)


def best_response_ok(payoffs, x, tol=1e-7):
    """Mixed profile is an equilibrium: probabilities on the simplex and
    every strategy in a player's support earns that player's best payoff."""
    probs, _ = split_profile(x, payoffs[0].shape)
    for i, p in enumerate(probs):
        if np.any(p < -tol) or abs(float(p.sum()) - 1.0) > tol:
            return False
        u = _pure_payoffs(payoffs, probs, i)
        if np.any(u[p > tol] < np.max(u) - tol):
            return False
    return True


def check_nash(payoffs, points, flagged, accept_tol):
    """Every root's recomputed residual is within ``accept_tol``, and every
    root flagged as an equilibrium passes the best-response test."""
    problems = []
    for i, (x, flag) in enumerate(zip(points, flagged)):
        r = float(np.linalg.norm(nash_residual(payoffs, x)))
        if not r <= accept_tol:
            problems.append(f"root {i}: residual {r:.3e} exceeds {accept_tol:.0e}")
        if flag and not best_response_ok(payoffs, x):
            problems.append(f"root {i} is flagged as an equilibrium but a "
                            f"player gains by deviating")
    return problems


if __name__ == "__main__":
    for key, (energy, index) in sorted(ring_oracle().items()):
        print(f"theta_1..3 = {key}  energy {energy:g}  index {index}")
