import math

import numpy as np
import pytest

from spbench.core import classify
from spbench.solvers import SolverConfig, multistart
from spbench.lattices import (
    ANTI_PERIODIC,
    GRID_CAP,
    PERIODIC,
    Phi4Lattice,
    XYLattice,
    phi4_bezout,
    phi4_enumerate_decoupled,
)
from test_hessians import fd_gradient, fd_hessian

ROOT = math.sqrt(20.0)  # nonzero site root for lam=0.6, mu2=2


def test_phi4_site_roots():
    inst = Phi4Lattice(2)
    roots = inst.site_roots()
    assert roots == pytest.approx((0.0, ROOT, -ROOT))
    for r in roots:
        x = np.full(4, r)
        assert np.linalg.norm(inst.gradient(x)) < 1e-12


def test_phi4_decoupled_energy_per_site():
    inst = Phi4Lattice(2)
    assert inst.energy(np.zeros(4)) == 0.0
    assert inst.energy(np.full(4, ROOT)) == pytest.approx(-40.0)
    # one site at the root contributes -10
    x = np.zeros(4)
    x[2] = ROOT
    assert inst.energy(x) == pytest.approx(-10.0)


def test_phi4_gradient_and_hessian_match_fd():
    rng = np.random.default_rng(1)
    for J in (0.0, 0.3, 1.0):
        inst = Phi4Lattice(3, J=J)
        for _ in range(5):
            x = rng.uniform(-5, 5, inst.n)
            ga = inst.gradient(x)
            gf = fd_gradient(inst, x)
            assert np.linalg.norm(ga - gf) / (1 + np.linalg.norm(ga)) < 1e-7
            ha = inst.hessian(x)
            hf = fd_hessian(inst, x)
            assert np.max(np.abs(ha - hf)) < 1e-5
            assert np.array_equal(ha, ha.T)


def test_phi4_neighbor_multiset_small_lattices():
    # N=2 wraps both directions onto the same neighbor, doubling the bond
    inst = Phi4Lattice(2, J=0.7)
    h = inst.hessian(np.zeros(4))
    assert h[0, 1] == pytest.approx(-2 * 0.7)
    inst3 = Phi4Lattice(3, J=0.7)
    h3 = inst3.hessian(np.zeros(9))
    assert h3[0, 1] == pytest.approx(-0.7)


def test_phi4_uniform_points_stationary_for_any_coupling():
    # the neighbor springs cancel on uniform configurations
    for J in (0.1, 0.5, 1.0, 3.7):
        inst = Phi4Lattice(3, J=J)
        for v in (0.0, ROOT, -ROOT):
            g = inst.gradient(np.full(inst.n, v))
            assert np.max(np.abs(g)) <= 1e-12


def test_phi4_bezout_values():
    assert phi4_bezout(2) == 81
    assert phi4_bezout(3) == 3**9
    assert phi4_bezout(6) == 3**36
    assert phi4_bezout(6) > 10**17  # exact integer, no float overflow
    assert isinstance(phi4_bezout(7), int)


def test_lattice_sides_and_boundary_are_validated():
    for build in (Phi4Lattice, phi4_bezout):
        with pytest.raises(ValueError, match="grid side must be >= 1, got 0"):
            build(0)
    with pytest.raises(ValueError, match="unknown boundary condition 'open'"):
        XYLattice(1, 4, bc="open")


def test_phi4_enumeration_histogram_and_count():
    inst = Phi4Lattice(2)
    sols = phi4_enumerate_decoupled(inst)
    assert len(sols) == 81
    assert sols.index_histogram() == {0: 16, 1: 32, 2: 24, 3: 8, 4: 1}
    assert not any(sp.singular for sp in sols.points)
    energies = [sp.energy for sp in sols.points]
    assert min(energies) == pytest.approx(-40.0)
    assert max(energies) == pytest.approx(0.0)


def test_phi4_enumeration_requires_decoupled():
    with pytest.raises(ValueError):
        phi4_enumerate_decoupled(Phi4Lattice(2, J=0.1))


def test_phi4_enumeration_cap():
    # the 3^16 points of a 4 x 4 grid are more than GRID_CAP
    with pytest.raises(ValueError, match=f"exceeds cap {GRID_CAP}"):
        phi4_enumerate_decoupled(Phi4Lattice(4))


def test_phi4_grid_starts():
    inst = Phi4Lattice(2)
    starts = inst.grid_starts()
    assert len(starts) == 81
    assert all(s.shape == (4,) for s in starts)
    assert Phi4Lattice(3).grid_starts().shape == (GRID_CAP, 9)
    with pytest.raises(ValueError, match=f"exceeds cap {GRID_CAP}"):
        Phi4Lattice(4).grid_starts()


def test_phi4_index_counts_sites_at_zero():
    inst = Phi4Lattice(2)
    x = np.array([0.0, ROOT, -ROOT, 0.0])
    sp = classify(inst, x)
    assert sp.index == 2


def test_phi4_census_points_sit_at_site_roots():
    # the phi4-census campaign: every start converges, 972 of the 3^9 points
    inst = Phi4Lattice(3)
    result = multistart(inst, SolverConfig(starts=1000, seed=0))
    assert result.stats.converged == 1000
    cols = result.solutions.columns
    assert len(cols) == 972
    off = np.abs(cols.coords[:, :, None] - np.array(inst.site_roots())).min(axis=2)
    assert off.max() <= 1e-8
    np.testing.assert_array_equal(cols.index, (np.abs(cols.coords) <= 1e-8).sum(axis=1))
    assert not cols.zero_eigs.any()


def test_xy_dims_and_gauge():
    inst = XYLattice(1, 4)
    assert inst.n == 3
    assert inst.n_edges == 4
    free = XYLattice(1, 4, gauge_fixed=False)
    assert free.n == 4
    inst2 = XYLattice(2, 3)
    assert inst2.n == 8
    assert inst2.n_edges == 18
    with pytest.raises(ValueError):
        XYLattice(1, 4, bc=ANTI_PERIODIC, gauge_fixed=True)
    with pytest.raises(ValueError):
        XYLattice(4, 2)
    with pytest.raises(ValueError):
        XYLattice(1, 1)


def test_xy_l2_doubles_bonds():
    # side 2 wraps forward and backward onto the same pair
    inst = XYLattice(1, 2, gauge_fixed=False)
    assert inst.n_edges == 2
    assert inst.energy(np.array([0.0, np.pi])) == pytest.approx(4.0)


def test_xy_known_configurations():
    inst = XYLattice(1, 4)
    assert inst.energy(np.zeros(3)) == 0.0
    alt = np.array([np.pi, 0.0, np.pi])
    assert inst.energy(alt) == pytest.approx(8.0)
    assert np.linalg.norm(inst.gradient(alt)) < 1e-12
    sp0 = classify(inst, np.zeros(3))
    assert sp0.index == 0 and not sp0.singular
    sp1 = classify(inst, alt)
    assert sp1.index == 3 and not sp1.singular


def test_xy_minimum_hessian_spectrum():
    inst = XYLattice(1, 4)
    h = inst.hessian(np.zeros(3))
    eigs = np.sort(np.linalg.eigvalsh((h + h.T) / 2))
    assert eigs == pytest.approx([2 - math.sqrt(2), 2.0, 2 + math.sqrt(2)])


def test_xy_gradient_and_hessian_match_fd():
    rng = np.random.default_rng(2)
    cases = [
        XYLattice(1, 4),
        XYLattice(2, 3, disorder="uniform-signed", seed=3),
        XYLattice(1, 5, bc=ANTI_PERIODIC, gauge_fixed=False),
        XYLattice(3, 2, disorder="uniform:0.5:1.5", seed=9),
    ]
    for inst in cases:
        for _ in range(4):
            x = rng.uniform(-np.pi, np.pi, inst.n)
            ga = inst.gradient(x)
            gf = fd_gradient(inst, x)
            assert np.linalg.norm(ga - gf) / (1 + np.linalg.norm(ga)) < 1e-7
            ha = inst.hessian(x)
            hf = fd_hessian(inst, x)
            assert np.max(np.abs(ha - hf)) < 1e-5


def test_xy_energy_shift_invariance_periodic():
    # global rotation leaves the periodic energy unchanged
    inst = XYLattice(2, 3, gauge_fixed=False)
    rng = np.random.default_rng(4)
    x = rng.uniform(-np.pi, np.pi, inst.n)
    for shift in (0.3, -1.2, 2.9):
        assert inst.energy(x + shift) == pytest.approx(inst.energy(x))


def test_xy_anti_periodic_flips_wrap_bonds():
    inst = XYLattice(1, 4, bc=ANTI_PERIODIC, gauge_fixed=False)
    # all-zero angles: three bonds at cost 0, the flipped wrap bond at cost 2
    assert inst.energy(np.zeros(4)) == pytest.approx(2.0)
    assert np.linalg.norm(inst.gradient(np.zeros(4))) < 1e-12


def test_xy_disorder_seeded_and_reproducible():
    a = XYLattice(2, 3, disorder="uniform-signed", seed=1)
    b = XYLattice(2, 3, disorder="uniform-signed", seed=1)
    c = XYLattice(2, 3, disorder="uniform-signed", seed=2)
    assert np.array_equal(a.couplings, b.couplings)
    assert not np.array_equal(a.couplings, c.couplings)
    assert set(np.unique(a.couplings)) <= {-1.0, 1.0}
    u = XYLattice(2, 3, disorder="uniform:0.25:0.75", seed=5)
    assert np.all(u.couplings >= 0.25) and np.all(u.couplings <= 0.75)


def test_xy_disorder_grammar():
    # the command line's strings and the instance file's dicts name the same disorder
    for spec, expect in (("constant", {"kind": "constant", "value": 1.0}),
                         ("constant:2.5", {"kind": "constant", "value": 2.5}),
                         ({"kind": "constant", "value": 2.5}, {"kind": "constant", "value": 2.5}),
                         ("uniform-signed", {"kind": "uniform-signed"}),
                         ("uniform:0.25:0.75", {"kind": "uniform", "low": 0.25, "high": 0.75}),
                         ({"kind": "uniform", "low": 0.25, "high": 0.75},
                          {"kind": "uniform", "low": 0.25, "high": 0.75})):
        assert XYLattice(2, 3, disorder=spec, seed=5).disorder == expect
    assert np.array_equal(XYLattice(2, 3, disorder="uniform:0.25:0.75", seed=5).couplings,
                          XYLattice(2, 3, disorder={"kind": "uniform", "low": 0.25,
                                                    "high": 0.75}, seed=5).couplings)
    for bad in ("uniform", {"kind": "uniform"}, {"kind": "uniform", "low": 0.0}, "uniform:1",
                "uniform-signed:3", "constant:abc", "constant:1:2", "foo", {"value": 1.0}, (),
                3.0, ("constant", 2.5), {"kind": "constant", "value": True},
                {"kind": "uniform", "low": "0", "high": 1.0}):
        with pytest.raises(ValueError):
            XYLattice(1, 4, disorder=bad)


def test_xy_explicit_couplings_round_trip():
    base = XYLattice(2, 3, disorder="uniform-signed", seed=1)
    clone = XYLattice(2, 3, disorder="uniform-signed", seed=1,
                      couplings=base.couplings)
    x = np.random.default_rng(0).uniform(-np.pi, np.pi, base.n)
    assert clone.energy(x) == base.energy(x)
    with pytest.raises(ValueError):
        XYLattice(1, 4, couplings=[1.0, 1.0])


def test_xy_sample_start_range():
    inst = XYLattice(2, 3)
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = inst.sample_start(rng)
        assert np.all(s > -np.pi) and np.all(s <= np.pi)


def _xy_reference(inst, p):
    """Single-point XY energy, gradient and Hessian: the energy summed over
    the edges of one point, each gradient and Hessian bin summed by its own
    bincount over the edge list; the arithmetic the batch kernels keep."""
    theta = np.concatenate(([0.0], p)) if inst.gauge_fixed else np.asarray(p, dtype=float)
    delta = theta[inst.edge_a] - theta[inst.edge_b]
    energy = float(np.sum(1.0 - inst._j_eff * np.cos(delta)))
    s = inst._j_eff * np.sin(delta)
    g = (np.bincount(inst.edge_a, weights=s, minlength=inst.sites)
         - np.bincount(inst.edge_b, weights=s, minlength=inst.sites))
    c = inst._j_eff * np.cos(delta)
    a, b, m = inst.edge_a, inst.edge_b, inst.sites
    flat = np.bincount(np.concatenate((a * m + a, b * m + b, a * m + b, b * m + a)),
                       weights=np.concatenate((c, c, -c, -c)), minlength=m * m)
    h = flat.reshape(m, m)
    if inst.gauge_fixed:
        return energy, g[1:], h[1:, 1:]
    return energy, g, h


@pytest.mark.parametrize("d,L", [(1, 4), (1, 2), (2, 3), (3, 2)])
@pytest.mark.parametrize("bc,gauge", [(PERIODIC, True), (PERIODIC, False),
                                      (ANTI_PERIODIC, False)])
def test_xy_batch_kernels_match_single_points(d, L, bc, gauge):
    inst = XYLattice(d, L, bc=bc, disorder="uniform-signed", seed=3, gauge_fixed=gauge)
    X = np.random.default_rng(d * 10 + L).uniform(-4.0, 4.0, (9, inst.n))
    e, g, h = inst.energy_batch(X), inst.residual_batch(X), inst.residual_jacobian_batch(X)
    assert g.flags.c_contiguous and h.flags.c_contiguous
    for i, x in enumerate(X):
        e_ref, g_ref, h_ref = _xy_reference(inst, x)
        assert e[i].tobytes() == np.float64(e_ref).tobytes(), i
        assert inst.energy(x) == e_ref
        assert np.array_equal(g[i], g_ref)
        assert np.array_equal(h[i], h_ref)
        assert np.array_equal(inst.gradient(x), g_ref)
        assert np.array_equal(inst.hessian(x), h_ref)


def _phi4_reference(inst, p):
    """Single-point phi4 energy, gradient and Hessian: the energy's on-site
    terms and springs each summed over the point, the Hessian's springs
    added one neighbor slot at a time."""
    x = np.asarray(p, dtype=float)
    x2 = x * x
    onsite = np.sum(inst.lam / 24.0 * (x2 * x2) - 0.5 * inst.mu2 * x2)
    energy = float(onsite + 0.25 * inst.J * np.sum((x[:, None] - x[inst.neighbors]) ** 2))
    nb_sum = x[inst.neighbors].sum(axis=1)
    g = inst.lam / 6.0 * (x * x * x) + (4.0 * inst.J - inst.mu2) * x - inst.J * nb_sum
    h = np.zeros((inst.n, inst.n))
    h[np.arange(inst.n), np.arange(inst.n)] = 0.5 * inst.lam * x**2 + (4.0 * inst.J - inst.mu2)
    np.add.at(h, (np.repeat(np.arange(inst.n), 4), inst.neighbors.ravel()), -inst.J)
    return energy, g, h


@pytest.mark.parametrize("N", [1, 2, 3])
def test_phi4_batch_kernels_match_single_points(N):
    inst = Phi4Lattice(N, J=0.37)
    X = np.random.default_rng(N).uniform(-6.0, 6.0, (9, inst.n))
    e, g, h = inst.energy_batch(X), inst.residual_batch(X), inst.residual_jacobian_batch(X)
    assert g.flags.c_contiguous and h.flags.c_contiguous
    for i, x in enumerate(X):
        e_ref, g_ref, h_ref = _phi4_reference(inst, x)
        assert e[i].tobytes() == np.float64(e_ref).tobytes(), i
        assert inst.energy(x) == e_ref
        assert np.array_equal(g[i], g_ref)
        assert np.array_equal(inst.gradient(x), g[i])
        assert np.array_equal(inst.hessian(x), h[i])
        if N == 1:
            # all four slots are the site itself: the springs' -J terms are
            # summed before they meet the on-site term, so only rounding moves
            assert h[i] == pytest.approx(h_ref, rel=1e-15, abs=1e-13)
        else:
            assert np.array_equal(h[i], h_ref)
