import math

import numpy as np
import pytest

from spbench.core import EvaluationError, classify
from spbench.clusters import (
    LennardJonesCluster,
    MorseCluster,
    ThomsonSphere,
    pair_curvature,
)
from spbench import clusters
from spbench.solvers import SolverConfig, draw_starts
from test_hessians import _fd_signature, fd_gradient, fd_hessian


def test_thomson_variable_counts():
    assert ThomsonSphere(2).n == 1
    assert ThomsonSphere(3).n == 3
    assert ThomsonSphere(6).n == 9
    with pytest.raises(ValueError):
        ThomsonSphere(1)


def test_thomson_two_charges_antipodal():
    inst = ThomsonSphere(2)
    x = np.array([np.pi])  # second charge at the south pole
    assert inst.energy(x) == pytest.approx(0.5)
    assert np.linalg.norm(inst.gradient(x)) < 1e-12
    sp = classify(inst, x)
    assert sp.index == 0


def test_thomson_three_charges_equilateral():
    inst = ThomsonSphere(3)
    # great-circle equilateral triangle in the x-z plane
    x = np.array([2 * np.pi / 3, 4 * np.pi / 3, 0.0])
    assert inst.energy(x) == pytest.approx(math.sqrt(3.0))
    assert np.linalg.norm(inst.gradient(x)) < 1e-10


def test_thomson_gradient_matches_fd():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4, 5):
        inst = ThomsonSphere(n)
        for _ in range(5):
            x = inst.sample_start(rng)
            ga = inst.gradient(x)
            gf = fd_gradient(inst, x)
            assert np.linalg.norm(ga - gf) / (1 + np.linalg.norm(ga)) < 1e-6


def test_thomson_coincident_charges_raise():
    inst = ThomsonSphere(2)
    x = np.array([0.0])  # both charges at the north pole
    for evaluate in (inst.energy, inst.gradient, inst.hessian, inst.residual_jacobian):
        with pytest.raises(EvaluationError):
            evaluate(x)


def _assert_hessian_matches_fd(inst, x):
    h = inst.hessian(x)
    assert h.shape == (inst.n, inst.n)
    scale = 1.0 + np.abs(h).max()
    assert np.abs(h - h.T).max() <= 1e-14 * scale
    assert np.abs(h - fd_hessian(inst, x)).max() <= 1e-7 * scale
    g = inst.gradient(x)
    assert np.abs(g - fd_gradient(inst, x)).max() <= 1e-7 * (1.0 + np.abs(g).max())


def test_thomson_hessian_matches_fd():
    rng = np.random.default_rng(5)
    for charges in (2, 3, 4, 5, 6):
        inst = ThomsonSphere(charges)
        for _ in range(5):
            _assert_hessian_matches_fd(inst, inst.sample_start(rng))
        # the last charge at, and a hair from, the south pole, where the
        # chart's azimuthal direction degenerates
        for theta in (np.pi, np.pi - 1e-5):
            x = inst.sample_start(rng)
            x[-1 if charges == 2 else -2] = theta
            _assert_hessian_matches_fd(inst, x)


def test_cluster_hessians_match_fd():
    rng = np.random.default_rng(6)
    for atoms in (2, 3, 4, 7):
        for inst in (LennardJonesCluster(atoms), MorseCluster(atoms, rho=6.0),
                     LennardJonesCluster(atoms, epsilon=2.5, sigma=0.8),
                     MorseCluster(atoms, rho=4.0, epsilon=1.5, r_e=1.2)):
            for _ in range(4):
                _assert_hessian_matches_fd(inst, inst.sample_start(rng))


def test_thomson_optima_classify_alike_in_both_hessian_modes():
    half, third = np.pi / 2, 2 * np.pi / 3
    optima = {
        # triangular bipyramid: three charges on the equator, one at the south pole
        5: (np.array([half, half, third, half, -third, np.pi, 0.0]), 6.474691495),
        # octahedron: four charges on the equator, one at the south pole
        6: (np.array([half, half, half, half, np.pi, half, -half, np.pi, 0.0]), 9.985281374),
    }
    for charges, (x, energy) in optima.items():
        inst = ThomsonSphere(charges)
        assert inst.energy(x) == pytest.approx(energy, abs=1e-8)
        assert np.linalg.norm(inst.gradient(x)) < 1e-12
        analytic = classify(inst, x)
        assert analytic.index == 0
        assert (analytic.index, analytic.zero_eigs) == _fd_signature(inst, x)


def test_thomson_sample_start_separation():
    inst = ThomsonSphere(6)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = inst.sample_start(rng)
        pos = inst.positions(x)
        d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        iu = np.triu_indices(6, 1)
        assert d[iu].min() >= 0.5
        assert np.allclose(np.linalg.norm(pos, axis=1), 1.0)


def test_cluster_sample_start_gives_up(monkeypatch):
    monkeypatch.setattr(clusters, "_MIN_SEPARATION", 100.0)
    monkeypatch.setattr(clusters, "_MAX_TRIES", 3)
    message = r"lj-3: no start with pair separation >= 100.0 found in 3 tries"
    with pytest.raises(RuntimeError, match=message):
        LennardJonesCluster(3).sample_start(np.random.default_rng(0))
    with pytest.raises(RuntimeError, match=message):
        draw_starts(LennardJonesCluster(3), SolverConfig(starts=4))


def _reference_thomson_draw(inst, rng):
    """Thomson's draw as one scalar uniform call per coordinate, in order."""
    p = np.empty(inst.n)
    p[0] = rng.uniform(0.1, math.pi - 0.1)
    for i in range(2, inst.charges):
        p[2 * i - 3] = rng.uniform(0.1, math.pi - 0.1)
        p[2 * i - 2] = np.pi - rng.uniform(0.0, 2.0 * np.pi)
    return p


def _reference_pair_draw(inst, rng):
    """A free cluster's draw as one uniform call over (-h, h), h from the atom count."""
    h = 2.0 if inst.atoms <= 4 else 1.2 * inst.atoms ** (1.0 / 3.0) + 1.0
    return rng.uniform(-h, h, inst.n)


def _reference_start(inst, rng):
    """Rejection sampling one candidate at a time on one generator."""
    draw = _reference_thomson_draw if isinstance(inst, ThomsonSphere) else _reference_pair_draw
    for _ in range(clusters._MAX_TRIES):
        p = draw(inst, rng)
        pos = inst.positions(p)
        lengths = clusters._pair_distances(pos[None], inst._pairs)[2]
        if np.min(lengths) >= clusters._MIN_SEPARATION:
            return p
    raise AssertionError("no start")


@pytest.mark.parametrize("inst", [ThomsonSphere(N) for N in range(2, 13)]
                         + [LennardJonesCluster(a) for a in (2, 3, 7)]
                         + [MorseCluster(a, rho=6.0) for a in (2, 5)], ids=lambda i: i.label)
def test_stacked_sampler_matches_one_at_a_time(inst):
    # each generator yields the candidates it yields alone, and no more
    mine = [np.random.default_rng((21, i)) for i in range(25)]
    alone = [np.random.default_rng((21, i)) for i in range(25)]
    X = inst.sample_start_batch(mine)
    assert X.shape == (25, inst.n)
    for x, rng, ref in zip(X, mine, alone):
        assert x.tobytes() == _reference_start(inst, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state
    assert inst.sample_start_batch([]).shape == (0, inst.n)


def test_cluster_variable_counts():
    assert LennardJonesCluster(2).n == 1
    assert LennardJonesCluster(3).n == 3
    assert LennardJonesCluster(4).n == 6
    assert MorseCluster(2, rho=6.0).n == 1
    with pytest.raises(ValueError):
        LennardJonesCluster(1)


def test_lj_dimer_minimum():
    inst = LennardJonesCluster(2)
    x = np.array([2 ** (1 / 6)])
    assert inst.energy(x) == pytest.approx(-1.0, abs=1e-10)
    assert abs(inst.gradient(x)[0]) < 1e-12
    sp = classify(inst, x)
    assert sp.index == 0


def test_lj_scaling_with_parameters():
    inst = LennardJonesCluster(2, epsilon=2.5, sigma=0.8)
    assert inst.energy(np.array([0.8 * 2 ** (1 / 6)])) == pytest.approx(-2.5, abs=1e-10)


def test_morse_dimer_minimum():
    inst = MorseCluster(2, rho=6.0)
    assert inst.energy(np.array([1.0])) == pytest.approx(-1.0, abs=1e-12)
    assert abs(inst.gradient(np.array([1.0]))[0]) < 1e-12


def test_morse_rho_changes_width_not_depth():
    for rho in (3.0, 6.0, 10.0):
        inst = MorseCluster(2, rho=rho)
        assert inst.energy(np.array([1.0])) == pytest.approx(-1.0, abs=1e-12)
    narrow = MorseCluster(2, rho=10.0).energy(np.array([1.3]))
    wide = MorseCluster(2, rho=3.0).energy(np.array([1.3]))
    assert narrow > wide  # stiffer well climbs faster


def test_pair_curvature_closed_forms():
    assert pair_curvature(LennardJonesCluster(2)) == 72.0
    assert pair_curvature(MorseCluster(2, rho=6.0)) == 72.0
    assert pair_curvature(MorseCluster(2, rho=3.0)) == 18.0


def _numeric_pair_curvature(cluster):
    """r_min^2 v''(r_min) / eps of a LJ or Morse pair potential, with the
    well located by bisection on v'(r) and v'' by central differences: the
    reference for the closed forms of ``pair_curvature``."""
    if isinstance(cluster, LennardJonesCluster):
        lo, hi = 0.8 * cluster.sigma, 2.0 * cluster.sigma
    else:
        lo, hi = 0.5 * cluster.r_e, 2.0 * cluster.r_e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cluster._pair_dvdr(np.array(mid)) < 0.0 else (lo, mid)
    r_min = 0.5 * (lo + hi)
    h = 1e-4 * r_min
    v = lambda r: float(cluster._pair_energy(np.array(r)))
    second = (v(r_min + h) - 2.0 * v(r_min) + v(r_min - h)) / (h * h)
    return r_min**2 * second / cluster.epsilon


def test_pair_curvature_numeric_agrees():
    for cluster in (LennardJonesCluster(2), MorseCluster(2, rho=6.0), MorseCluster(2, rho=3.0)):
        num = _numeric_pair_curvature(cluster)
        assert num == pytest.approx(pair_curvature(cluster), rel=1e-5), cluster.label


def test_cluster_gradients_match_fd():
    rng = np.random.default_rng(1)
    for inst in (LennardJonesCluster(3), LennardJonesCluster(4),
                 MorseCluster(3, rho=6.0), MorseCluster(4, rho=4.0)):
        for _ in range(5):
            x = inst.sample_start(rng)
            ga = inst.gradient(x)
            gf = fd_gradient(inst, x)
            assert np.linalg.norm(ga - gf) / (1 + np.linalg.norm(ga)) < 1e-6


def test_cluster_coincident_atoms_raise():
    inst = LennardJonesCluster(3)
    x = np.array([0.0, 0.3, 0.4])  # first and second atom both at the origin
    for evaluate in (inst.energy, inst.gradient, inst.hessian, inst.residual_jacobian):
        with pytest.raises(EvaluationError):
            evaluate(x)


def test_cluster_non_finite_hessian_raises():
    # (sigma / r)^12 overflows at every pair distance
    inst = LennardJonesCluster(3, sigma=1e30)
    with np.errstate(all="ignore"), pytest.raises(EvaluationError, match="non-finite"):
        inst.hessian(np.array([1.1, 0.5, 0.9]))


def test_lj_trimer_equilateral_is_stationary():
    inst = LennardJonesCluster(3)
    r = 2 ** (1 / 6)
    x = np.array([r, r / 2, r * math.sqrt(3) / 2])
    assert inst.energy(x) == pytest.approx(-3.0, abs=1e-9)
    assert np.linalg.norm(inst.gradient(x)) < 1e-9
    sp = classify(inst, x)
    assert sp.index == 0
