"""Closed-form Hessians of all seven families against finite differences,
and classification against the finite-difference Hessian's signature at the
root systems' roots.  ``fd_gradient`` and ``fd_hessian``, the
central-difference references of every test module, live here."""

import numpy as np

import spbench as sb
from spbench.core import ZERO_TOL, EvaluationError, RootSystem, classify

FD_STEP = 1e-5


def fd_gradient(instance, p):
    """Central-difference gradient of ``instance.energy`` at ``p``."""
    return _central_differences(instance, instance.energy, p, "gradient")


def fd_hessian(instance, p):
    """Central-difference Jacobian of the analytic gradient at ``p``."""
    return _central_differences(instance, instance.gradient, p, "Hessian")


def _central_differences(instance, fn, p, what):
    """(fn(p + h e_i) - fn(p - h e_i)) / (2 h) for each unit vector e_i and
    h = FD_STEP, stacked on the last axis; EvaluationError unless all are finite."""
    p = instance.check_point(p)
    columns = [(np.asarray(fn(p + e), dtype=float) - np.asarray(fn(p - e), dtype=float))
               / (2.0 * FD_STEP) for e in np.eye(instance.n) * FD_STEP]
    out = np.stack(columns, axis=-1)
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"{instance.label}: non-finite finite-difference {what}")
    return out


def _acceptance_3_instances():
    # the instances of acceptance criterion 3, then a 3- and a 4-player game
    rng0 = np.random.default_rng(2024)
    pay_a = rng0.uniform(-1.0, 1.0, (2, 3))
    pay_b = rng0.uniform(-1.0, 1.0, (2, 3))
    puz, _ = sb.generate_grid_puzzle(2, 2, 3, seed=5)
    rng1 = np.random.default_rng(2025)
    return [
        sb.Phi4Lattice(3, J=0.5),
        sb.XYLattice(2, 3, disorder="uniform-signed", seed=3),
        sb.ThomsonSphere(5),
        sb.LennardJonesCluster(4),
        sb.MorseCluster(4, rho=6.0),
        sb.NashInstance(sb.NashGame([pay_a, pay_b])),
        sb.PuzzleInstance(puz),
        sb.NashInstance(sb.NashGame([rng1.uniform(-1.0, 1.0, (3, 3, 3)) for _ in range(3)])),
        sb.NashInstance(sb.NashGame([rng1.uniform(-1.0, 1.0, (2, 3, 2, 2)) for _ in range(4)])),
    ]


def test_hessians_match_fd_for_every_family():
    instances = _acceptance_3_instances()
    assert len({inst.family for inst in instances}) == 7
    for k, inst in enumerate(instances):
        for i in range(20):
            x = inst.sample_start(np.random.default_rng((4100, k, i)))
            h = inst.hessian(x)
            assert h.shape == (inst.n, inst.n)
            scale = 1.0 + np.abs(h).max()
            assert np.abs(h - h.T).max() <= 1e-14 * scale, inst.label
            fd = fd_hessian(inst, x)
            assert np.abs(h - fd).max() <= 1e-7 * scale, inst.label
            if isinstance(inst, RootSystem):
                # far from a root the curvature term carries real weight
                f = inst.residual(x)
                assert np.linalg.norm(f) > 1e-2
                jac = inst.residual_jacobian(x)
                assert np.abs(2.0 * jac.T @ jac - fd).max() > 1e-3 * scale, inst.label


def test_jacobian_and_curvature_returns_the_residual_jacobian():
    rng = np.random.default_rng(8)
    puz, _ = sb.generate_grid_puzzle(2, 2, 3, seed=8)
    instances = [sb.NashInstance(sb.NashGame([rng.uniform(-1.0, 1.0, shape) for _ in shape]))
                 for shape in ((2, 2), (3, 3, 3), (2, 3, 2, 2))] + [sb.PuzzleInstance(puz)]
    for k, inst in enumerate(instances):
        for i in range(10):
            x = inst.sample_start(np.random.default_rng((4300, k, i)))
            jac, curv, failed = inst._jacobian_and_curvature_batch(x[None])
            assert not failed[0]
            assert jac[0].tobytes() == inst.residual_jacobian(x).tobytes(), inst.label
            assert curv.shape == (1, inst.n, inst.n)


def _fd_signature(inst, x):
    """(index, zero_eigs) of the symmetrized finite-difference Hessian at
    ``x`` under classify's ``ZERO_TOL`` rule."""
    h = fd_hessian(inst, x)
    eigs = np.linalg.eigvalsh(0.5 * (h + h.T))
    tol = ZERO_TOL * (1.0 + np.abs(eigs).max(initial=0.0))
    return int((eigs < -tol).sum()), int((np.abs(eigs) <= tol).sum())


def _assert_modes_agree(inst, x):
    analytic = classify(inst, x)
    assert (analytic.index, analytic.zero_eigs) == _fd_signature(inst, x), inst.label


def test_classify_modes_agree_at_root_system_roots():
    # the first 10 games of acceptance criterion 8, with its campaigns
    rng = np.random.default_rng(31415)
    roots = 0
    for gi in range(10):
        pay_a = rng.uniform(-1.0, 1.0, (2, 2))
        pay_b = rng.uniform(-1.0, 1.0, (2, 2))
        inst = sb.NashInstance(sb.NashGame([pay_a, pay_b]))
        res = sb.multistart(inst, sb.SolverConfig(method="newton", starts=20, seed=1000 + gi))
        for sp in res.solutions.points:
            _assert_modes_agree(inst, sp.point)
            roots += 1
    assert roots >= 10
    puz, solution = sb.generate_grid_puzzle(2, 2, 3, seed=8)
    inst = sb.PuzzleInstance(puz)
    _assert_modes_agree(inst, solution.ravel())
