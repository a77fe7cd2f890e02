"""The stacked kernels of the cluster and root-system families.

Every per-point method is the batch of one, so each row of a stacked call
must equal the per-point call bitwise whatever else shares the stack.  Since
``energy`` is the batch of one too, an energy row is held instead to
``_reference_energy``, per-point arithmetic of its own.  A row that cannot
be evaluated is not finite, alone, while the per-point call raises: a
cluster row is nan because its pair distances are, and a puzzle or phi4 row
overflows by itself.  Every family's kernels also take a stack of no rows,
as float arrays of the full (0, ...) shape: the solvers no longer pass one,
but a 0-start campaign and outside callers do.
"""

import math

import numpy as np
import pytest

from spbench.clusters import (LennardJonesCluster, MorseCluster, ThomsonSphere,
                              _cartesian_gradient, _cartesian_hessian, _pair_distances)
from spbench import serialize, solvers
from spbench.core import (EvaluationError, Provenance, RootSystem,
                          StationaryPoint, _block_diagonal, classify, classify_batch)
from spbench.games import NashGame, NashInstance
from spbench.lattices import Phi4Lattice, XYLattice
from spbench.puzzles import PuzzleInstance, generate_grid_puzzle
from spbench.solvers import SolverConfig, Status, multistart
from test_hessians import _acceptance_3_instances, _fd_signature


def _nash(shape):
    rng = np.random.default_rng(len(shape) * 10 + sum(shape))
    return NashInstance(NashGame([rng.standard_normal(shape) for _ in shape]))


FAMILIES = {
    **{f"thomson-{N}": (lambda N=N: ThomsonSphere(N)) for N in range(2, 7)},
    **{f"lj-{a}": (lambda a=a: LennardJonesCluster(a)) for a in (2, 3, 4, 7)},
    **{f"morse-{a}": (lambda a=a: MorseCluster(a, rho=6.0)) for a in (2, 3, 4, 7)},
    **{"nash-" + "x".join(map(str, s)): (lambda s=s: _nash(s))
       for s in ((2, 2), (3, 3, 3), (2, 3, 2, 2))},
    "puzzle": lambda: PuzzleInstance(generate_grid_puzzle(2, 2, 3, seed=8)[0]),
}


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _reference_energy(inst, x):
    """A point's energy by per-point arithmetic: f . f of the residual as a
    1-d product for a root system; for a cluster the fsum of the pair terms
    at distances taken pair by pair."""
    if isinstance(inst, RootSystem):
        f = inst.residual(x)
        return float(f @ f)
    pos = inst.positions(x)
    i, j = inst._pairs
    return math.fsum(inst._pair_energy(np.sqrt(((pos[i] - pos[j]) ** 2).sum(axis=1))))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_stack_rows_equal_per_point_calls(name):
    inst = FAMILIES[name]()
    rng = np.random.default_rng(3)
    X = np.array([inst.sample_start(rng) for _ in range(23)])
    per_point = {"energy_batch": [_reference_energy(inst, x) for x in X],
                 "residual_batch": [inst.residual(x) for x in X],
                 "residual_jacobian_batch": [inst.residual_jacobian(x) for x in X]}
    for kernel, expected in per_point.items():
        for size in (1, 7, len(X)):
            for lo in range(0, len(X), size):
                values = getattr(inst, kernel)(X[lo:lo + size])
                assert values.flags.c_contiguous
                for i, row in enumerate(values):
                    assert _same(row, expected[lo + i]), (kernel, size, lo + i)
        # a 0-start campaign and outside callers hand a kernel an empty stack
        empty = getattr(inst, kernel)(X[:0])
        assert empty.shape == (0,) + np.shape(expected[0]) and empty.dtype == np.float64
    if isinstance(inst, RootSystem):
        jac, curv = inst._jacobian_and_curvature_batch(X[:0])
        assert jac.shape == (0,) + per_point["residual_jacobian_batch"][0].shape
        assert curv.shape == (0, inst.n, inst.n)


# The forms the cluster kernels replaced: numpy's sum over a length-3 axis,
# np.stack and a three-operand einsum, each slower than the broadcasts and
# explicit sums that keep their bits.
def _summed_distances(pos):
    diff = pos[:, :, None, :] - pos[:, None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=3))
    own = np.arange(pos.shape[1])
    dist[:, own, own] = 1.0
    return dist


def _einsum_hessian(diff, dist, radial, d2vdr2):
    along = (d2vdr2(dist) - radial) / (dist * dist)
    m, count = dist.shape[:2]
    own = np.arange(count)
    along[:, own, own] = 0.0
    hess = -np.einsum("mij,mijc,mijd->micjd", along, diff, diff)
    hess -= radial[:, :, None, :, None] * np.eye(3)[None, None, :, None, :]
    hess[:, own, :, own, :] = -hess.sum(axis=3).swapaxes(0, 1)
    return hess.reshape(m, 3 * count, 3 * count)


def _stacked_positions(chart):
    st, ct, sp, cp = chart
    return np.stack((st * cp, st * sp, ct), axis=2)


def _stacked_gradient(chart, cart):
    st, ct, sp, cp = chart
    along, across = ThomsonSphere._in_plane(cart, cp, sp)
    return np.stack((ct * along - st * cart[..., 2], st * across), axis=2)


def _stacked_hessian(chart, pos, cart, kart):
    st, ct, sp, cp = chart
    d_theta = np.stack((ct * cp, ct * sp, -st), axis=2)
    d_phi = np.stack((-st * sp, st * cp, np.zeros_like(st)), axis=2)
    jac = _block_diagonal(np.stack((d_theta, d_phi), axis=3))
    along, across = ThomsonSphere._in_plane(cart, cp, sp)
    curv = np.stack((-np.sum(cart * pos, axis=2), ct * across, ct * across, -st * along),
                    axis=2)
    return (jac.transpose(0, 2, 1) @ kart @ jac
            + _block_diagonal(curv.reshape(len(curv), st.shape[1], 2, 2)))


CLUSTER_SIZES = {
    **{f"thomson-{N}": (lambda N=N: ThomsonSphere(N)) for N in (*range(2, 8), 12)},
    **{f"lj-{a}": (lambda a=a: LennardJonesCluster(a)) for a in (*range(2, 8), 13)},
    **{f"morse-{a}": (lambda a=a: MorseCluster(a, rho=6.0)) for a in (*range(2, 8), 13)},
}


@pytest.mark.parametrize("name", sorted(CLUSTER_SIZES))
def test_cluster_kernels_keep_the_bits_of_the_forms_they_replaced(name):
    inst = CLUSTER_SIZES[name]()
    rng = np.random.default_rng(9)
    X = np.array([inst.sample_start(rng) for _ in range(23)])
    for size in (1, 7, 23):
        chart, pos = inst._chart(X[:size])
        diff, dist, _ = _pair_distances(pos, inst._pairs)
        assert _same(dist, _summed_distances(pos)), size
        cart, radial = _cartesian_gradient(diff, dist, inst._pair_dvdr)
        kart = _cartesian_hessian(diff, dist, radial, inst._pair_d2vdr2)
        # einsum sums into +0.0, so a zero entry may differ in its sign alone
        assert np.array_equal(kart, _einsum_hessian(diff, dist, radial, inst._pair_d2vdr2))
        if isinstance(inst, ThomsonSphere):
            assert _same(pos, _stacked_positions(chart)), size
            assert _same(inst._pull_gradient(chart, cart), _stacked_gradient(chart, cart)), size
            assert _same(inst._pull_hessian(chart, pos, cart, kart),
                         _stacked_hessian(chart, pos, cart, kart)), size


def _coincident(inst):
    """A point at which two particles sit on each other."""
    return np.zeros(inst.n)


CLASHES = {
    "thomson-2": (lambda: ThomsonSphere(2), _coincident),
    "thomson-5": (lambda: ThomsonSphere(5), _coincident),
    "lj-3": (lambda: LennardJonesCluster(3), lambda inst: np.array([0.0, 0.3, 0.4])),
    "lj-7": (lambda: LennardJonesCluster(7), _coincident),
    "morse-3": (lambda: MorseCluster(3, rho=6.0), lambda inst: np.array([0.0, 0.3, 0.4])),
    "morse-7": (lambda: MorseCluster(7, rho=6.0), _coincident),
    "puzzle": (lambda: PuzzleInstance(generate_grid_puzzle(2, 2, 3, seed=8)[0]),
               lambda inst: np.full(inst.n, 600.0)),
    "phi4": (lambda: Phi4Lattice(3, J=0.5), lambda inst: np.full(inst.n, 1e200)),
}


@pytest.mark.parametrize("name", sorted(CLASHES))
def test_a_failing_row_is_not_finite_alone(name):
    make, bad_point = CLASHES[name]
    inst = make()
    rng = np.random.default_rng(4)
    X = np.array([inst.sample_start(rng) for _ in range(6)])
    X[2] = bad_point(inst)
    for kernel, per_point in (("energy_batch", inst.energy),
                              ("residual_batch", inst.residual),
                              ("residual_jacobian_batch", inst.residual_jacobian),
                              ("hessian_batch", inst.hessian)):
        with np.errstate(all="ignore"):
            values = getattr(inst, kernel)(X)
        finite = np.isfinite(values).reshape(len(X), -1).all(axis=1)
        assert finite.tolist() == [True, True, False, True, True, True]
        assert np.isnan(values[2]).all() or name in ("phi4", "puzzle")
        for i in (0, 1, 3, 4, 5):
            assert _same(values[i], per_point(X[i]))
        with np.errstate(all="ignore"), pytest.raises(EvaluationError) as raised:
            per_point(X[2])
        assert str(raised.value) == f"{inst.label}: {inst._failure}"
    if not isinstance(inst, (RootSystem, Phi4Lattice)):
        # a coincident row's pair terms are never taken at zero distance
        inst.energy_batch(X)


@pytest.mark.parametrize("name", ["nash-2x2", "nash-3x3x3", "nash-2x3x2x2", "puzzle"])
def test_classify_evaluates_a_root_system_twice(name):
    # once for the Hessian and once for the residual, whose f . f is the energy
    inst = FAMILIES[name]()
    assert isinstance(inst, RootSystem)
    x = inst.sample_start(np.random.default_rng(5))
    energy, norm = inst.energy(x), float(np.linalg.norm(inst.residual(x)))
    calls = []
    for kernel in ("residual_batch", "residual_jacobian_batch", "_jacobian_and_curvature_batch"):
        def counted(X, fn=getattr(inst, kernel), kernel=kernel):
            calls.append(kernel)
            return fn(X)
        setattr(inst, kernel, counted)
    sp = classify(inst, x)
    assert sorted(calls) == ["_jacobian_and_curvature_batch", "residual_batch"]
    assert _same(sp.energy, energy) and _same(sp.residual_norm, norm)


@pytest.mark.parametrize("make", [lambda: XYLattice(2, 3, disorder="uniform-signed", seed=1),
                                  lambda: Phi4Lattice(3, J=0.5)], ids=["xy", "phi4"])
def test_lattice_kernels_take_an_empty_stack(make):
    inst = make()
    k = len(inst.residual(np.zeros(inst.n)))
    for kernel, shape in ((inst.residual_batch, (0, k)),
                          (inst.residual_jacobian_batch, (0, k, inst.n))):
        empty = kernel(np.empty((0, inst.n)))
        assert empty.shape == shape and empty.dtype == np.float64


@pytest.mark.parametrize("name", ["thomson-4", "nash-2x3x2x2", "puzzle"])
def test_every_gradsq_start_ends_in_round_0(name, monkeypatch):
    # from Newton's roots every start converges at iteration 0; with a
    # MIN_STEP above STEP0 the line search tries no rung, so every start
    # ends diverged at iteration 0
    inst = FAMILIES[name]()
    found = multistart(inst, SolverConfig(starts=8, seed=1)).solutions.points
    roots = [sp.point for sp in found]
    assert roots
    res = multistart(inst, SolverConfig(method="gradsq"), starts=roots)
    assert [(out.status, out.iterations) for out in res.outcomes] == \
        [(Status.CONVERGED, 0)] * len(roots)
    monkeypatch.setattr(solvers, "MIN_STEP", 1.5)
    res = multistart(inst, SolverConfig(method="gradsq", starts=4, seed=1))
    assert [(out.status, out.iterations) for out in res.outcomes] == [(Status.DIVERGED, 0)] * 4


def _same_point(a, b):
    return (_same(a.point, b.point) and _same(a.energy, b.energy)
            and _same(a.residual_norm, b.residual_norm)
            and (a.index, a.zero_eigs, a.singular, a.provenance)
            == (b.index, b.zero_eigs, b.singular, b.provenance))


# each row against the point classified alone, bitwise, or against the
# signature of the point's finite-difference Hessian
@pytest.mark.parametrize("reference", ["analytic", "finite-difference"])
def test_classify_batch_rows_equal_per_point_classify(reference):
    for k, inst in enumerate(_acceptance_3_instances()):
        rng = np.random.default_rng((4400, k))
        P = np.array([inst.sample_start(rng) for _ in range(5)])
        found, errors = classify_batch(inst, P, "newton", k, np.arange(len(P)))
        assert errors == {} and len(found) == len(P), (inst.label, errors)
        for i, row in enumerate(found.points()):
            assert isinstance(row, StationaryPoint), (inst.label, row)
            if reference == "analytic":
                prov = Provenance(solver="newton", seed=k, start_id=i)
                assert _same_point(row, classify(inst, P[i], prov)), (inst.label, i)
            else:
                assert (row.index, row.zero_eigs) == _fd_signature(inst, P[i]), (inst.label, i)
        found, errors = classify_batch(inst, P[:0])
        assert len(found) == 0 and errors == {}


def test_classify_batch_fails_a_masked_row_alone():
    inst = LennardJonesCluster(4)
    rng = np.random.default_rng(6)
    P = np.array([inst.sample_start(rng) for _ in range(4)])
    P[1] = 0.0  # every atom on one spot
    with np.errstate(all="ignore"):
        found, errors = classify_batch(inst, P)
        with pytest.raises(EvaluationError) as raised:
            classify(inst, P[1])
    assert list(errors) == [1] and isinstance(errors[1], EvaluationError)
    assert str(errors[1]) == str(raised.value)
    for row, i in zip(found.points(), (0, 2, 3), strict=True):
        assert _same_point(row, classify(inst, P[i]))


class CountingPhi4(Phi4Lattice):
    """Phi4 that logs every kernel call by name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def residual_batch(self, X):
        self.calls.append("residual_batch")
        return super().residual_batch(X)

    def residual_jacobian_batch(self, X):
        self.calls.append("residual_jacobian_batch")
        return super().residual_jacobian_batch(X)

    def hessian_batch(self, X):
        self.calls.append("hessian_batch")
        return super().hessian_batch(X)

    def energy_batch(self, X):
        self.calls.append("energy_batch")
        return super().energy_batch(X)


def test_a_campaign_classifies_and_verifies_in_one_stack(tmp_path):
    inst = CountingPhi4(2)
    cfg = SolverConfig(method="newton", seed=0)
    res = multistart(inst, cfg, starts=inst.grid_starts())
    assert len(res.solutions) == 81
    # the solver never asks for a Hessian, so the classification starts at
    # the first one; a gradient family's Hessian is its residual Jacobian
    one_stack = ["hessian_batch", "residual_jacobian_batch", "residual_batch", "energy_batch"]
    assert inst.calls[inst.calls.index("hessian_batch"):] == one_stack
    path = tmp_path / "res.json"
    serialize.save_result(res, cfg, path)
    inst.calls.clear()
    assert serialize.check_result(inst, serialize.load_result(path)) == []
    assert inst.calls == one_stack
