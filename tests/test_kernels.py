"""The stacked kernels of the cluster and root-system families.

Every per-point method is the batch of one, so each row of a stacked call
must equal the per-point call bitwise whatever else shares the stack, and a
row that cannot be evaluated is masked alone while the per-point call
raises.  Every family's kernels also take a stack of no rows, which the
solvers pass once every start has stopped.
"""

import numpy as np
import pytest

from spbench.clusters import LennardJonesCluster, MorseCluster, ThomsonSphere
from spbench.core import EvaluationError, RootSystem, classify
from spbench.games import NashGame, NashInstance
from spbench.lattices import Phi4Lattice, XYLattice
from spbench.puzzles import PuzzleInstance, generate_grid_puzzle
from spbench.solvers import Damping, SolverConfig, Status, multistart


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


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_stack_rows_equal_per_point_calls(name):
    inst = FAMILIES[name]()
    rng = np.random.default_rng(3)
    X = np.array([inst.sample_start(rng) for _ in range(23)])
    per_point = {"residual_batch": [inst.residual(x) for x in X],
                 "residual_jacobian_batch": [inst.residual_jacobian(x) for x in X]}
    for kernel, expected in per_point.items():
        for size in (1, 7, len(X)):
            for lo in range(0, len(X), size):
                values, failed = getattr(inst, kernel)(X[lo:lo + size])
                assert not failed.any()
                assert values.flags.c_contiguous
                for i, row in enumerate(values):
                    assert _same(row, expected[lo + i]), (kernel, size, lo + i)
        # the solvers hand a kernel an empty stack once every row has stopped
        values, failed = getattr(inst, kernel)(X[:0])
        assert values.shape == (0,) + expected[0].shape and failed.shape == (0,)
    if isinstance(inst, RootSystem):
        jac, curv, failed = inst._jacobian_and_curvature_batch(X[:0])
        assert jac.shape == (0,) + per_point["residual_jacobian_batch"][0].shape
        assert curv.shape == (0, inst.n, inst.n) and failed.shape == (0,)


def _coincident(inst):
    """A point at which two particles sit on each other."""
    return np.zeros(inst.n)


CLASHES = {
    "thomson-2": (lambda: ThomsonSphere(2), _coincident),
    "thomson-5": (lambda: ThomsonSphere(5), _coincident),
    "lj-3": (lambda: LennardJonesCluster(3), lambda inst: np.array([0.0, 0.3, 0.4])),
    "lj-7": (lambda: LennardJonesCluster(7), _coincident),
    "puzzle": (lambda: PuzzleInstance(generate_grid_puzzle(2, 2, 3, seed=8)[0]),
               lambda inst: np.full(inst.n, 600.0)),
}


@pytest.mark.parametrize("name", sorted(CLASHES))
def test_a_failing_row_is_masked_alone(name):
    make, bad_point = CLASHES[name]
    inst = make()
    rng = np.random.default_rng(4)
    X = np.array([inst.sample_start(rng) for _ in range(6)])
    X[2] = bad_point(inst)
    for kernel, per_point in (("residual_batch", inst.residual),
                              ("residual_jacobian_batch", inst.residual_jacobian)):
        with np.errstate(all="ignore"):
            values, failed = getattr(inst, kernel)(X)
        assert failed.tolist() == [False, False, True, False, False, False]
        assert np.isnan(values[2]).all()
        for i in (0, 1, 3, 4, 5):
            assert _same(values[i], per_point(X[i]))
        with np.errstate(all="ignore"), pytest.raises(EvaluationError):
            per_point(X[2])


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
    for kernel in (inst.residual_batch, inst.residual_jacobian_batch):
        values, failed = kernel(np.empty((0, inst.n)))
        assert len(values) == 0 and failed.shape == (0,)


@pytest.mark.parametrize("name", ["thomson-4", "nash-2x3x2x2", "puzzle"])
def test_gradsq_campaign_ends_on_an_empty_stack(name):
    # from Newton's roots every row converges at iteration 0, and with a
    # min_step above every rung every row stops in its first line search;
    # either way gradsq's next round evaluates an empty stack
    inst = FAMILIES[name]()
    found = multistart(inst, SolverConfig(starts=8, seed=1)).solutions.points
    roots = [sp.point for sp in found]
    assert roots
    res = multistart(inst, SolverConfig(method="gradsq"), starts=roots)
    assert [(out.status, out.iterations) for out in res.outcomes] == \
        [(Status.CONVERGED, 0)] * len(roots)
    stuck = SolverConfig(method="gradsq", starts=4, seed=1, damping=Damping(min_step=0.9))
    res = multistart(inst, stuck)
    assert [(out.status, out.iterations) for out in res.outcomes] == [(Status.DIVERGED, 0)] * 4
