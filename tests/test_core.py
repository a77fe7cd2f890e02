import contextlib
import json
import math

import numpy as np
import pytest

from spbench.core import (
    ANGULAR_MOD_2PI,
    EUCLIDEAN,
    EvaluationError,
    ProblemInstance,
    PointColumns,
    Provenance,
    classify,
    classify_batch,
    dedup,
)
from spbench.serialize import _point_columns, _points_text
from test_hessians import _fd_signature, fd_gradient, fd_hessian


class Quadratic(ProblemInstance):
    """V(x) = 0.5 x^T A x with a fixed symmetric A; gradient A x."""

    family = "synthetic"

    def __init__(self, diag):
        self.A = np.diag(np.asarray(diag, dtype=float))
        super().__init__(len(diag), "quad-" + "/".join(str(v) for v in diag))

    def energy_batch(self, X):
        X = self.check_points(X)
        return 0.5 * (X[:, None, :] @ self.A @ X[:, :, None])[:, 0, 0]

    def residual_batch(self, X):
        X = self.check_points(X)
        return (self.A @ X[:, :, None])[:, :, 0]

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        return np.repeat(self.A[None], len(X), axis=0)


def test_check_point_rejects_wrong_shape():
    inst = Quadratic([1.0, 2.0])
    with pytest.raises(ValueError):
        inst.check_point(np.zeros(3))
    with pytest.raises(ValueError):
        inst.energy(np.zeros((2, 1)))
    with pytest.raises(ValueError, match=r"points have shape \(2,\), expected \(m, 2\)"):
        inst.check_points(np.zeros(2))


def test_classify_batch_rejects_hessians_of_the_wrong_shape():
    class FlatHessian(Quadratic):
        def hessian_batch(self, X):
            return np.zeros((len(X), self.n))

    with pytest.raises(ValueError, match=r"Hessians have shape \(1, 2\), expected \(1, 2, 2\)"):
        classify_batch(FlatHessian([1.0, 2.0]), np.zeros((1, 2)))


def test_classify_counts_negative_eigenvalues():
    inst = Quadratic([2.0, -1.0, 3.0, -4.0])
    sp = classify(inst, np.zeros(4))
    assert sp.index == 2
    assert sp.zero_eigs == 0
    assert not sp.singular
    assert sp.energy == 0.0
    assert sp.residual_norm == 0.0


def test_classify_flags_zero_eigenvalues_as_singular():
    inst = Quadratic([1.0, 0.0, -2.0])
    sp = classify(inst, np.zeros(3))
    assert sp.singular
    assert sp.zero_eigs == 1
    assert sp.index == 1


def test_classify_zero_threshold_is_relative():
    # eigenvalue 1e-4 next to eigenvalue 1e6 falls inside 1e-6 * (1 + 1e6)
    inst = Quadratic([1e6, 1e-4])
    sp = classify(inst, np.zeros(2))
    assert sp.singular
    # alone, the same small eigenvalue is resolved as positive
    inst2 = Quadratic([1.0, 1e-4])
    sp2 = classify(inst2, np.zeros(2))
    assert not sp2.singular


def test_classify_finite_difference_mode_matches_analytic():
    inst = Quadratic([2.0, -1.0, 0.5])
    p = np.array([0.3, -0.2, 1.1])
    sp = classify(inst, p)
    assert (sp.index, sp.zero_eigs) == _fd_signature(inst, p) == (1, 0)


def test_classify_records_provenance():
    inst = Quadratic([1.0])
    prov = Provenance(solver="newton", seed=11, start_id=4)
    sp = classify(inst, np.zeros(1), provenance=prov)
    assert sp.provenance == prov


def test_fd_gradient_matches_analytic_quadratic():
    inst = Quadratic([1.5, -2.0, 0.7])
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = rng.uniform(-2, 2, 3)
        ga = inst.gradient(p)
        gf = fd_gradient(inst, p)
        assert np.linalg.norm(ga - gf) / (1 + np.linalg.norm(ga)) < 1e-8


def test_fd_hessian_matches_analytic_quadratic():
    inst = Quadratic([1.5, -2.0, 0.7])
    p = np.array([0.4, 0.1, -0.9])
    hf = fd_hessian(inst, p)
    assert np.max(np.abs(hf - inst.A)) < 1e-7


def test_fd_gradient_raises_on_non_finite_energy():
    class Bad(ProblemInstance):
        family = "synthetic"

        def __init__(self):
            super().__init__(1, "bad")

        def energy(self, p):
            return float("nan")

    with pytest.raises(EvaluationError):
        fd_gradient(Bad(), np.zeros(1))


def _columns(rows, index=None):
    """The PointColumns of instance "x" with the (point, energy) ``rows``;
    row i has start_id i, so a kept row names its input row, and saddle
    index ``index[i]``, 0 by default."""
    m = len(rows)
    return PointColumns("x", [np.asarray(p, dtype=float) for p, _ in rows], [e for _, e in rows],
                        np.zeros(m), np.zeros(m, int) if index is None else index,
                        np.zeros(m, int), np.zeros(m, bool), ["direct"] * m, [0] * m, range(m))


def test_dedup_merges_within_tolerance():
    out = dedup(_columns([([0.0, 0.0], 1.0), ([1e-8, 0.0], 1.0), ([2.0, 0.0], 5.0)]), tol=1e-6)
    assert len(out) == 2
    assert out.points[0].energy == 1.0
    assert out.points[1].energy == 5.0


def test_dedup_compares_only_with_kept_representatives():
    # the middle point is within tol of the first and is dropped; the third
    # is within tol of the dropped one only, so it opens its own cluster
    tol = 1e-6
    out = dedup(_columns([([c * tol, 0.0], 1.0) for c in (0.0, 0.7, 1.4)]), tol=tol)
    assert [sp.point[0] for sp in out.points] == [0.0, 1.4 * tol]


def test_dedup_is_order_independent():
    rng = np.random.default_rng(5)
    base = [(rng.uniform(-3, 3, 2), float(i)) for i in range(12)]
    noisy = _columns(base + [(p + 1e-9, e) for p, e in base[:5]])
    ref = dedup(noisy, tol=1e-6)
    for seed in range(4):
        out = dedup(noisy.take(np.random.default_rng(seed).permutation(len(noisy))), tol=1e-6)
        assert out.columns.coords.tobytes() == ref.columns.coords.tobytes()


def test_dedup_idempotent():
    once = dedup(_columns([([float(i), 0.0], float(i)) for i in range(6)]), tol=1e-6)
    twice = dedup(once.columns, tol=1e-6)
    assert len(once) == len(twice)


def test_dedup_rejects_points_of_different_lengths():
    with pytest.raises(ValueError, match=r"lengths \[2, 3\] for 'x'"):
        dedup(_columns([([0.0, 0.0], 0.0), ([0.0, 0.0, 0.0], 1.0)]))


def test_dedup_rejects_an_unknown_metric():
    with pytest.raises(ValueError, match="unknown metric 'manhattan'"):
        dedup(_columns([([0.0, 0.0], 0.0)]), metric="manhattan")


def _dedup_reference(points, tol, metric):
    """The quadratic greedy scan: each point, in canonical order, against
    every representative kept so far."""
    ordered = sorted(points, key=lambda sp: (sp.energy, tuple(sp.point)))
    reps = []
    kept = np.empty((len(ordered), len(ordered[0].point) if ordered else 0))
    for sp in ordered:
        d = sp.point - kept[:len(reps)]
        if metric == ANGULAR_MOD_2PI:
            d = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
        if not np.any(np.linalg.norm(d, axis=1) < tol):
            kept[len(reps)] = sp.point
            reps.append(sp)
    return reps


def _near_duplicates(rng, n, tol, metric, count=60):
    """Points in clusters a few tol wide: exact copies, neighbours at
    tol (1 +- 1e-15) along random directions, and, for the angular metric,
    clusters that straddle +-pi and whole-turn images."""
    centres = rng.uniform(-3.0, 3.0, (count // 6, n))
    if metric == ANGULAR_MOD_2PI:
        centres[::2, 0] = np.pi * rng.choice([-1.0, 1.0], len(centres[::2]))
    pts = []
    for c in centres:
        pts.append(c)
        pts.append(c.copy())
        for scale in (1.0 - 1e-15, 1.0, 1.0 + 1e-15):
            v = rng.standard_normal(n)
            pts.append(c + tol * scale * v / np.linalg.norm(v))
        pts.append(c + rng.uniform(-2.0, 2.0, n) * tol)
    if metric == ANGULAR_MOD_2PI:
        pts += [p + 2.0 * np.pi * rng.integers(-2, 3, n) for p in pts[::5]]
    levels = rng.uniform(-1.0, 1.0, 3)
    return [(p, float(rng.choice(levels))) for p in pts]


@pytest.mark.parametrize("metric", [EUCLIDEAN, ANGULAR_MOD_2PI])
@pytest.mark.parametrize("seed", range(6))
def test_dedup_keeps_what_the_quadratic_scan_keeps(metric, seed):
    rng = np.random.default_rng(seed)
    n = (1, 2, 3, 9, 17, 40)[seed]
    cases = [_near_duplicates(rng, n, tol, metric) for tol in (1e-6, 0.05, 0.7)]
    cases += [[], [(rng.uniform(-3, 3, n), 0.0)]]
    cases.append([(np.full(n, 0.5), 1.0) for _ in range(50)])
    # points near the float limit, with exact copies: the window is not finite
    # and their distances overflow, in the scan as here
    big = [(p, 0.0) for p in rng.uniform(-1.0, 1.0, (8, n)) * 1e308]
    cases.append(big + big[:3])
    for tol in (1e-6, 0.05, 0.7, 0.0, math.inf):
        for rows in cases:
            cols = _columns([rows[i] for i in rng.permutation(len(rows))])
            quiet = np.errstate(over="ignore", invalid="ignore")
            with quiet if rows is cases[-1] else contextlib.nullcontext():
                kept = dedup(cols, tol=tol, metric=metric).columns.start_id.tolist()
                ref = _dedup_reference(cols.points(), tol, metric)
            assert kept == [sp.provenance.start_id for sp in ref]


def _order_cases():
    """Points whose canonical order hangs on ties: equal energies, coordinates
    that differ only in the sign of a zero, exact duplicates, permutations of
    one vector, and angles a whole turn apart."""
    zeros = [([a, b, 1.0], 0.5) for a in (0.0, -0.0) for b in (-0.0, 0.0)]
    copies = [([1.0, 2.0, 3.0], -1.0) for _ in range(4)]
    perms = [(p, 2.0) for p in ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0],
                                [1.0, 3.0, 2.0], [3.0, 2.0, 1.0], [2.0, 1.0, 3.0])]
    turns = [([a, 0.25, -0.0], 2.0) for a in (0.5, 0.5 + 2 * np.pi, 0.5 - 2 * np.pi)]
    mixed = [([0.0, 1e-7 * i, 0.0], e) for i, e in enumerate([1.0, 0.0, 1.0, 0.0, -0.0])]
    return [zeros, copies, perms, turns, mixed, zeros + copies + perms + turns + mixed]


@pytest.mark.parametrize("metric", [EUCLIDEAN, ANGULAR_MOD_2PI])
def test_dedup_order_is_the_reference_order(metric):
    # at tol 0 every point is kept, so the result is the whole canonical
    # order; exact duplicates keep their input order
    rng = np.random.default_rng(11)
    for rows in _order_cases():
        for perm in [range(len(rows)), range(len(rows))[::-1], rng.permutation(len(rows))]:
            cols = _columns([rows[i] for i in perm])
            for tol in (0.0, 1e-6, 0.5, 3.0):
                kept = dedup(cols, tol=tol, metric=metric).columns
                ref = _dedup_reference(cols.points(), tol, metric)
                assert kept.start_id.tolist() == [sp.provenance.start_id for sp in ref], tol
                assert kept.coords.tobytes() == np.array([sp.point for sp in ref]).tobytes()
                assert kept.energy.tobytes() == np.array([sp.energy for sp in ref]).tobytes()


def test_dedup_angular_metric_joins_wrapped_points():
    out = dedup(_columns([([0.0], 0.0), ([2 * np.pi - 1e-9], 0.0)]), tol=1e-6,
                metric=ANGULAR_MOD_2PI)
    assert len(out) == 1


def test_index_histogram():
    cols = _columns([([float(i)], 0.0) for i in range(5)], index=[i % 2 for i in range(5)])
    hist = dedup(cols, tol=1e-9).index_histogram()
    assert hist == {0: 3, 1: 2}


def test_stationary_point_dict_round_trip():
    cols = PointColumns("lbl", [[0.25, -1.5]], [-3.25], [0.0], [2], [0], [False], ["direct"],
                        [0], [0])
    (sp,) = cols.points()
    (back,) = _point_columns("lbl", json.loads(_points_text(cols))).points()
    assert np.array_equal(back.point, sp.point)
    assert back.energy == sp.energy
    assert back.index == sp.index
    assert back.provenance == sp.provenance
