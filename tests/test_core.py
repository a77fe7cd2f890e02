import json

import numpy as np
import pytest

from spbench.core import (
    ANGULAR_MOD_2PI,
    EUCLIDEAN,
    EvaluationError,
    ProblemInstance,
    Provenance,
    StationaryPoint,
    classify,
    dedup,
    fd_gradient,
    fd_hessian,
    point_distance,
)
from spbench.serialize import _point_record, stationary_point_from_dict
from test_hessians import _fd_signature


class Quadratic(ProblemInstance):
    """V(x) = 0.5 x^T A x with a fixed symmetric A; gradient A x."""

    family = "synthetic"

    def __init__(self, diag):
        self.A = np.diag(np.asarray(diag, dtype=float))
        super().__init__(len(diag), "quad-" + "/".join(str(v) for v in diag))

    def energy_batch(self, X):
        X = self.check_points(X)
        return 0.5 * (X[:, None, :] @ self.A @ X[:, :, None])[:, 0, 0], np.zeros(len(X), dtype=bool)

    def residual_batch(self, X):
        X = self.check_points(X)
        return (self.A @ X[:, :, None])[:, :, 0], np.zeros(len(X), dtype=bool)

    def residual_jacobian_batch(self, X):
        X = self.check_points(X)
        return np.repeat(self.A[None], len(X), axis=0), np.zeros(len(X), dtype=bool)


def test_check_point_rejects_wrong_shape():
    inst = Quadratic([1.0, 2.0])
    with pytest.raises(ValueError):
        inst.check_point(np.zeros(3))
    with pytest.raises(ValueError):
        inst.energy(np.zeros((2, 1)))


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


def test_point_distance_euclidean():
    a = np.array([0.0, 3.0])
    b = np.array([4.0, 0.0])
    assert point_distance(a, b, EUCLIDEAN) == pytest.approx(5.0)


def test_point_distance_angular_wraps():
    a = np.array([0.1])
    b = np.array([2 * np.pi - 0.1])
    assert point_distance(a, b, ANGULAR_MOD_2PI) == pytest.approx(0.2)
    # interior distances agree with euclidean
    a2 = np.array([1.0, 2.0])
    b2 = np.array([1.5, 1.0])
    assert point_distance(a2, b2, ANGULAR_MOD_2PI) == pytest.approx(
        point_distance(a2, b2, EUCLIDEAN))


def _sp(label, point, energy, index=0):
    return StationaryPoint(
        instance_label=label,
        point=np.asarray(point, dtype=float),
        energy=energy,
        residual_norm=0.0,
        index=index,
        zero_eigs=0,
        singular=False,
    )


def test_dedup_merges_within_tolerance():
    pts = [
        _sp("x", [0.0, 0.0], 1.0),
        _sp("x", [1e-8, 0.0], 1.0),
        _sp("x", [2.0, 0.0], 5.0),
    ]
    out = dedup(pts, tol=1e-6)
    assert len(out) == 2
    assert out.points[0].energy == 1.0
    assert out.points[1].energy == 5.0


def test_dedup_compares_only_with_kept_representatives():
    # the middle point is within tol of the first and is dropped; the third
    # is within tol of the dropped one only, so it opens its own cluster
    tol = 1e-6
    pts = [_sp("x", [c * tol, 0.0], 1.0) for c in (0.0, 0.7, 1.4)]
    out = dedup(pts, tol=tol)
    assert [sp.point[0] for sp in out.points] == [0.0, 1.4 * tol]


def test_dedup_is_order_independent():
    rng = np.random.default_rng(5)
    base = [_sp("x", rng.uniform(-3, 3, 2), float(i)) for i in range(12)]
    noisy = base + [_sp("x", b.point + 1e-9, b.energy) for b in base[:5]]
    ref = dedup(noisy, tol=1e-6)
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(len(noisy))
        out = dedup([noisy[i] for i in perm], tol=1e-6)
        assert len(out) == len(ref)
        for a, b in zip(out.points, ref.points):
            assert np.array_equal(a.point, b.point)


def test_dedup_idempotent():
    pts = [_sp("x", [float(i), 0.0], float(i)) for i in range(6)]
    once = dedup(pts, tol=1e-6)
    twice = dedup(once.points, tol=1e-6)
    assert len(once) == len(twice)


def test_dedup_rejects_mixed_instances():
    with pytest.raises(ValueError):
        dedup([_sp("a", [0.0], 0.0), _sp("b", [0.0], 0.0)])


def test_dedup_rejects_points_of_different_lengths():
    with pytest.raises(ValueError, match=r"lengths \[2, 3\] for 'x'"):
        dedup([_sp("x", [0.0, 0.0], 0.0), _sp("x", [0.0, 0.0, 0.0], 1.0)])


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
    return [_sp("x", p, float(rng.choice(levels))) for p in pts]


@pytest.mark.parametrize("metric", [EUCLIDEAN, ANGULAR_MOD_2PI])
@pytest.mark.parametrize("seed", range(6))
def test_dedup_keeps_what_the_quadratic_scan_keeps(metric, seed):
    rng = np.random.default_rng(seed)
    n = (1, 2, 3, 9, 17, 40)[seed]
    cases = [_near_duplicates(rng, n, tol, metric) for tol in (1e-6, 0.05, 0.7)]
    cases += [[], [_sp("x", rng.uniform(-3, 3, n), 0.0)]]
    cases.append([_sp("x", np.full(n, 0.5), 1.0) for _ in range(50)])
    for tol in (1e-6, 0.05, 0.7, 0.0):
        for pts in cases:
            pts = [pts[i] for i in rng.permutation(len(pts))]
            kept = dedup(pts, tol=tol, metric=metric).points
            assert [id(sp) for sp in kept] == [id(sp) for sp in _dedup_reference(pts, tol, metric)]


def test_dedup_angular_metric_joins_wrapped_points():
    pts = [
        _sp("x", [0.0], 0.0),
        _sp("x", [2 * np.pi - 1e-9], 0.0),
    ]
    out = dedup(pts, tol=1e-6, metric=ANGULAR_MOD_2PI)
    assert len(out) == 1


def test_index_histogram():
    pts = [_sp("x", [float(i)], 0.0, index=i % 2) for i in range(5)]
    hist = dedup(pts, tol=1e-9).index_histogram()
    assert hist == {0: 3, 1: 2}


def test_stationary_point_dict_round_trip():
    sp = _sp("lbl", [0.25, -1.5], -3.25, index=2)
    back = stationary_point_from_dict("lbl", json.loads(_point_record(sp)))
    assert np.array_equal(back.point, sp.point)
    assert back.energy == sp.energy
    assert back.index == sp.index
    assert back.provenance == sp.provenance
