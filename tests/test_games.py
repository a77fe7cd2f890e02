import numpy as np
import pytest

from spbench.games import (
    EQUILIBRIUM_TOL,
    NashGame,
    NashInstance,
    is_equilibrium,
    matching_pennies,
    nash_residual,
    prisoners_dilemma,
)
from spbench.solvers import SolverConfig, multistart
from test_hessians import fd_gradient


def test_game_validation():
    with pytest.raises(ValueError):
        NashGame([np.zeros((2, 2))])  # one player
    with pytest.raises(ValueError):
        NashGame([np.zeros((2, 2)), np.zeros((2, 3))])  # shape mismatch
    with pytest.raises(ValueError):
        NashGame([np.zeros(2), np.zeros(2)])  # missing axes
    with pytest.raises(ValueError):
        NashGame([np.array([[np.inf, 0], [0, 0]]), np.zeros((2, 2))])


def test_matching_pennies_equilibrium_root():
    g = matching_pennies()
    probs = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    pis = np.array([0.0, 0.0])
    res = nash_residual(g, probs, pis)
    assert np.max(np.abs(res)) == 0.0
    flag, report = is_equilibrium(g, probs, pis)
    assert flag
    assert report["min_payoff_margin"] >= -1e-12


def test_pure_root_that_is_not_an_equilibrium():
    # both players on strategy 1 solves the product system but player 2
    # prefers to deviate
    g = matching_pennies()
    probs = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    pis = np.array([1.0, -1.0])
    res = nash_residual(g, probs, pis)
    assert np.max(np.abs(res)) == 0.0
    flag, report = is_equilibrium(g, probs, pis)
    assert not flag
    assert report["min_payoff_margin"] == pytest.approx(-2.0)


def test_prisoners_dilemma_equilibrium():
    g = prisoners_dilemma()
    probs = [np.array([0.0, 1.0]), np.array([0.0, 1.0])]
    pis = np.array([-2.0, -2.0])
    assert np.max(np.abs(nash_residual(g, probs, pis))) == 0.0
    flag, _ = is_equilibrium(g, probs, pis)
    assert flag
    # mutual cooperation is not even a root: the simplex rows hold but the
    # best-response margin is negative
    coop = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    flag2, report2 = is_equilibrium(g, coop, np.array([-1.0, -1.0]))
    assert not flag2
    assert report2["min_payoff_margin"] < 0


def test_is_equilibrium_allows_a_payoff_margin_of_equilibrium_tol():
    # lowering pi_1 by d leaves the residual at d / 2 and the margin at -d
    g = matching_pennies()
    probs = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    for slack, expected in ((0.5, True), (2.0, False)):
        flag, report = is_equilibrium(g, probs, np.array([-slack * EQUILIBRIUM_TOL, 0.0]))
        assert flag is expected
        assert report["min_payoff_margin"] == -slack * EQUILIBRIUM_TOL
        assert report["residual_inf"] <= EQUILIBRIUM_TOL


def test_negative_probability_rejected():
    g = matching_pennies()
    probs = [np.array([1.5, -0.5]), np.array([0.5, 0.5])]
    pis = np.array([0.0, 0.0])
    flag, report = is_equilibrium(g, probs, pis)
    assert not flag
    assert report["min_probability"] == pytest.approx(-0.5)


def test_jacobian_matches_fd():
    rng = np.random.default_rng(0)
    g = NashGame([rng.standard_normal((2, 3)), rng.standard_normal((2, 3))])
    inst = NashInstance(g)
    for _ in range(10):
        x = inst.sample_start(rng)
        jac = inst.residual_jacobian(x)
        step = 1e-6
        jf = np.zeros_like(jac)
        for k in range(inst.n):
            e = np.zeros(inst.n)
            e[k] = step
            jf[:, k] = (inst.residual(x + e) - inst.residual(x - e)) / (2 * step)
        assert np.max(np.abs(jac - jf)) < 1e-6


def test_three_player_jacobian_matches_fd():
    rng = np.random.default_rng(5)
    g = NashGame([rng.standard_normal((2, 2, 2)) for _ in range(3)])
    inst = NashInstance(g)
    assert inst.n == 9
    x = inst.sample_start(rng)
    jac = inst.residual_jacobian(x)
    step = 1e-6
    jf = np.zeros_like(jac)
    for k in range(inst.n):
        e = np.zeros(inst.n)
        e[k] = step
        jf[:, k] = (inst.residual(x + e) - inst.residual(x - e)) / (2 * step)
    assert np.max(np.abs(jac - jf)) < 1e-6


def test_energy_gradient_matches_fd():
    g = matching_pennies()
    inst = NashInstance(g)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = inst.sample_start(rng)
        ga = inst.gradient(x)
        gf = fd_gradient(inst, x)
        assert np.linalg.norm(ga - gf) / (1 + np.linalg.norm(ga)) < 1e-6


def test_instance_layout_and_label():
    g = NashGame([np.zeros((2, 3)), np.zeros((2, 3))])
    inst = NashInstance(g)
    assert inst.n == 2 + 3 + 2
    assert inst.label == "nash-2x3"
    x = np.concatenate([[0.25, 0.75], [0.2, 0.3, 0.5], [1.0, 2.0]])
    probs, pis = inst.split(x)
    assert probs[0] == pytest.approx([0.25, 0.75])
    assert probs[1] == pytest.approx([0.2, 0.3, 0.5])
    assert pis == pytest.approx([1.0, 2.0])


def test_sample_start_is_feasible():
    g = prisoners_dilemma()
    inst = NashInstance(g)
    rng = np.random.default_rng(3)
    for _ in range(20):
        probs, pis = inst.split(inst.sample_start(rng))
        for p in probs:
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0)
        assert np.all(pis >= -3.0) and np.all(pis <= 0.0)


def test_sample_start_draws_as_scalar_calls():
    # each player's dirichlet, then each pi_i as one scalar uniform call
    rng = np.random.default_rng(4)
    inst = NashInstance(NashGame([rng.uniform(-2.0, 3.0, (2, 3, 2)) for _ in range(3)]))
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        parts = [b.dirichlet(np.ones(d)) for d in inst.dims]
        pis = [b.uniform(np.min(t), np.max(t)) for t in inst.game.payoffs]
        assert inst.sample_start(a).tobytes() == np.concatenate(parts + [pis]).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("shape", [(2, 2), (3, 3, 3), (9, 2), (1, 4, 2)])
def test_stacked_sampler_draws_what_dirichlet_draws(shape):
    # numpy's dirichlet at alpha 1; a player with 9 strategies sums past the
    # 8 terms where np.sum turns pairwise
    rng = np.random.default_rng(sum(shape))
    inst = NashInstance(NashGame([rng.uniform(-2.0, 3.0, shape) for _ in shape]))
    for seed in range(40):
        mine = [np.random.default_rng((seed, i)) for i in range(7)]
        theirs = [np.random.default_rng((seed, i)) for i in range(7)]
        rows = inst.sample_start_batch(mine)
        assert rows.shape == (7, inst.n)
        for row, b in zip(rows, theirs):
            parts = [b.dirichlet(np.ones(d)) for d in inst.dims]
            pis = [b.uniform(np.min(t), np.max(t)) for t in inst.game.payoffs]
            assert row.tobytes() == np.concatenate(parts + [pis]).tobytes()
        assert [a.bit_generator.state for a in mine] == [b.bit_generator.state for b in theirs]
    assert inst.sample_start_batch([]).shape == (0, inst.n)


def test_residual_shape_checks():
    g = matching_pennies()
    with pytest.raises(ValueError):
        nash_residual(g, [np.array([0.5, 0.5])], np.zeros(2))
    with pytest.raises(ValueError):
        nash_residual(g, [np.array([0.5, 0.5]), np.array([1.0])], np.zeros(2))
    with pytest.raises(ValueError):
        nash_residual(g, [np.array([0.5, 0.5])] * 2, np.zeros(3))


def test_hessian_finite_at_sample_starts():
    rng = np.random.default_rng(8)
    for shape in ((2, 2), (3, 3, 3), (2, 3, 2, 2)):
        inst = NashInstance(NashGame([rng.uniform(-1.0, 1.0, shape) for _ in shape]))
        for _ in range(10):
            h = inst.hessian(inst.sample_start(rng))
            assert h.shape == (inst.n, inst.n)
            assert np.all(np.isfinite(h))


@pytest.mark.parametrize("shape", [(2, 2), (3, 3, 3), (2, 3, 2, 2)])
def test_instance_never_rechecks_the_profile(shape, monkeypatch):
    # NashInstance validates once, in split; check_profile serves only the
    # public (probs, pis) functions
    rng = np.random.default_rng(8)
    inst = NashInstance(NashGame([rng.uniform(-1.0, 1.0, shape) for _ in shape]))

    def refuse(self, probs):
        raise AssertionError("check_profile reached")

    monkeypatch.setattr(NashGame, "check_profile", refuse)
    for i in range(5):
        x = inst.sample_start(np.random.default_rng((4400, i)))
        inst.residual(x)
        inst.residual_jacobian(x)
        inst.hessian(x)
    result = multistart(inst, SolverConfig(method="newton", starts=5, seed=3))
    assert result.stats.converged == 5  # every start was classified
    # the patch is live: the public functions reach it
    with pytest.raises(AssertionError):
        nash_residual(inst.game, *inst.split(x))
