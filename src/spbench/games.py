"""Nash equilibrium systems for finite n-player games in mixed strategies.

The stationarity system stacks, for every player i and every pure strategy k,
the product p_ik * (pi_i - payoff of pure k against the others' mixture),
followed by one simplex equation per player (probabilities summing to one).
Every equilibrium solves the system, but the system also has roots that are
not equilibria; ``is_equilibrium`` separates them by checking that no pure
deviation pays more than pi_i and that no probability is negative.
"""

from __future__ import annotations

import numpy as np

from .core import RootSystem


class NashGame:
    """An n-player game given by one payoff tensor per player, each of shape
    (d_1, ..., d_n) indexed by the pure strategies of all players."""

    def __init__(self, payoffs):
        if len(payoffs) < 2:
            raise ValueError("need at least 2 players")
        payoffs = [np.asarray(t, dtype=float) for t in payoffs]
        shape = payoffs[0].shape
        if len(shape) != len(payoffs):
            raise ValueError(
                f"payoff tensors must have one axis per player: "
                f"got {len(payoffs)} players but shape {shape}"
            )
        for i, t in enumerate(payoffs):
            if t.shape != shape:
                raise ValueError(f"player {i + 1} tensor has shape {t.shape}, expected {shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"player {i + 1} tensor has non-finite entries")
        if any(d < 1 for d in shape):
            raise ValueError(f"every player needs at least one strategy, got {shape}")
        self.payoffs = payoffs
        self.shape = shape
        self.players = len(payoffs)

    def check_profile(self, probs):
        if len(probs) != self.players:
            raise ValueError(f"expected {self.players} strategy vectors, got {len(probs)}")
        out = []
        for i, p in enumerate(probs):
            p = np.asarray(p, dtype=float)
            if p.shape != (self.shape[i],):
                raise ValueError(
                    f"player {i + 1} strategy vector has shape {p.shape}, "
                    f"expected ({self.shape[i]},)"
                )
            out.append(p)
        return out

    def expected_payoff(self, probs, player):
        """Payoff of ``player`` when everyone plays their mixed strategy."""
        probs = self.check_profile(probs)
        t = self.payoffs[player]
        for axis in reversed(range(self.players)):
            t = np.tensordot(t, probs[axis], axes=([axis], [0]))
        return float(t)

    def pure_response_payoffs(self, probs, player):
        """Vector over ``player``'s pure strategies, each against the
        opponents' mixture."""
        probs = self.check_profile(probs)
        t = self.payoffs[player]
        for axis in reversed(range(self.players)):
            if axis == player:
                continue
            t = np.tensordot(t, probs[axis], axes=([axis], [0]))
        return np.asarray(t, dtype=float)

    def _pair_contraction(self, probs, i, m):
        """Matrix (d_i, d_m): player i's payoff tensor contracted with every
        strategy vector except those of players i and m."""
        t = self.payoffs[i]
        for axis in reversed(range(self.players)):
            if axis in (i, m):
                continue
            t = np.tensordot(t, probs[axis], axes=([axis], [0]))
        return t if i < m else t.T


def nash_residual(game, probs, pis):
    """Stationarity residual: the product equations for every (player, pure
    strategy) pair in player order, then the simplex sums minus one."""
    probs = game.check_profile(probs)
    pis = np.asarray(pis, dtype=float)
    if pis.shape != (game.players,):
        raise ValueError(f"expected {game.players} payoff variables, got shape {pis.shape}")
    parts = []
    for i in range(game.players):
        parts.append(probs[i] * (pis[i] - game.pure_response_payoffs(probs, i)))
    parts.append(np.array([p.sum() - 1.0 for p in probs]))
    return np.concatenate(parts)


def nash_residual_jacobian(game, probs, pis):
    """Analytic Jacobian of ``nash_residual`` in the flat variable order:
    strategy blocks player by player, then the payoff variables."""
    probs = game.check_profile(probs)
    pis = np.asarray(pis, dtype=float)
    dims = list(game.shape)
    total = sum(dims) + game.players
    offsets = np.concatenate(([0], np.cumsum(dims)))
    jac = np.zeros((total, total))
    row = 0
    for i in range(game.players):
        di = dims[i]
        block = slice(row, row + di)
        resp = game.pure_response_payoffs(probs, i)
        jac[block, offsets[i]:offsets[i] + di] = np.diag(pis[i] - resp)
        for m in range(game.players):
            if m == i:
                continue
            pair = game._pair_contraction(probs, i, m)
            jac[block, offsets[m]:offsets[m] + dims[m]] -= probs[i][:, None] * pair
        jac[block, sum(dims) + i] = probs[i]
        row += di
    for i in range(game.players):
        jac[row + i, offsets[i]:offsets[i] + dims[i]] = 1.0
    return jac


def is_equilibrium(game, probs, pis, tol=1e-9):
    """Decide whether a stationarity root is an equilibrium.

    Requires the residual to vanish within ``tol``, every probability to be
    >= -tol, and every margin pi_i minus pure-deviation payoff to be >= -tol.
    Returns (flag, report) where the report carries the extreme values that
    the decision was based on.
    """
    probs = game.check_profile(probs)
    res = nash_residual(game, probs, pis)
    margins = [float(pis[i] - np.max(game.pure_response_payoffs(probs, i)))
               for i in range(game.players)]
    report = {
        "residual_inf": float(np.max(np.abs(res))),
        "min_probability": float(min(np.min(p) for p in probs)),
        "min_payoff_margin": float(min(margins)),
    }
    flag = (report["residual_inf"] <= tol
            and report["min_probability"] >= -tol
            and report["min_payoff_margin"] >= -tol)
    report["equilibrium"] = flag
    return flag, report


class NashInstance(RootSystem):
    """Flat-vector view of a game's stationarity system.

    Variables: strategy blocks in player order followed by one payoff value
    per player.  The scalar landscape is the squared residual norm, so
    descent methods can run on it and classification sees roots as minima.
    """

    family = "nash"

    def __init__(self, game, label=None):
        self.game = game
        self.dims = list(game.shape)
        self.offsets = np.concatenate(([0], np.cumsum(self.dims)))
        n = int(sum(self.dims) + game.players)
        if label is None:
            label = "nash-" + "x".join(str(d) for d in self.dims)
        super().__init__(n, label)

    def split(self, x):
        x = self.check_point(x)
        probs = [x[self.offsets[i]:self.offsets[i] + self.dims[i]]
                 for i in range(self.game.players)]
        pis = x[sum(self.dims):]
        return probs, pis

    def pack(self, probs, pis):
        return np.concatenate([np.asarray(p, dtype=float) for p in probs]
                              + [np.asarray(pis, dtype=float)])

    def residual(self, x):
        probs, pis = self.split(x)
        return nash_residual(self.game, probs, pis)

    def residual_jacobian(self, x):
        probs, pis = self.split(x)
        return nash_residual_jacobian(self.game, probs, pis)

    def params(self):
        return {
            "players": self.game.players,
            "strategy_counts": [int(d) for d in self.dims],
            "payoffs": [t.tolist() for t in self.game.payoffs],
        }

    def sample_start(self, rng):
        parts = [rng.dirichlet(np.ones(d)) for d in self.dims]
        pis = np.array([rng.uniform(float(np.min(t)), float(np.max(t)))
                        for t in self.game.payoffs])
        return self.pack(parts, pis)


def matching_pennies():
    """Zero-sum 2 x 2 game whose only equilibrium is fully mixed."""
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NashGame([a, -a])


def prisoners_dilemma():
    """Symmetric 2 x 2 game with the single equilibrium at mutual defection."""
    a = np.array([[-1.0, -3.0], [0.0, -2.0]])
    return NashGame([a, a.T])
