"""Nash equilibrium systems for finite n-player games in mixed strategies.

The stationarity system stacks, for every player i and every pure strategy k,
the product p_ik * (pi_i - payoff of pure k against the others' mixture),
followed by one simplex equation per player (probabilities summing to one).
Every equilibrium solves the system, but the system also has roots that are
not equilibria; ``is_equilibrium`` separates them by checking that no pure
deviation pays more than pi_i and that no probability is negative.

``NashInstance`` is the one implementation of the system.  It contracts the
payoff tensors once per stack of points, into the pair matrices from which
the responses, the Jacobian and the curvature all follow.  The functions on a
profile (``nash_residual``, ``is_equilibrium``) check it with
``NashGame.check_profile`` and call the instance.
"""

from __future__ import annotations

import math

import numpy as np

from .core import RootSystem, _checked, _uniform_rows

# the slack of ``is_equilibrium``: on the residual, the probabilities and the payoff margins
EQUILIBRIUM_TOL = 1e-9


class NashGame:
    """An n-player game given by one payoff tensor per player, each of shape
    (d_1, ..., d_n) indexed by the pure strategies of all players."""

    def __init__(self, payoffs):
        if len(payoffs) < 2:
            raise ValueError("need at least 2 players")
        payoffs = list(payoffs)
        for i, t in enumerate(payoffs):
            try:
                payoffs[i] = np.asarray(t, dtype=float)
            except ValueError:  # ragged nested lists, or entries that are no numbers
                raise ValueError(f"player {i + 1} tensor must be a rectangular array of "
                                 f"numbers") from None
        shape = payoffs[0].shape
        if len(shape) != len(payoffs):
            raise ValueError(f"payoff tensors must have one axis per player: "
                             f"got {len(payoffs)} players but shape {shape}")
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
                raise ValueError(f"player {i + 1} strategy vector has shape {p.shape}, "
                                 f"expected ({self.shape[i]},)")
            out.append(p)
        return out

    def _contract(self, t, vectors, keep):
        """Tensor ``t`` contracted on every axis not in ``keep`` with that
        axis's vector, per row of the (m, d_axis) stacks ``vectors``, by one
        stacked matrix-vector product per axis.  The result has a row axis
        (of length 1 if nothing is contracted), then the kept axes in order."""
        t = t[None]
        for axis in reversed(range(self.players)):
            if axis not in keep:
                t = np.moveaxis(t, axis + 1, -1)
                shape = t.shape[:-1]
                t = t.reshape(shape[0], math.prod(shape[1:]), t.shape[-1])
                t = t @ vectors[axis][:, :, None]
                t = t.reshape((len(vectors[axis]),) + shape[1:])
        return t


def _checked_point(game, probs, pis):
    """The flat ``NashInstance`` point of a profile, once it has been checked."""
    probs = game.check_profile(probs)
    pis = np.asarray(pis, dtype=float)
    if pis.shape != (game.players,):
        raise ValueError(f"expected {game.players} payoff variables, got shape {pis.shape}")
    return np.concatenate(probs + [pis])


def nash_residual(game, probs, pis):
    """Stationarity residual: the product equations for every (player, pure
    strategy) pair in player order, then the simplex sums minus one."""
    return NashInstance(game).residual(_checked_point(game, probs, pis))


def is_equilibrium(game, probs, pis):
    """Decide whether a stationarity root is an equilibrium.

    Requires |residual| <= EQUILIBRIUM_TOL, and every probability and every
    margin pi_i minus pure-deviation payoff >= -EQUILIBRIUM_TOL.
    Returns (flag, report) where the report carries the extreme values that
    the decision was based on.
    """
    inst = NashInstance(game)
    probs, pis, _, resp = inst._evaluate(_checked_point(game, probs, pis)[None], every_pair=False)
    res = inst._residual(probs, pis, resp)
    report = {
        "residual_inf": float(np.max(np.abs(res))),
        "min_probability": float(min(np.min(p) for p in probs)),
        "min_payoff_margin": float(min(pi - np.max(r) for pi, r in zip(pis[0], resp))),
    }
    flag = (report["residual_inf"] <= EQUILIBRIUM_TOL
            and report["min_probability"] >= -EQUILIBRIUM_TOL
            and report["min_payoff_margin"] >= -EQUILIBRIUM_TOL)
    report["equilibrium"] = flag
    return flag, report


class NashInstance(RootSystem):
    """Flat-vector view of a game's stationarity system.

    Variables: strategy blocks in player order followed by one payoff value
    per player.  The scalar landscape is the squared residual norm, so
    descent methods can run on it and classification sees roots as minima.
    The only check is ``check_points``, which fixes every block.
    """

    family = "nash"

    def __init__(self, game, label=None):
        self.game = game
        self.dims = list(game.shape)
        ends = np.cumsum(self.dims).tolist()
        self._blocks = [slice(e - d, e) for d, e in zip(self.dims, ends)]
        self._strat = ends[-1]
        # sample_start_batch draws each pi_i uniformly within player i's payoff range
        lo, hi = np.array([(np.min(t), np.max(t)) for t in game.payoffs]).T
        self._pi_lo, self._pi_span = lo, hi - lo
        if label is None:
            label = "nash-" + "x".join(str(d) for d in self.dims)
        super().__init__(self._strat + game.players, label)

    def split(self, x):
        x = self.check_point(x)
        return [x[b] for b in self._blocks], x[self._strat:]

    def _evaluate(self, X, every_pair=True):
        """Per row of the stack ``X``: the strategies probs[i] (m x d_i), the
        payoff variables (m x players), the pair matrices pairs[i][m] (d_i x
        d_m: player i's payoff tensor contracted with every strategy but
        those of players i and m) and the responses resp[i] = pairs[i][m] @
        p_m, m the first player other than i.  Without ``every_pair`` only
        the pairs that the responses need are built."""
        X = self.check_points(X)
        probs = [X[:, b] for b in self._blocks]
        pis = X[:, self._strat:]
        players = self.game.players
        first = [1 if i == 0 else 0 for i in range(players)]
        pairs = [[None] * players for _ in range(players)]
        for i in range(players):
            for m in range(players) if every_pair else (first[i],):
                if m != i:
                    t = self.game._contract(self.game.payoffs[i], probs, (i, m))
                    pairs[i][m] = t if i < m else t.swapaxes(1, 2)
        resp = [(pairs[i][m] @ probs[m][:, :, None])[:, :, 0] for i, m in enumerate(first)]
        return probs, pis, pairs, resp

    def _residual(self, probs, pis, resp):
        return np.concatenate([p * (pi[:, None] - r) for p, pi, r in zip(probs, pis.T, resp)]
                              + [np.stack([p.sum(axis=1) - 1.0 for p in probs], axis=1)], axis=1)

    def _jacobian(self, probs, pis, pairs, resp):
        jac = np.zeros((len(pis), self.n, self.n))
        for i, bi in enumerate(self._blocks):
            own = np.arange(bi.start, bi.stop)
            jac[:, own, own] = pis[:, i, None] - resp[i]
            for m, bm in enumerate(self._blocks):
                if m != i:
                    jac[:, bi, bm] -= probs[i][:, :, None] * pairs[i][m]
            jac[:, bi, self._strat + i] = probs[i]
            jac[:, self._strat + i, bi] = 1.0
        return jac

    def _curvature(self, probs, pairs, weights):
        """sum_k w_k grad^2 f_k over the residual rows, per row of the
        weights.  Row (i, k) is p_ik (pi_i - R_ik), R_ik multilinear in the
        others' strategies: its second derivatives are 1 against pi_i, -P_im
        against player m != i, -p_ik d^2 R_ik against two other players and
        zero elsewhere."""
        w = [weights[:, b] for b in self._blocks]
        q = [wi * p for wi, p in zip(w, probs)]
        players = self.game.players
        curv = np.zeros((len(weights), self.n, self.n))
        for i, bi in enumerate(self._blocks):
            curv[:, bi, self._strat + i] = curv[:, self._strat + i, bi] = w[i]
            for m in range(i + 1, players):
                bm = self._blocks[m]
                block = -(w[i][:, :, None] * pairs[i][m]
                          + (w[m][:, :, None] * pairs[m][i]).swapaxes(1, 2))
                for other in range(players):
                    if other not in (i, m):
                        vectors = probs[:other] + [q[other]] + probs[other + 1:]
                        block -= self.game._contract(self.game.payoffs[other], vectors, (i, m))
                curv[:, bi, bm] = block
                curv[:, bm, bi] = block.swapaxes(1, 2)
        return curv

    def residual_batch(self, X):
        probs, pis, _, resp = self._evaluate(X, every_pair=False)
        return self._residual(probs, pis, resp), np.zeros(len(pis), dtype=bool)

    def residual_jacobian_batch(self, X):
        probs, pis, pairs, resp = self._evaluate(X)
        return self._jacobian(probs, pis, pairs, resp), np.zeros(len(pis), dtype=bool)

    def _jacobian_and_curvature_batch(self, X):
        probs, pis, pairs, resp = self._evaluate(X)
        curv = self._curvature(probs, pairs, self._residual(probs, pis, resp))
        return self._jacobian(probs, pis, pairs, resp), curv, np.zeros(len(pis), dtype=bool)

    @classmethod
    def from_params(cls, params, label=None):
        params = _checked(params, {"players": "an int", "strategy_counts": "a list of ints",
                                   "payoffs": "a list of numbers"})
        game = NashGame(params["payoffs"])
        counts = params["strategy_counts"]
        if list(game.shape) != counts:
            raise ValueError(f"strategy_counts {counts} do not match payoff shape {game.shape}")
        if game.players != params["players"]:
            raise ValueError("player count does not match the payoff tensors")
        return cls(game, label=label)

    def params(self):
        return {
            "players": self.game.players,
            "strategy_counts": [int(d) for d in self.dims],
            "payoffs": [t.tolist() for t in self.game.payoffs],
        }

    def sample_start_batch(self, rngs):
        # each block is rng.dirichlet(np.ones(d)) as numpy draws it at alpha 1:
        # exponentials times 1 / their left-to-right sum; one draw per start
        # gives the bits of one per block.  Then the pis, uniform
        out = np.empty((len(rngs), self.n))
        for row, rng in zip(out, rngs):
            rng.standard_exponential(out=row[:self._strat])
        for block in self._blocks:
            e = out[:, block]
            e *= 1.0 / np.add.accumulate(e, axis=1)[:, -1:]
        out[:, self._strat:] = _uniform_rows(rngs, self._pi_lo, self._pi_span, len(self._pi_lo))
        return out


def matching_pennies():
    """Zero-sum 2 x 2 game whose only equilibrium is fully mixed."""
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return NashGame([a, -a])


def prisoners_dilemma():
    """Symmetric 2 x 2 game with the single equilibrium at mutual defection."""
    a = np.array([[-1.0, -3.0], [0.0, -2.0]])
    return NashGame([a, a.T])
