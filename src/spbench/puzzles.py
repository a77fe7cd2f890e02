"""Edge-matching puzzles as polynomial and exponential root systems.

A puzzle has a fixed frame piece and a set of movable pieces.  Every edge
carries a color and an outward direction angle; a correct assembly makes each
edge coincide with exactly one partner edge of equal color pointing the
opposite way.  Two algebraic encodings turn assembly into root finding:

* linear: for every (color, direction) class, the signed sum of absolute edge
  positions must vanish, where partner-class edges enter with weight -1;
* exponential: the same signed sums with each position u replaced by
  exp(k . u) over a fixed set of integer frequency vectors k.

The linear system is only necessary.  The exponential system separates
translated fakes that the linear one accepts, because exp(k . u) responds
multiplicatively to shifts.  ``verify_geometric`` is the ground-truth check
that never consults either encoding.  ``PuzzleInstance`` is the one
implementation of both: it stacks them and computes the exponentials once per
stack of points.  ``linear_residual`` and ``exponential_residual`` are its two
blocks at one placement.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .core import EvaluationError, RootSystem, _block_diagonal, _checked, _masked, _typed

TWO_PI = 2.0 * math.pi
# the slack of edge directions, and of the positions ``verify_geometric`` matches
ANGLE_TOL = 1e-9

DEFAULT_K_SET = tuple((kx, ky) for kx in range(-2, 3) for ky in range(-2, 3) if (kx, ky) != (0, 0))


def wrap_angle(a):
    """Reduce an angle to [0, 2*pi)."""
    a = float(a) % TWO_PI
    return 0.0 if a >= TWO_PI else a


def _circ_diff(a, b):
    """Signed circular difference a - b in (-pi, pi]."""
    d = (a - b) % TWO_PI
    if d > math.pi:
        d -= TWO_PI
    return d


class Edge:
    """One edge of a piece: offset from the piece origin, a color name and
    the outward direction angle."""

    def __init__(self, offset, color, angle):
        offset = np.asarray(offset, dtype=float)
        if offset.shape != (2,):
            raise ValueError(f"edge offset must be a 2-vector, got shape {offset.shape}")
        self.offset = offset
        self.color = str(color)
        self.angle = wrap_angle(angle)


class Piece:
    def __init__(self, edges):
        edges = list(edges)
        if not edges:
            raise ValueError("a piece needs at least one edge")
        self.edges = edges


def signed_indicator(edge, color, angle):
    """+1 if the edge belongs to class (color, angle), -1 if it belongs to
    the opposite-direction partner class, 0 otherwise."""
    if edge.color != color:
        return 0
    if abs(_circ_diff(edge.angle, angle)) <= ANGLE_TOL:
        return 1
    if abs(_circ_diff(edge.angle, angle + math.pi)) <= ANGLE_TOL:
        return -1
    return 0


def _cluster_angles(angles):
    """Representative angles, merging values within ANGLE_TOL (circularly)."""
    if not angles:
        return []
    ordered = sorted(wrap_angle(a) for a in angles)
    reps = [ordered[0]]
    for a in ordered[1:]:
        if a - reps[-1] > ANGLE_TOL:
            reps.append(a)
    if len(reps) > 1 and (reps[0] + TWO_PI) - reps[-1] <= ANGLE_TOL:
        reps.pop()
    return reps


def _find_rep(reps, angle):
    a = wrap_angle(angle)
    return next((r for r in reps if abs(_circ_diff(a, r)) <= ANGLE_TOL), None)


class Puzzle:
    """Frame piece plus movable pieces, with the class bookkeeping shared by
    both encodings.

    Rejects unbalanced edge sets at construction: every (color, direction)
    class must contain exactly as many edges as its opposite-direction
    partner, else no assembly can exist and the encodings would be lying.
    """

    def __init__(self, frame, pieces, k_set=None, label=None):
        if not isinstance(frame, Piece):
            raise ValueError("frame must be a Piece")
        pieces = list(pieces)
        if not pieces:
            raise ValueError("need at least one movable piece")
        self.frame = frame
        self.pieces = pieces
        k_set = DEFAULT_K_SET if k_set is None else k_set
        try:
            self.k_set = tuple((int(kx), int(ky)) for kx, ky in k_set)
        except (TypeError, ValueError):
            raise ValueError("k_set must be a list of int pairs") from None
        if not self.k_set or (0, 0) in self.k_set:  # k = (0, 0) gives identically zero sums
            raise ValueError("k_set must be non-empty, without (0, 0)")

        all_edges = list(frame.edges) + [e for piece in pieces for e in piece.edges]
        self.colors = sorted({e.color for e in all_edges})
        self._reps = _cluster_angles([e.angle for e in all_edges])

        # one class per unordered direction pair, keyed by the smaller angle
        counts = Counter((e.color, _find_rep(self._reps, e.angle)) for e in all_edges)
        classes = []
        for (color, rep), cnt in sorted(counts.items()):
            partner = _find_rep(self._reps, rep + math.pi)
            if cnt != counts[(color, partner)]:
                raise ValueError(f"unbalanced edge classes: ({color}, {rep:.6g}) has {cnt} "
                                 f"edges but its opposite class has {counts[(color, partner)]}")
            if (color, partner) not in classes:
                classes.append((color, rep))
        self.classes = classes
        self.label = label if label is not None else f"puzzle-{len(pieces)}p"

        # every edge in order: the frame's, then each piece's in turn
        self.edges = all_edges
        self.owner = np.repeat(np.arange(-1, len(pieces)),
                               [len(frame.edges)] + [len(p.edges) for p in pieces])
        self.offsets = np.array([e.offset for e in all_edges])
        # signed class membership, (classes x edges): each edge counts in the
        # first class with a nonzero indicator
        self.sign = np.zeros((len(classes), len(all_edges)))
        for j, e in enumerate(all_edges):
            for c, (color, rep) in enumerate(classes):
                s = signed_indicator(e, color, rep)
                if s != 0:
                    self.sign[c, j] = s
                    break

    def n_pieces(self):
        return len(self.pieces)

    def positions(self, placement):
        """Absolute position of every edge, (edges x 2), in ``edges`` order,
        for a placement (pieces x 2) or, with its leading axis, an (m,
        pieces, 2) stack of them.  The frame stays at translation zero."""
        placement = np.asarray(placement, dtype=float)
        want = (len(self.pieces), 2)
        if placement.shape[-2:] != want or placement.ndim > 3:
            raise ValueError(f"placement must have shape {want} or (m, *{want}), "
                             f"got {placement.shape}")
        frame = np.zeros(placement.shape[:-2] + (1, 2))
        shifts = np.concatenate([frame, placement], axis=-2)
        return self.offsets + shifts[..., self.owner + 1, :]


def _check_placement(puzzle, placement):
    """ValueError unless ``placement`` is one (pieces, 2) placement."""
    if np.shape(placement) != (len(puzzle.pieces), 2):
        raise ValueError(f"placement must have shape ({len(puzzle.pieces)}, 2), "
                         f"got {np.shape(placement)}")


def _blocks(puzzle, placement):
    """The linear and the exponential block of ``PuzzleInstance(puzzle)``'s
    residual at a (pieces, 2) placement."""
    _check_placement(puzzle, placement)
    return np.split(PuzzleInstance(puzzle).residual(np.ravel(placement)), [2 * len(puzzle.classes)])


def linear_residual(puzzle, placement):
    """Signed position sums, two components per class."""
    return _blocks(puzzle, placement)[0]


def exponential_residual(puzzle, placement):
    """Signed exponential sums, one component per (class, frequency) pair
    of the puzzle's ``k_set``; EvaluationError where an exponential
    overflows."""
    return _blocks(puzzle, placement)[1]


def verify_geometric(puzzle, placement):
    """Ground truth: every edge must coincide with exactly one partner edge
    of equal color and opposite direction, within ANGLE_TOL in direction
    and in position.  ValueError unless ``placement`` is (pieces, 2)."""
    _check_placement(puzzle, placement)
    placed = list(zip(puzzle.edges, puzzle.positions(placement)))
    partners = []
    for i, (ei, pi) in enumerate(placed):
        cand = [j for j, (ej, pj) in enumerate(placed)
                if j != i and ej.color == ei.color
                and abs(_circ_diff(ej.angle, ei.angle + math.pi)) <= ANGLE_TOL
                and np.max(np.abs(pj - pi)) <= ANGLE_TOL]
        if len(cand) != 1:
            return False
        partners.append(cand[0])
    # mutual partners pair the edges off, so their number is even
    return all(partners[j] == i for i, j in enumerate(partners))


def generate_grid_puzzle(columns, rows, n_colors, seed):
    """Random rectangular puzzle of unit squares inside a frame.

    Interior edge colors are drawn uniformly from the ``n_colors`` names c0,
    c1, ...; the frame contributes one inward-facing edge per boundary cell,
    all in the color "border".  Returns (puzzle, solution) where the solution
    stacks the cell centers in piece order.
    """
    if columns < 1 or rows < 1:
        raise ValueError("grid must be at least 1x1")
    if n_colors < 1:
        raise ValueError("need at least one interior color")
    rng = np.random.default_rng(seed)
    palette = [f"c{i}" for i in range(n_colors)]
    border = "border"

    vert = {(i, j): palette[rng.integers(n_colors)]
            for i in range(1, columns) for j in range(rows)}
    horiz = {(i, j): palette[rng.integers(n_colors)]
             for j in range(1, rows) for i in range(columns)}

    right, left, up, down = 0.0, math.pi, 0.5 * math.pi, 1.5 * math.pi
    cells = [(i, j) for j in range(rows) for i in range(columns)]
    pieces = [Piece([Edge((0.5, 0.0), vert.get((i + 1, j), border), right),
                     Edge((-0.5, 0.0), vert.get((i, j), border), left),
                     Edge((0.0, 0.5), horiz.get((i, j + 1), border), up),
                     Edge((0.0, -0.5), horiz.get((i, j), border), down)])
              for i, j in cells]
    frame = ([e for j in range(rows) for e in (Edge((0.0, j + 0.5), border, right),
                                               Edge((columns, j + 0.5), border, left))]
             + [e for i in range(columns) for e in (Edge((i + 0.5, 0.0), border, up),
                                                    Edge((i + 0.5, rows), border, down))])
    label = f"puzzle-{columns}x{rows}-c{n_colors}-s{seed}"
    puzzle = Puzzle(Piece(frame), pieces, label=label)
    return puzzle, np.array([(i + 0.5, j + 0.5) for i, j in cells])


class PuzzleInstance(RootSystem):
    """Root system stacking the linear equations and the exponential
    equations, both as raw sums: desk-scale puzzles keep the exponents k . u
    small, and a point where one overflows is a failed row."""

    family = "puzzle"
    _failure = "exponential overflow"
    # an edge's offset, color and angle in an instance file: their keys and rules
    _EDGE_RULES = {"b": "a list of numbers", "c": "a string", "theta": "a number"}

    def __init__(self, puzzle, label=None):
        self.puzzle = puzzle
        super().__init__(2 * len(puzzle.pieces), label if label is not None else puzzle.label)
        # starts put each piece uniformly in the frame's box widened by 1
        frame_pos = np.array([e.offset for e in puzzle.frame.edges])
        lo, hi = frame_pos.min(axis=0) - 1.0, frame_pos.max(axis=0) + 1.0
        self._draw_lo, self._draw_span = np.tile([lo, hi - lo], len(puzzle.pieces))
        self._freqs = np.array(puzzle.k_set, dtype=float)
        # sign restricted to one piece's edges, ((classes x pieces) x edges)
        owned = puzzle.owner[None, :] == np.arange(puzzle.n_pieces())[:, None]
        self._piece_sign = (puzzle.sign[:, None, :] * owned[None]).reshape(-1, len(puzzle.edges))
        per_piece = self._piece_sign.sum(axis=1).reshape(len(puzzle.classes), -1)
        self._linear_jacobian = np.kron(per_piece, np.eye(2))
        # k k^T of every frequency, flattened to (frequencies x 4)
        self._freq_outer = (self._freqs[:, :, None] * self._freqs[:, None, :]).reshape(-1, 4)

    def _exp_terms(self, X):
        """Per row of the stack ``X``: exp(k . u), (edges x frequencies), the
        edge positions u, and the mask of rows where an exponential
        overflows, whose terms are zero so that their sums stay finite."""
        X = self.check_points(X)
        pos = self.puzzle.positions(X.reshape(len(X), self.n // 2, 2))
        with np.errstate(over="ignore"):
            terms = np.exp(pos @ self._freqs.T)
        overflow = ~np.isfinite(terms).all(axis=(1, 2))
        terms[overflow] = 0.0
        return terms, pos, overflow

    def _residual(self, terms, pos):
        """The stacked residuals, and the mask of rows whose sums overflow."""
        sign, m = self.puzzle.sign, len(pos)
        with np.errstate(over="ignore"):
            out = np.concatenate([(sign @ pos).reshape(m, 2 * len(sign)),
                                  (sign @ terms).reshape(m, len(sign) * len(self._freqs))],
                                 axis=1)
        return out, ~np.isfinite(out).all(axis=1)

    def _per_piece(self, terms):
        """sum_e s_ce exp(k . u_e) over each piece's edges, (m, classes,
        pieces, frequencies)."""
        return (self._piece_sign @ terms).reshape(len(terms), len(self.puzzle.classes),
                                                  self.n // 2, len(self._freqs))

    def _jacobian(self, per_piece):
        # d/du_i sum_e s_e exp(k . u_e) = k * (sum over piece i's edges)
        expo = per_piece.transpose(0, 1, 3, 2)[..., None] * self._freqs[:, None, :]
        linear = np.broadcast_to(self._linear_jacobian, (len(expo),) + self._linear_jacobian.shape)
        rows = expo.shape[1] * expo.shape[2]
        return np.concatenate([linear, expo.reshape(len(expo), rows, self.n)], axis=1)

    def residual_batch(self, X):
        terms, pos, overflow = self._exp_terms(X)
        out, failed = self._residual(terms, pos)
        return _masked(out, overflow | failed)

    def residual_jacobian_batch(self, X):
        terms, _, overflow = self._exp_terms(X)
        return _masked(self._jacobian(self._per_piece(terms)), overflow)

    def _jacobian_and_curvature_batch(self, X):
        # the linear rows are flat; exponential row (c, k) adds f_ck k k^T
        # times piece i's share of its sum to piece i's 2 x 2 diagonal block
        terms, pos, overflow = self._exp_terms(X)
        f, failed = self._residual(terms, pos)
        per_piece = self._per_piece(terms)
        m, classes, pieces, _ = per_piece.shape
        weight = f[:, 2 * classes:].reshape(m, classes, len(self._freqs))
        blocks = np.einsum("mck,mcik->mik", weight, per_piece) @ self._freq_outer
        curv = _block_diagonal(blocks.reshape(m, pieces, 2, 2))
        return self._jacobian(per_piece), curv, overflow | failed

    @classmethod
    def from_params(cls, params, label=None):
        def piece(d, where):
            return Piece([Edge(*_checked(e, cls._EDGE_RULES, "edge ").values())
                          for e in _checked(d, {"edges": "a list"}, where)["edges"]])

        parts = _checked(params, {"frame": "a JSON object", "pieces": "a list"})
        k_set = (_typed([params["k_set"]], "a list of ints", "k_set")[0]
                 if "k_set" in params else None)
        puzzle = Puzzle(piece(parts["frame"], "frame: "),
                        [piece(p, f"piece {i}: ") for i, p in enumerate(parts["pieces"])],
                        k_set=k_set, label=label)
        return cls(puzzle, label=label)

    def params(self):
        def edge_dict(e):
            return {"b": [float(e.offset[0]), float(e.offset[1])],
                    "c": e.color, "theta": float(e.angle)}

        return {
            "frame": {"edges": [edge_dict(e) for e in self.puzzle.frame.edges]},
            "pieces": [{"edges": [edge_dict(e) for e in p.edges]}
                       for p in self.puzzle.pieces],
            "colors": list(self.puzzle.colors),
            "k_set": [list(k) for k in self.puzzle.k_set],
        }
