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
that never consults either encoding.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .core import EvaluationError, RootSystem

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-9

DEFAULT_K_SET = tuple(
    (kx, ky)
    for kx in (-2, -1, 0, 1, 2)
    for ky in (-2, -1, 0, 1, 2)
    if (kx, ky) != (0, 0)
)


def wrap_angle(a):
    """Reduce an angle to [0, 2*pi)."""
    a = float(a) % TWO_PI
    if a >= TWO_PI:
        a = 0.0
    return a


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


def signed_indicator(edge, color, angle, tol=ANGLE_TOL):
    """+1 if the edge belongs to class (color, angle), -1 if it belongs to
    the opposite-direction partner class, 0 otherwise."""
    if edge.color != color:
        return 0
    if abs(_circ_diff(edge.angle, angle)) <= tol:
        return 1
    if abs(_circ_diff(edge.angle, angle + math.pi)) <= tol:
        return -1
    return 0


def _cluster_angles(angles, tol=ANGLE_TOL):
    """Representative angles, merging values within tol (circularly)."""
    if not angles:
        return []
    ordered = sorted(wrap_angle(a) for a in angles)
    reps = [ordered[0]]
    for a in ordered[1:]:
        if a - reps[-1] > tol:
            reps.append(a)
    if len(reps) > 1 and (reps[0] + TWO_PI) - reps[-1] <= tol:
        reps.pop()
    return reps


def _find_rep(reps, angle, tol=ANGLE_TOL):
    a = wrap_angle(angle)
    return next((r for r in reps if abs(_circ_diff(a, r)) <= tol), None)


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
        self.k_set = tuple((int(kx), int(ky)) for kx, ky in (k_set or DEFAULT_K_SET))
        if not self.k_set:
            raise ValueError("frequency set must be non-empty")

        all_edges = list(frame.edges) + [e for piece in pieces for e in piece.edges]
        self.colors = sorted({e.color for e in all_edges})
        self._reps = _cluster_angles([e.angle for e in all_edges])

        counts = Counter((e.color, _find_rep(self._reps, e.angle)) for e in all_edges)
        for (color, rep), cnt in sorted(counts.items()):
            partner_cnt = counts[(color, _find_rep(self._reps, rep + math.pi))]
            if cnt != partner_cnt:
                raise ValueError(
                    f"unbalanced edge classes: ({color}, {rep:.6g}) has {cnt} edges "
                    f"but its opposite class has {partner_cnt}"
                )

        # one class per unordered direction pair, keyed by the smaller angle
        seen = set()
        classes = []
        for (color, rep) in sorted(counts):
            partner = _find_rep(self._reps, rep + math.pi)
            if (color, partner) in seen:
                continue
            seen.add((color, rep))
            classes.append((color, rep))
        self.classes = classes
        self.label = label if label is not None else f"puzzle-{len(pieces)}p"

        # edges in ``placed_edges`` order: the frame, then each piece in turn
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

    def check_placement(self, placement):
        placement = np.asarray(placement, dtype=float)
        want = (len(self.pieces), 2)
        if placement.shape != want:
            raise ValueError(f"placement must have shape {want}, got {placement.shape}")
        return placement

    def positions(self, placement):
        """Absolute position of every edge, (edges x 2), in ``edges`` order.
        The frame stays at translation zero."""
        placement = self.check_placement(placement)
        shifts = np.vstack([np.zeros((1, 2)), placement])
        return self.offsets + shifts[self.owner + 1]

    def placed_edges(self, placement):
        """All edges at absolute positions: (piece_index, edge, position).
        The frame has index -1."""
        return list(zip(self.owner.tolist(), self.edges, self.positions(placement)))


def linear_residual(puzzle, placement):
    """Signed position sums, two components per class."""
    return (puzzle.sign @ puzzle.positions(placement)).ravel()


def exponential_residual(puzzle, placement, k_set=None):
    """Signed exponential sums, one component per (class, frequency) pair.

    Each class is rescaled by its largest exponent so the evaluation stays
    in range; rescaling never moves a zero away from zero.
    """
    freqs = np.array(k_set if k_set is not None else puzzle.k_set, dtype=float).reshape(-1, 2)
    member = (puzzle.sign != 0)[:, :, None]
    exps = np.where(member, (puzzle.positions(placement) @ freqs.T)[None], -np.inf)
    shift = exps.max(axis=1, keepdims=True)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.einsum("ce,cek->ck", puzzle.sign, np.exp(exps - shift))
    if not np.all(np.isfinite(out)):
        raise EvaluationError("exponential residual overflow")
    return out.ravel()


def verify_geometric(puzzle, placement, tol=ANGLE_TOL):
    """Ground truth: every edge must coincide with exactly one partner edge
    of equal color and opposite direction, within tol in position."""
    placed = puzzle.placed_edges(placement)
    n = len(placed)
    if n % 2 != 0:
        return False
    partners = []
    for i in range(n):
        _, ei, pi = placed[i]
        cand = []
        for j in range(n):
            if j == i:
                continue
            _, ej, pj = placed[j]
            if ej.color != ei.color:
                continue
            if abs(_circ_diff(ej.angle, ei.angle + math.pi)) > tol:
                continue
            if np.max(np.abs(pj - pi)) > tol:
                continue
            cand.append(j)
        if len(cand) != 1:
            return False
        partners.append(cand[0])
    return all(partners[partners[i]] == i for i in range(n))


def exp_coordinates(placement):
    """Componentwise exponential of a placement, the coordinates in which
    the exponential encoding is polynomial.  Reporting helper only; all
    solvers and residuals work on plain positions."""
    return np.exp(np.asarray(placement, dtype=float))


def generate_grid_puzzle(columns, rows, n_colors, seed, frame_color="border"):
    """Random rectangular puzzle of unit squares inside a frame.

    Interior edge colors are drawn uniformly from ``n_colors`` names; the
    frame contributes one inward-facing edge per boundary cell, all in
    ``frame_color``.  Returns (puzzle, solution) where the solution stacks
    the cell centers in piece order.
    """
    if columns < 1 or rows < 1:
        raise ValueError("grid must be at least 1x1")
    if n_colors < 1:
        raise ValueError("need at least one interior color")
    rng = np.random.default_rng(seed)
    palette = [f"c{i}" for i in range(n_colors)]
    if frame_color in palette:
        raise ValueError("frame color collides with the interior palette")

    vert = {(i, j): palette[rng.integers(n_colors)]
            for i in range(1, columns) for j in range(rows)}
    horiz = {(i, j): palette[rng.integers(n_colors)]
             for j in range(1, rows) for i in range(columns)}

    right, left, up, down = 0.0, math.pi, 0.5 * math.pi, 1.5 * math.pi
    pieces = []
    solution = []
    for j in range(rows):
        for i in range(columns):
            edges = [
                Edge((0.5, 0.0), vert.get((i + 1, j), frame_color), right),
                Edge((-0.5, 0.0), vert.get((i, j), frame_color), left),
                Edge((0.0, 0.5), horiz.get((i, j + 1), frame_color), up),
                Edge((0.0, -0.5), horiz.get((i, j), frame_color), down),
            ]
            pieces.append(Piece(edges))
            solution.append((i + 0.5, j + 0.5))

    frame_edges = []
    for j in range(rows):
        frame_edges.append(Edge((0.0, j + 0.5), frame_color, right))
        frame_edges.append(Edge((float(columns), j + 0.5), frame_color, left))
    for i in range(columns):
        frame_edges.append(Edge((i + 0.5, 0.0), frame_color, up))
        frame_edges.append(Edge((i + 0.5, float(rows)), frame_color, down))

    label = f"puzzle-{columns}x{rows}-c{n_colors}-s{seed}"
    puzzle = Puzzle(Piece(frame_edges), pieces, label=label)
    return puzzle, np.asarray(solution, dtype=float)


class PuzzleInstance(RootSystem):
    """Root system stacking the linear equations and the raw exponential
    equations (no per-class rescaling, so the map stays smooth for
    derivative checks; desk-scale puzzles keep the exponents small)."""

    family = "puzzle"
    _START_PAD = 1.0

    def __init__(self, puzzle, label=None):
        self.puzzle = puzzle
        super().__init__(2 * len(puzzle.pieces), label if label is not None else puzzle.label)
        frame_pos = np.array([e.offset for e in puzzle.frame.edges])
        self._lo = frame_pos.min(axis=0)
        self._hi = frame_pos.max(axis=0)
        self._freqs = np.array(puzzle.k_set, dtype=float)
        # sign restricted to one piece's edges, ((classes x pieces) x edges)
        owned = puzzle.owner[None, :] == np.arange(puzzle.n_pieces())[:, None]
        self._piece_sign = (puzzle.sign[:, None, :] * owned[None]).reshape(-1, len(puzzle.edges))
        per_piece = self._piece_sign.sum(axis=1).reshape(len(puzzle.classes), -1)
        self._linear_jacobian = np.kron(per_piece, np.eye(2))

    def _exp_terms(self, x):
        """exp(k . u), (edges x frequencies), and the edge positions u."""
        pos = self.puzzle.positions(self.check_point(x).reshape(-1, 2))
        with np.errstate(over="ignore"):
            terms = np.exp(pos @ self._freqs.T)
        if not np.all(np.isfinite(terms)):
            raise EvaluationError("exponential term overflow")
        return terms, pos

    def residual(self, x):
        terms, pos = self._exp_terms(x)
        sign = self.puzzle.sign
        with np.errstate(over="ignore"):
            out = np.concatenate([(sign @ pos).ravel(), (sign @ terms).ravel()])
        if not np.all(np.isfinite(out)):
            raise EvaluationError("exponential sum overflow")
        return out

    def residual_jacobian(self, x):
        terms, _ = self._exp_terms(x)
        # d/du_i sum_e s_e exp(k . u_e) = k * (sum over piece i's edges)
        per_piece = (self._piece_sign @ terms).reshape(len(self.puzzle.classes), -1, len(self._freqs))
        expo = per_piece.transpose(0, 2, 1)[..., None] * self._freqs[:, None, :]
        return np.vstack([self._linear_jacobian, expo.reshape(-1, self.n)])

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

    def sample_start(self, rng):
        lo = self._lo - self._START_PAD
        hi = self._hi + self._START_PAD
        pts = rng.uniform(lo, hi, size=(len(self.puzzle.pieces), 2))
        return pts.reshape(-1)
