"""Benchmark families of hard stationary-point problems plus the solvers
and campaign tooling to hunt their minima, saddles and singular points."""

from .core import (
    ANGULAR_MOD_2PI, EUCLIDEAN, EvaluationError, ProblemInstance, Provenance, RootSystem,
    SolutionSet, StationaryPoint, ZERO_TOL, classify, classify_batch, dedup, fd_gradient,
    fd_hessian, point_distance)
from .lattices import (
    ANTI_PERIODIC, PERIODIC, Phi4Lattice, XYLattice, phi4_bezout, phi4_enumerate_decoupled)
from .clusters import LennardJonesCluster, MorseCluster, ThomsonSphere, pair_curvature
from .games import (
    NashGame, NashInstance, is_equilibrium, matching_pennies, nash_residual,
    nash_residual_jacobian, prisoners_dilemma)
from .puzzles import (
    DEFAULT_K_SET, Edge, Piece, Puzzle, PuzzleInstance, exp_coordinates, exponential_residual,
    generate_grid_puzzle, linear_residual, signed_indicator, verify_geometric)
from .solvers import (
    CampaignStats, MultistartResult, SolveOutcome, SolverConfig, Status, gradsq_solve,
    homotopy_track, multistart, newton_solve)
from . import serialize

__version__ = "0.1.0"
