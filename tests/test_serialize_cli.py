import dataclasses
import json
import math
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from spbench import serialize
from spbench.cli import main
from spbench.clusters import LennardJonesCluster, MorseCluster, ThomsonSphere
from spbench.core import EvaluationError, PointColumns, SolutionSet, classify
from spbench.games import NashGame, NashInstance, matching_pennies
from spbench.lattices import Phi4Lattice, XYLattice
from spbench.puzzles import PuzzleInstance, generate_grid_puzzle
from spbench.solvers import CampaignStats, MultistartResult, SolverConfig, multistart

DATA = Path(__file__).parent / "data"


def test_float_formatting_round_trips():
    values = [0.1, 1 / 3, math.pi, 1e-300, -1e17, 2.0, -0.0, 5e22]
    for v in values:
        assert float(serialize._fmt_float(v)) == v


def test_one_pass_float_formatter_matches_the_scalar_one():
    values = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 12345678901234567.0, 1e17, -1e17,
              2.0**53, 2.0**53 + 2, -(2.0**53), 99999999999999984.0, -1.5, 1 / 3, 123.0,
              0.1, 1e-300, 5e22, math.pi, -2.0, 1e-7]
    assert serialize._fmt_floats(values) == [serialize._fmt_float(v) for v in values]
    assert serialize._fmt_floats(np.array(values)[:0]) == []


@pytest.mark.parametrize("where", ["coordinate", "energy", "residual_norm"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_save_result_rejects_a_non_finite_value(tmp_path, where, bad):
    result, cfg = _hand_made_result()
    cols = result.solutions.columns
    if where == "coordinate":
        cols.coords[1, 1] = bad
    else:
        getattr(cols, where)[1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        serialize.save_result(result, cfg, tmp_path / "res.json")
    assert not (tmp_path / "res.json").exists()


def test_dumps_orders_keys_and_keeps_floats():
    text = serialize.dumps({"b": 1.5, "a": [1, 2.0], "c": {"z": True, "y": None}})
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    back = json.loads(text)
    assert back == {"a": [1, 2.0], "b": 1.5, "c": {"y": None, "z": True}}
    assert isinstance(back["a"][1], float)


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize.dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        serialize.dumps({"x": float("inf")})


def test_dumps_numpy_scalars():
    text = serialize.dumps({"i": np.int64(3), "f": np.float64(0.25),
                            "b": np.bool_(True), "v": np.arange(3.0)})
    assert json.loads(text) == {"b": True, "f": 0.25, "i": 3, "v": [0.0, 1.0, 2.0]}


def test_write_atomic(tmp_path):
    path = tmp_path / "f.json"
    serialize.write_atomic(path, "hello\n")
    assert path.read_text() == "hello\n"
    serialize.write_atomic(path, "world\n")
    assert path.read_text() == "world\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
def test_write_atomic_gives_the_mode_of_a_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        serialize.write_atomic(tmp_path / "atomic.json", "x\n")
        (tmp_path / "plain.json").write_text("x\n")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
             for name in ("atomic.json", "plain.json")]
    assert modes == [0o666 & ~umask] * 2


def _hand_made_result():
    """A result whose values test the writer's corner cases: signed zeros,
    the smallest subnormal, integral floats, 17-digit values, and a label
    with a quote and a non-ASCII character."""
    points = PointColumns(
        'phi4 "census" façade',
        [[0.0, -0.0, 5e-324], [123.0, 0.1, 1 / 3], [-math.e, 6.02214076e23, -1e16]],
        [1e16, -0.0, 123.0], [0.0, 5e-324, 1.2345678901234567e-11],  # energy, residual norm
        [0, 3, 1], [2, 0, 0], [True, False, False],  # index, zero_eigs, singular
        ["newton", "homotopy", "gradsq"], [7, 7, 7], [0, 41, 999])  # solver, seed, start_id
    stats = CampaignStats(starts=50, converged=3, diverged=40, spurious=5, eval_errors=2,
                          wall_time=3.25)
    cfg = SolverConfig(method="newton", accept_tol=1e-12, max_iters=None, starts=50, seed=7)
    return MultistartResult(SolutionSet(1e-6, "euclidean", points), stats, [], []), cfg


def test_result_file_of_hand_made_points_has_the_committed_bytes(tmp_path):
    result, cfg = _hand_made_result()
    serialize.save_result(result, cfg, tmp_path / "res.json")
    assert (tmp_path / "res.json").read_bytes() == (DATA / "hand_made_result.json").read_bytes()


def _generic_result_text(result, cfg):
    """The result file as ``dumps`` writes a plain dict of it, value by value."""
    sol = result.solutions
    stats = dataclasses.asdict(result.stats)
    stats["wall_time"] = None
    points = [{
        "coords": [float(v) for v in sp.point],
        "energy": float(sp.energy),
        "residual_norm": float(sp.residual_norm),
        "index": int(sp.index),
        "zero_eigs": int(sp.zero_eigs),
        "singular": bool(sp.singular),
        "provenance": dataclasses.asdict(sp.provenance),
    } for sp in sol.points]
    return serialize.dumps({
        "schema_version": serialize.SCHEMA_VERSION,
        "instance_label": sol.instance_label,
        "config": dataclasses.asdict(cfg),
        "campaign_stats": stats,
        "solutions": {"instance_label": sol.instance_label, "tolerance": sol.tolerance,
                      "metric": sol.metric, "points": points},
    })


def _hand_made_with_an_empty_point():
    # the three points and a copy of the first with no coordinates
    result, cfg = _hand_made_result()
    sol, rows = result.solutions, np.array([0, 1, 2, 0])
    cols = sol.columns
    result.solutions = SolutionSet(sol.tolerance, sol.metric, PointColumns(
        cols.instance_label, [*cols.coords, np.empty(0)],
        *(getattr(cols, name)[rows] for name, _ in PointColumns.COLUMNS)))
    return result, cfg


@pytest.mark.parametrize("campaign", [
    lambda: (Phi4Lattice(3, J=0.0), SolverConfig(starts=300, seed=0)),
    lambda: (XYLattice(1, 4), SolverConfig(starts=200, seed=21, accept_tol=1e-13)),
    lambda: (ThomsonSphere(5), SolverConfig(starts=30, seed=2)),
    lambda: (NashInstance(NashGame([np.random.default_rng(3).uniform(-1, 1, (2, 2, 2))
                                    for _ in range(3)])), SolverConfig(starts=40, seed=1)),
    lambda: (Phi4Lattice(2), SolverConfig(starts=0, seed=0)),
], ids=["phi4", "xy-ring", "thomson", "nash-3-player", "no-points"])
def test_save_result_writes_what_dumps_writes_of_the_plain_dict(tmp_path, campaign):
    instance, cfg = campaign()
    result = multistart(instance, cfg)
    assert len(result.solutions) > 0 or cfg.starts == 0
    serialize.save_result(result, cfg, tmp_path / "res.json")
    assert (tmp_path / "res.json").read_text() == _generic_result_text(result, cfg)


@pytest.mark.parametrize("make", [_hand_made_result, _hand_made_with_an_empty_point])
def test_save_result_of_hand_made_points_writes_what_dumps_writes(tmp_path, make):
    result, cfg = make()
    serialize.save_result(result, cfg, tmp_path / "res.json")
    assert (tmp_path / "res.json").read_text() == _generic_result_text(result, cfg)


@pytest.mark.parametrize("make", [
    lambda: Phi4Lattice(3, J=0.4),
    lambda: XYLattice(2, 3, disorder="uniform-signed", seed=1),
    lambda: XYLattice(1, 4, bc="anti-periodic", gauge_fixed=False),
    lambda: ThomsonSphere(5),
    lambda: MorseCluster(3, rho=6.0),
    lambda: NashInstance(matching_pennies()),
    lambda: PuzzleInstance(generate_grid_puzzle(2, 2, 3, seed=5)[0]),
])
def test_instance_file_round_trip(tmp_path, make):
    inst = make()
    path = tmp_path / "inst.json"
    serialize.save_instance(inst, path)
    back = serialize.load_instance(path)
    assert back.family == inst.family
    assert back.label == inst.label
    assert back.n == inst.n
    serialize.save_instance(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    x = np.linspace(0.1, 1.3, inst.n)
    assert np.array_equal(np.asarray(inst.residual(x)),
                          np.asarray(back.residual(x)))


def test_instance_file_schema_checks(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": 99, "family": "phi4",
                                "label": "x", "params": {}}))
    with pytest.raises(ValueError):
        serialize.load_instance(path)
    path.write_text(json.dumps({"schema_version": 1, "family": "unknown",
                                "label": "x", "params": {}}))
    with pytest.raises(ValueError):
        serialize.load_instance(path)
    # every constructor parameter must be in the file
    d = serialize.instance_to_dict(Phi4Lattice(2))
    del d["params"]["lam"]
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="^lam is missing$"):
        serialize.load_instance(path)
    # an incomplete disorder is a ValueError
    d = serialize.instance_to_dict(XYLattice(2, 3, disorder="uniform-signed", seed=1))
    d["params"]["disorder"] = {"kind": "uniform"}
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="low and high"):
        serialize.load_instance(path)
    # a game's counts and players must match its payoff tensors
    for key, value, match in (("strategy_counts", [2, 3], "strategy_counts"),
                              ("players", 3, "player count")):
        d = serialize.instance_to_dict(NashInstance(matching_pennies()))
        d["params"][key] = value
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=match):
            serialize.load_instance(path)


def _puzzle():
    return PuzzleInstance(generate_grid_puzzle(2, 2, 3, seed=5)[0])


@pytest.mark.parametrize("make, key, spoil", [
    (lambda: Phi4Lattice(2), "N", lambda d: d["params"].update(N=2.7)),
    (lambda: Phi4Lattice(2), "J", lambda d: d["params"].update(J=False)),
    (lambda: Phi4Lattice(2), "lam", lambda d: d["params"].update(lam="0.6")),
    (lambda: MorseCluster(2, rho=6.0), "rho", lambda d: d["params"].update(rho="6")),
    (lambda: XYLattice(1, 4), "L", lambda d: d["params"].update(L=3.0)),
    (lambda: XYLattice(1, 4), "seed", lambda d: d["params"].update(seed=1.5)),
    (lambda: XYLattice(1, 4), "gauge_fixed", lambda d: d["params"].update(gauge_fixed="yes")),
    (lambda: XYLattice(1, 4), "couplings",
     lambda d: d["params"].update(couplings=[str(c) for c in d["params"]["couplings"]])),
    (lambda: XYLattice(1, 4), "disorder value",
     lambda d: d["params"]["disorder"].update(value=True)),
    (lambda: NashInstance(matching_pennies()), "players",
     lambda d: d["params"].update(players=2.9)),
    (lambda: NashInstance(matching_pennies()), "strategy_counts",
     lambda d: d["params"].update(strategy_counts=[2.5, "2"])),
    (lambda: NashInstance(matching_pennies()), "payoffs",
     lambda d: d["params"]["payoffs"][1][0].__setitem__(1, True)),
    (_puzzle, "k_set", lambda d: d["params"]["k_set"].__setitem__(3, [1.5, True])),
    (_puzzle, "edge theta", lambda d: d["params"]["frame"]["edges"][0].update(theta="0")),
    (_puzzle, "edge c", lambda d: d["params"]["pieces"][1]["edges"][2].update(c=7)),
    (lambda: ThomsonSphere(3), "label", lambda d: d.update(label=7)),
    # a bare number where a list is meant
    (lambda: XYLattice(1, 4), "couplings", lambda d: d["params"].update(couplings=1.0)),
    (lambda: NashInstance(matching_pennies()), "strategy_counts",
     lambda d: d["params"].update(strategy_counts=2)),
    (lambda: NashInstance(matching_pennies()), "payoffs",
     lambda d: d["params"].update(payoffs=1.0)),
    (_puzzle, "k_set", lambda d: d["params"].update(k_set=5)),
    (_puzzle, "edge b", lambda d: d["params"]["frame"]["edges"][0].update(b=0.5)),
], ids=["phi4-N-float", "phi4-J-bool", "phi4-lam-str", "morse-rho-str", "xy-L-float",
        "xy-seed-float", "xy-gauge_fixed-str", "xy-couplings-str", "xy-disorder-bool",
        "nash-players-float", "nash-strategy_counts", "nash-payoff-bool", "puzzle-k_set",
        "puzzle-theta-str", "puzzle-color-int", "label-int", "xy-couplings-scalar",
        "nash-strategy_counts-scalar", "nash-payoffs-scalar", "puzzle-k_set-scalar",
        "puzzle-b-scalar"])
def test_instance_file_value_of_the_wrong_type_is_an_error(tmp_path, capsys, make, key, spoil):
    # casting each of these would load an instance other than the one the file states
    inst, resf = tmp_path / "inst.json", tmp_path / "r.json"
    serialize.save_instance(make(), inst)
    run_cli("solve", str(inst), "-o", str(resf), "--starts", "3", "--seed", "0")
    raw = json.loads(inst.read_text())
    spoil(raw)
    inst.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"^{key} must be "):
        serialize.load_instance(inst)
    capsys.readouterr()
    assert run_cli("verify", str(inst), str(resf)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} must be ")


@pytest.mark.parametrize("make, key, drop", [
    (lambda: Phi4Lattice(2), "lam", lambda d: d["params"].pop("lam")),
    (lambda: XYLattice(1, 4), "couplings", lambda d: d["params"].pop("couplings")),
    (lambda: ThomsonSphere(3), "charges", lambda d: d["params"].pop("charges")),
    (lambda: LennardJonesCluster(3), "sigma", lambda d: d["params"].pop("sigma")),
    (lambda: MorseCluster(2, rho=6.0), "r_e", lambda d: d["params"].pop("r_e")),
    (lambda: NashInstance(matching_pennies()), "payoffs", lambda d: d["params"].pop("payoffs")),
    (_puzzle, "edge theta", lambda d: d["params"]["pieces"][0]["edges"][1].pop("theta")),
], ids=["phi4", "xy", "thomson", "lj", "morse", "nash", "puzzle"])
def test_instance_file_without_a_parameter_names_it(tmp_path, capsys, make, key, drop):
    inst = tmp_path / "inst.json"
    serialize.save_instance(make(), inst)
    raw = json.loads(inst.read_text())
    drop(raw)
    inst.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=f"^{key} is missing$"):
        serialize.load_instance(inst)
    capsys.readouterr()
    assert run_cli("solve", str(inst), "-o", str(tmp_path / "r.json"), "--starts", "3") == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {key} is missing"]


_GENERATE_FLAGS = [
    (["phi4", "--N", "2"], Phi4Lattice, {"N": 2}),
    (["phi4", "--N", "2", "--J", "0.5"], Phi4Lattice, {"N": 2, "J": 0.5}),
    (["phi4", "--N", "2", "--lam", "1.5"], Phi4Lattice, {"N": 2, "lam": 1.5}),
    (["phi4", "--N", "2", "--mu2", "3"], Phi4Lattice, {"N": 2, "mu2": 3.0}),
    (["xy", "--d", "1", "--L", "4"], XYLattice, {"d": 1, "L": 4}),
    (["xy", "--d", "1", "--L", "4", "--bc", "anti-periodic"], XYLattice,
     {"d": 1, "L": 4, "bc": "anti-periodic"}),
    (["xy", "--d", "2", "--L", "3", "--no-gauge-fix"], XYLattice,
     {"d": 2, "L": 3, "gauge_fixed": False}),
    (["xy", "--d", "1", "--L", "4", "--disorder", "constant:2.5"], XYLattice,
     {"d": 1, "L": 4, "disorder": "constant:2.5"}),
    (["xy", "--d", "2", "--L", "3", "--disorder", "uniform:0.5:1.5", "--seed", "4"], XYLattice,
     {"d": 2, "L": 3, "disorder": "uniform:0.5:1.5", "seed": 4}),
    (["thomson", "--charges", "4"], ThomsonSphere, {"charges": 4}),
    (["lj", "--atoms", "3"], LennardJonesCluster, {"atoms": 3}),
    (["lj", "--atoms", "3", "--epsilon", "2"], LennardJonesCluster, {"atoms": 3, "epsilon": 2.0}),
    (["lj", "--atoms", "3", "--sigma", "1.5"], LennardJonesCluster, {"atoms": 3, "sigma": 1.5}),
    (["morse", "--atoms", "3", "--rho", "6"], MorseCluster, {"atoms": 3, "rho": 6.0}),
    (["morse", "--atoms", "3", "--rho", "6", "--epsilon", "0.5"], MorseCluster,
     {"atoms": 3, "rho": 6.0, "epsilon": 0.5}),
    (["morse", "--atoms", "3", "--rho", "6", "--re", "1.2"], MorseCluster,
     {"atoms": 3, "rho": 6.0, "r_e": 1.2}),
]


@pytest.mark.parametrize("flags, cls, kwargs", _GENERATE_FLAGS,
                         ids=[" ".join(flags) for flags, _, _ in _GENERATE_FLAGS])
def test_cli_generate_flag_writes_what_the_constructor_builds(tmp_path, capsys, flags, cls,
                                                              kwargs):
    # each flag reaches its constructor parameter, and an omitted one is the constructor's default
    assert run_cli("generate", *flags, "-o", str(tmp_path / "cli.json")) == 0
    capsys.readouterr()
    serialize.save_instance(cls(**kwargs), tmp_path / "lib.json")
    assert (tmp_path / "cli.json").read_bytes() == (tmp_path / "lib.json").read_bytes()


def test_result_file_config_is_validated(tmp_path):
    inst = Phi4Lattice(1)
    cfg = SolverConfig(method="newton", seed=0)
    path = tmp_path / "res.json"
    serialize.save_result(multistart(inst, cfg, starts=inst.grid_starts()), cfg, path)
    raw = json.loads(path.read_text())
    raw["config"]["dedup_tol"] = -1.0
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="dedup_tol"):
        serialize.load_result(path)


def test_result_file_damping_and_schedule_are_validated(tmp_path, capsys):
    inst, path = _solved_phi4(tmp_path, capsys)
    for name, bad in (("starts", 2.5), ("max_iters", 2.5), ("seed", -1), ("accept_tol", True),
                      ("dedup_tol", False), ("record_trace", "no")):
        raw = json.loads(path.read_text())
        raw["config"][name] = bad
        bad_path = tmp_path / f"bad-{name}.json"
        bad_path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=name):
            serialize.load_result(bad_path)
        assert run_cli("verify", str(inst), str(bad_path)) == 1
        assert name in capsys.readouterr().err


@pytest.mark.parametrize("record, field, spoil", [
    ("point", "index", lambda v: 1.5), ("point", "index", str),
    ("point", "energy", str), ("point", "residual_norm", str),
    ("point", "coords", lambda v: [str(c) for c in v]),
    ("provenance", "seed", lambda v: True), ("provenance", "solver", lambda v: 7),
    ("provenance", "start_id", lambda v: 2.9),
    ("campaign_stats", "converged", lambda v: 2.5), ("campaign_stats", "converged", str),
    ("solutions", "tolerance", str), ("solutions", "tolerance", lambda v: -v),
    ("solutions", "tolerance", lambda v: math.nan), ("solutions", "metric", lambda v: 7),
    ("solutions", "metric", lambda v: "manhattan"),
], ids=["index-float", "index-str", "energy-str", "residual-str", "coords-str", "seed-bool",
        "solver-int", "start_id-float", "converged-float", "converged-str", "tolerance-str",
        "tolerance-negative", "tolerance-nan", "metric-int", "metric-unknown"])
def test_cli_verify_exits_1_on_a_field_of_the_wrong_type(tmp_path, capsys, record, field, spoil):
    # casting each of these to its column's type would load a file that verifies
    inst, resf = _solved_phi4(tmp_path, capsys)
    raw = json.loads(resf.read_text())
    i, point = next((i, p) for i, p in enumerate(raw["solutions"]["points"]) if p["index"] == 1)
    target = {"point": point, "provenance": point["provenance"],
              "campaign_stats": raw["campaign_stats"], "solutions": raw["solutions"]}[record]
    target[field] = spoil(target[field])
    resf.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=field):
        serialize.load_result(resf)
    assert run_cli("verify", str(inst), str(resf)) == 1
    err = capsys.readouterr().err.splitlines()
    where = record if record in ("campaign_stats", "solutions") else f"point {i}"
    assert len(err) == 1 and err[0].startswith(f"error: {where}: {field} must be ")


def test_result_file_round_trip(tmp_path):
    inst = Phi4Lattice(2)
    cfg = SolverConfig(method="newton", seed=0)
    res = multistart(inst, cfg, starts=inst.grid_starts())
    path = tmp_path / "res.json"
    serialize.save_result(res, cfg, path)
    loaded = serialize.load_result(path)
    assert loaded["instance_label"] == inst.label
    assert loaded["config"].method == "newton"
    assert loaded["campaign_stats"].converged == 81
    assert len(loaded["solutions"]) == 81
    first = loaded["solutions"].points[0]
    assert first.residual_norm <= cfg.accept_tol
    # wall time never reaches the payload
    raw = json.loads(path.read_text())
    assert raw["campaign_stats"]["wall_time"] is None
    # save -> load -> save gives the same bytes, the points checking out
    for make in _ROUND_TRIPS:
        inst, cfg = make()
        serialize.save_result(multistart(inst, cfg), cfg, path)
        loaded = serialize.load_result(path)
        assert len(loaded["solutions"]) > 0 and serialize.check_result(inst, loaded) == []
        again = MultistartResult(loaded["solutions"], loaded["campaign_stats"], [], [])
        serialize.save_result(again, loaded["config"], tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes(), inst.label


_ROUND_TRIPS = [
    lambda: (Phi4Lattice(3, J=0.0), SolverConfig(starts=200, seed=3)),
    lambda: (XYLattice(1, 4), SolverConfig(starts=100, seed=21, accept_tol=1e-13)),
    lambda: (ThomsonSphere(5), SolverConfig(starts=20, seed=0)),
    lambda: (NashInstance(NashGame([np.random.default_rng(3).uniform(-1, 1, (3, 3, 3))
                                    for _ in range(3)])), SolverConfig(starts=25, seed=2)),
    lambda: (PuzzleInstance(generate_grid_puzzle(2, 2, 3, seed=8)[0]),
             SolverConfig(starts=10, seed=0)),
]


def _check_result_reference(instance, loaded):
    """``check_result`` point by point: each point classified alone, then
    its fields compared one at a time."""
    issues = []
    tol = loaded["config"].accept_tol
    for i, sp in enumerate(loaded["solutions"].points):
        try:
            fresh = classify(instance, sp.point)
        except (ValueError, EvaluationError) as exc:
            issues.append(f"point {i}: classification failed: {exc}")
            continue
        norm = fresh.residual_norm
        if norm > tol:
            issues.append(f"point {i}: residual norm {norm:.3e} exceeds "
                          f"tolerance {tol:.3e}")
        if abs(norm - sp.residual_norm) > tol * 10.0 + 1e-15:
            issues.append(f"point {i}: stored residual norm {sp.residual_norm:.3e} "
                          f"disagrees with recomputed {norm:.3e}")
        for name in ("index", "singular", "zero_eigs"):
            stored, recomputed = getattr(sp, name), getattr(fresh, name)
            if stored != recomputed:
                issues.append(f"point {i}: stored {name}={stored} but recomputed {recomputed}")
        if abs(fresh.energy - sp.energy) > 1e-9 * (1.0 + abs(fresh.energy)):
            issues.append(f"point {i}: stored energy {sp.energy!r} but "
                          f"recomputed {fresh.energy!r}")
    return issues


def test_check_result_messages_match_a_point_by_point_check(tmp_path):
    inst = Phi4Lattice(2)
    cfg = SolverConfig(method="newton", seed=0)
    path = tmp_path / "res.json"
    serialize.save_result(multistart(inst, cfg, starts=inst.grid_starts()), cfg, path)
    raw = json.loads(path.read_text())
    points = raw["solutions"]["points"]
    points[1]["coords"][0] += 0.5
    points[1]["index"] += 1
    points[1]["energy"] += 1.0
    points[3].update(singular=not points[3]["singular"], zero_eigs=points[3]["zero_eigs"] + 2,
                     residual_norm=1.0)
    points[4]["coords"].append(0.0)
    points[4]["index"] += 1
    points[6]["energy"] *= 1.0 + 1e-6
    points[6]["index"] -= 1
    points[8]["coords"] = [c + 0.25 for c in points[8]["coords"]]
    points[8].update(residual_norm=2.0, index=7, singular=True, zero_eigs=3, energy=-1e9)
    points[11]["coords"] = points[11]["coords"][:2]
    # a nested point of 4 entries has a point's length, a scalar one has none
    points[5]["coords"] = [[c] for c in points[5]["coords"]]
    points[7]["coords"] = points[7]["coords"][0]
    path.write_text(json.dumps(raw))
    loaded = serialize.load_result(path)
    issues = serialize.check_result(inst, loaded)
    assert issues == _check_result_reference(inst, loaded)
    assert [s.split(":")[0] for s in issues[:3]] == ["point 1"] * 3
    assert sum("classification failed" in s for s in issues) == 4
    assert sum(s.startswith("point 8:") for s in issues) == 6


def test_check_result_catches_tampering(tmp_path):
    inst = Phi4Lattice(2)
    cfg = SolverConfig(method="newton", seed=0)
    res = multistart(inst, cfg, starts=inst.grid_starts())
    path = tmp_path / "res.json"
    serialize.save_result(res, cfg, path)
    assert serialize.check_result(inst, serialize.load_result(path)) == []
    raw = json.loads(path.read_text())
    raw["solutions"]["points"][0]["coords"][0] += 0.5
    path.write_text(json.dumps(raw))
    issues = serialize.check_result(inst, serialize.load_result(path))
    assert issues


def test_check_result_catches_wrong_index(tmp_path):
    inst = Phi4Lattice(2)
    cfg = SolverConfig(method="newton", seed=0)
    res = multistart(inst, cfg, starts=inst.grid_starts())
    path = tmp_path / "res.json"
    serialize.save_result(res, cfg, path)
    raw = json.loads(path.read_text())
    raw["solutions"]["points"][0]["index"] += 1
    path.write_text(json.dumps(raw))
    issues = serialize.check_result(inst, serialize.load_result(path))
    assert any("index" in s for s in issues)


class BreakableHessian(Phi4Lattice):
    """Phi4 whose Hessian turns nan once ``broken`` is set."""

    broken = False

    def hessian_batch(self, X):
        h, failed = super().hessian_batch(X)
        return (np.full_like(h, np.nan) if self.broken else h), failed


def test_check_result_reports_classify_failure(tmp_path):
    inst = BreakableHessian(2)
    cfg = SolverConfig(method="newton", seed=0)
    res = multistart(inst, cfg, starts=inst.grid_starts()[:3])
    path = tmp_path / "res.json"
    serialize.save_result(res, cfg, path)
    inst.broken = True
    issues = serialize.check_result(inst, serialize.load_result(path))
    assert len(issues) == len(res.solutions)
    assert all("classification failed" in s and "non-finite" in s for s in issues)


def test_check_result_reports_a_wrong_length_point_and_checks_the_rest(tmp_path):
    inst = Phi4Lattice(2)
    cfg = SolverConfig(method="newton", seed=0)
    res = multistart(inst, cfg, starts=inst.grid_starts()[:9])
    path = tmp_path / "res.json"
    serialize.save_result(res, cfg, path)
    raw = json.loads(path.read_text())
    points = raw["solutions"]["points"]
    assert len(points) >= 4
    points[1]["coords"].append(0.0)
    points[3]["index"] += 1
    path.write_text(json.dumps(raw))
    issues = serialize.check_result(inst, serialize.load_result(path))
    assert len(issues) == 2
    assert issues[0].startswith("point 1: classification failed") and "shape" in issues[0]
    assert issues[1].startswith("point 3: stored index=")


def run_cli(*argv):
    return main(list(argv))


def test_cli_verify_exits_3_when_classify_fails(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "phi4.json"
    resf = tmp_path / "r.json"
    assert run_cli("generate", "phi4", "--N", "2", "-o", str(inst)) == 0
    assert run_cli("solve", str(inst), "-o", str(resf), "--starts", "grid3") == 0
    capsys.readouterr()
    monkeypatch.setattr(Phi4Lattice, "hessian_batch",
                        lambda self, X: (np.full((len(X), self.n, self.n), np.nan),
                                         np.zeros(len(X), dtype=bool)))
    assert run_cli("verify", str(inst), str(resf)) == 3
    assert "classification failed" in capsys.readouterr().err


@pytest.mark.parametrize("shape", ["nested", "scalar"])
@pytest.mark.parametrize("count", [1, 81])
def test_cli_verify_exits_3_on_points_of_the_wrong_shape(tmp_path, capsys, shape, count):
    # [[x1], ..., [x4]] has the length of a point of n = 4, and a scalar has
    # none: check_point rejects both, in one point or in all of them
    inst, resf = tmp_path / "phi4.json", tmp_path / "r.json"
    assert run_cli("generate", "phi4", "--N", "2", "-o", str(inst)) == 0
    assert run_cli("solve", str(inst), "-o", str(resf), "--starts", "grid3") == 0
    capsys.readouterr()
    raw = json.loads(resf.read_text())
    for p in raw["solutions"]["points"][:count]:
        p["coords"] = [[c] for c in p["coords"]] if shape == "nested" else p["coords"][0]
    resf.write_text(json.dumps(raw))
    assert run_cli("verify", str(inst), str(resf)) == 3
    err = capsys.readouterr().err
    assert err.count("classification failed") == count
    assert ("shape (4, 1)" if shape == "nested" else "shape ()") in err


def test_cli_generate_solve_report_verify(tmp_path, capsys):
    inst = tmp_path / "phi4.json"
    resf = tmp_path / "phi4-r.json"
    assert run_cli("generate", "phi4", "--N", "2", "-o", str(inst)) == 0
    out = capsys.readouterr().out
    assert "n=4" in out
    assert "bezout=81" in out

    assert run_cli("solve", str(inst), "-o", str(resf), "--starts", "grid3") == 0
    out = capsys.readouterr().out
    assert "converged=81" in out
    assert "distinct solutions=81" in out

    assert run_cli("report", str(resf)) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "0,16 1,32 2,24 3,8 4,1"
    assert "solutions,81" in out
    assert "singular,0" in out

    assert run_cli("report", str(resf), "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["index_histogram"] == {"0": 16, "1": 32, "2": 24, "3": 8, "4": 1}
    assert payload["energy_min"] == pytest.approx(-40.0)

    assert run_cli("verify", str(inst), str(resf)) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_generate_all_families(tmp_path, capsys):
    cases = [
        ["generate", "xy", "--d", "2", "--L", "3", "--disorder", "uniform-signed",
         "--seed", "1", "-o", str(tmp_path / "xy.json")],
        ["generate", "thomson", "--charges", "4", "-o", str(tmp_path / "t.json")],
        ["generate", "lj", "--atoms", "2", "-o", str(tmp_path / "lj.json")],
        ["generate", "morse", "--atoms", "2", "--rho", "6", "-o", str(tmp_path / "m.json")],
        ["generate", "nash", "--preset", "matching-pennies", "-o", str(tmp_path / "n.json")],
        ["generate", "puzzle", "--grid", "2x2", "--colors", "3", "--seed", "5",
         "-o", str(tmp_path / "p.json")],
    ]
    for argv in cases:
        assert main(argv) == 0, argv
        capsys.readouterr()
    for name in ("xy", "t", "lj", "m", "n", "p"):
        assert (tmp_path / f"{name}.json").exists()


def test_cli_nash_game_file(tmp_path, capsys):
    game = {"players": 2, "strategy_counts": [2, 2],
            "payoffs": [[[3, 0], [5, 1]], [[3, 5], [0, 1]]]}
    gf = tmp_path / "game.json"
    gf.write_text(json.dumps(game))
    assert run_cli("generate", "nash", "--game", str(gf),
                   "-o", str(tmp_path / "inst.json")) == 0
    capsys.readouterr()
    inst = serialize.load_instance(tmp_path / "inst.json")
    assert inst.n == 6


def test_cli_nash_game_file_must_match_its_payoffs(tmp_path, capsys):
    # players and strategy_counts are checked against the payoff tensors,
    # as they are when an instance file is loaded
    payoffs = [[[3, 0], [5, 1]], [[3, 5], [0, 1]]]
    for spec in ({"players": 3, "strategy_counts": [5, 7], "payoffs": payoffs},
                 {"players": 2, "strategy_counts": [2, 3], "payoffs": payoffs},
                 {"players": 3, "strategy_counts": [2, 2], "payoffs": payoffs},
                 {"payoffs": payoffs}):
        gf = tmp_path / "game.json"
        gf.write_text(json.dumps(spec))
        out = tmp_path / "inst.json"
        assert run_cli("generate", "nash", "--game", str(gf), "-o", str(out)) == 1, spec
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_cli_exit_codes(tmp_path, capsys):
    # 1: usage errors
    assert run_cli("generate", "phi4", "--N", "2") == 1
    assert run_cli("solve", "missing.json", "-o", "x.json", "--seed", "0") == 1
    assert run_cli("nonsense") == 1
    capsys.readouterr()
    # 1: stochastic solve without a seed
    inst = tmp_path / "lj.json"
    assert run_cli("generate", "lj", "--atoms", "2", "-o", str(inst)) == 0
    assert run_cli("solve", str(inst), "-o", str(tmp_path / "r.json"),
                   "--starts", "5") == 1
    capsys.readouterr()
    # 1: a start count that is no positive int, a grid spec that is no
    # COLUMNSxROWS, and random disorder without a seed
    for starts, says in (("abc", "--starts must be an integer or grid3, got 'abc'"),
                         ("0", "--starts must be >= 1")):
        assert run_cli("solve", str(inst), "-o", str(tmp_path / "r.json"),
                       "--starts", starts, "--seed", "0") == 1
        assert capsys.readouterr().err == f"error: {says}\n"
    assert run_cli("generate", "puzzle", "--grid", "2by2", "--colors", "3", "--seed", "8",
                   "-o", str(tmp_path / "p.json")) == 1
    assert "bad grid spec '2by2'" in capsys.readouterr().err
    assert run_cli("generate", "xy", "--d", "1", "--L", "4", "--disorder", "uniform-signed",
                   "-o", str(tmp_path / "x.json")) == 1
    assert capsys.readouterr().err == "error: random disorder needs an explicit --seed\n"
    assert not any((tmp_path / name).exists() for name in ("r.json", "p.json", "x.json"))
    # 1: a bad tolerance is refused before any start runs
    assert run_cli("solve", str(inst), "-o", str(tmp_path / "r.json"),
                   "--starts", "5", "--seed", "0", "--tol", "-1") == 1
    assert "starts=" not in capsys.readouterr().out
    assert not (tmp_path / "r.json").exists()
    # 2: campaign with zero converged starts
    noroot = tmp_path / "n.json"
    game = {"players": 2, "strategy_counts": [2, 2],
            "payoffs": [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]]}
    (tmp_path / "game.json").write_text(json.dumps(game))
    assert run_cli("generate", "nash", "--game", str(tmp_path / "game.json"),
                   "-o", str(noroot)) == 0
    code = run_cli("solve", str(noroot), "-o", str(tmp_path / "nr.json"),
                   "--starts", "1", "--seed", "0", "--method", "gradsq",
                   "--max-iters", "3")
    assert code == 2
    capsys.readouterr()


def _drop(*keys):
    """A spoil that deletes raw[keys[0]]...[keys[-1]]."""
    def spoil(raw):
        for key in keys[:-1]:
            raw = raw[key]
        del raw[keys[-1]]
    return spoil


@pytest.mark.parametrize("command, file, spoil, says", [
    ("verify", "result", lambda raw: [raw], "result file must be a JSON object"),
    ("report", "result", lambda raw: raw.update(campaign_stats=[]),
     "campaign_stats must be a JSON object"),
    ("report", "result", lambda raw: raw["solutions"]["points"].__setitem__(0, 5),
     "point 0 must be a JSON object"),
    ("verify", "result", lambda raw: raw["solutions"]["points"][0].update(provenance=None),
     "point 0: provenance must be a JSON object"),
    ("solve", "instance", lambda raw: [raw], "instance file must be a JSON object"),
    ("solve", "instance", _drop("params"), "params is missing"),
    ("solve", "puzzle", _drop("params", "frame"), "frame is missing"),
    ("solve", "puzzle", _drop("params", "pieces"), "pieces is missing"),
    ("solve", "puzzle", _drop("params", "pieces", 1, "edges"), "piece 1: edges is missing"),
    ("verify", "result", _drop("solutions"), "result file: solutions is missing"),
    ("verify", "result", _drop("config"), "result file: config is missing"),
    ("verify", "result", _drop("instance_label"), "result file: instance_label is missing"),
    ("report", "result", _drop("solutions", "points"), "solutions: points is missing"),
    ("verify", "result", _drop("solutions", "points", 2, "energy"), "point 2: energy is missing"),
    ("report", "result", lambda raw: raw["solutions"].update(points=5),
     "solutions: points must be a list"),
    ("verify", "result", lambda raw: raw.update(solutions=[1]),
     "result file: solutions must be a JSON object"),
    ("verify", "result", lambda raw: raw.update(schema_version=2),
     "unsupported schema_version 2"),
    ("solve", "puzzle", lambda raw: raw["params"].update(k_set=[1, 2]),
     "k_set must be a list of int pairs"),
    ("solve", "puzzle", lambda raw: raw["params"].update(k_set=[[1, 2, 3]]),
     "k_set must be a list of int pairs"),
    ("solve", "puzzle", lambda raw: raw["params"].update(k_set=[[0, 0]]),
     "k_set must be non-empty, without (0, 0)"),
    ("solve", "nash", lambda raw: raw["params"]["payoffs"][1][0].append(2.0),
     "player 2 tensor must be a rectangular array of numbers"),
], ids=["result-list", "stats-list", "point-int", "provenance-null", "instance-list",
        "no-params", "no-frame", "no-pieces", "no-edges", "no-solutions", "no-config",
        "no-label", "no-points", "no-energy", "points-int", "solutions-list", "schema-2",
        "k-set-ints", "k-set-triple", "k-set-zero", "payoffs-ragged"])
def test_cli_malformed_file_is_an_error(tmp_path, capsys, command, file, spoil, says):
    # a file that is not what its reader expects ends in one error line that
    # names what is wrong where, not in a traceback
    paths = {"instance": tmp_path / "phi4.json", "result": tmp_path / "r.json",
             "puzzle": tmp_path / "puzzle.json", "nash": tmp_path / "pennies.json"}
    assert run_cli("generate", "phi4", "--N", "2", "-o", str(paths["instance"])) == 0
    assert run_cli("solve", str(paths["instance"]), "-o", str(paths["result"]),
                   "--starts", "grid3") == 0
    assert run_cli("generate", "puzzle", "--grid", "2x2", "--colors", "3", "--seed", "8",
                   "-o", str(paths["puzzle"])) == 0
    assert run_cli("generate", "nash", "--preset", "matching-pennies",
                   "-o", str(paths["nash"])) == 0
    raw = json.loads(paths[file].read_text())
    paths[file].write_text(json.dumps(spoil(raw) or raw))
    capsys.readouterr()
    argv = {"verify": ["verify", str(paths["instance"]), str(paths["result"])],
            "report": ["report", str(paths["result"])],
            "solve": ["solve", str(paths[file]), "-o", str(tmp_path / "again.json"),
                      "--starts", "grid3"]}[command]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {says}")


def test_cli_grid3_only_for_phi4(tmp_path, capsys):
    inst = tmp_path / "lj.json"
    assert run_cli("generate", "lj", "--atoms", "2", "-o", str(inst)) == 0
    assert run_cli("solve", str(inst), "-o", str(tmp_path / "r.json"),
                   "--starts", "grid3") == 1
    capsys.readouterr()


def test_cli_verify_flags_tampered_file(tmp_path, capsys):
    inst = tmp_path / "phi4.json"
    resf = tmp_path / "r.json"
    assert run_cli("generate", "phi4", "--N", "2", "-o", str(inst)) == 0
    assert run_cli("solve", str(inst), "-o", str(resf), "--starts", "grid3") == 0
    capsys.readouterr()
    # a result checked against another instance than its own
    other = tmp_path / "phi4-J.json"
    assert run_cli("generate", "phi4", "--N", "2", "--J", "0.1", "-o", str(other)) == 0
    capsys.readouterr()
    assert run_cli("verify", str(other), str(resf)) == 3
    assert ("mismatch: instance label 'phi4-N2-J0' does not match 'phi4-N2-J0.1'"
            in capsys.readouterr().err.splitlines())
    raw = json.loads(resf.read_text())
    raw["solutions"]["points"][3]["coords"][0] += 0.25
    resf.write_text(json.dumps(raw))
    assert run_cli("verify", str(inst), str(resf)) == 3
    err = capsys.readouterr().err
    assert "mismatch" in err


# the solver settings that result files carried before they became constants or,
# for start_box, were retired, with the values every such file held by default
RETIRED_CONFIG = {
    "cond_limit": 1e12, "gradsq_abs_gtol": 1e-9, "gradsq_rel_gtol": 1e-6,
    "damping": {"backtrack": 0.5, "decrease": 1e-4, "initial": 1.0, "min_step": 1e-12},
    "homotopy": {"corrector_iters": 5, "dt_initial": 0.05, "dt_max": 0.25, "dt_min": 1e-8,
                 "easy_iters": 2, "grow": 1.5},
    "start_box": None,
}


def _solved_phi4(tmp_path, capsys):
    inst, resf = tmp_path / "phi4.json", tmp_path / "r.json"
    assert run_cli("generate", "phi4", "--N", "2", "-o", str(inst)) == 0
    assert run_cli("solve", str(inst), "-o", str(resf), "--starts", "grid3") == 0
    capsys.readouterr()
    return inst, resf


def test_result_files_with_the_retired_settings_still_load(tmp_path, capsys):
    # whatever their values, the retired keys are dropped on loading
    _, cfg = _hand_made_result()
    old = json.loads((DATA / "hand_made_result.json").read_text())
    for retired in (RETIRED_CONFIG, {"cond_limit": 1.0, "damping": {"backtrack": 2.0},
                                     "start_box": [-2.5, 2.5]}):
        old["config"].update(retired)
        (tmp_path / "old.json").write_text(serialize.dumps(old))
        assert serialize.load_result(tmp_path / "old.json")["config"] == cfg
    inst, resf = _solved_phi4(tmp_path, capsys)
    raw = json.loads(resf.read_text())
    raw["config"].update(RETIRED_CONFIG)
    resf.write_text(serialize.dumps(raw))
    assert run_cli("verify", str(inst), str(resf)) == 0


def test_cli_verify_rejects_an_unknown_config_key(tmp_path, capsys):
    inst, resf = _solved_phi4(tmp_path, capsys)
    raw = json.loads(resf.read_text())
    raw["config"]["line_search"] = 0.5
    resf.write_text(serialize.dumps(raw))
    assert run_cli("verify", str(inst), str(resf)) == 1
    assert "line_search" in capsys.readouterr().err


def test_cli_rerun_byte_identity(tmp_path, capsys):
    inst = tmp_path / "xy.json"
    assert run_cli("generate", "xy", "--d", "1", "--L", "4",
                   "-o", str(inst)) == 0
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run_cli("solve", str(inst), "-o", str(r1), "--starts", "50",
                   "--seed", "4") == 0
    assert run_cli("solve", str(inst), "-o", str(r2), "--starts", "50",
                   "--seed", "4") == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_solve_rejects_an_unknown_method(tmp_path, capsys):
    inst = tmp_path / "phi4.json"
    assert run_cli("generate", "phi4", "--N", "1", "-o", str(inst)) == 0
    capsys.readouterr()
    assert run_cli("solve", str(inst), "-o", str(tmp_path / "r.json"), "--method", "bfgs",
                   "--seed", "0") == 1
    err = capsys.readouterr().err
    assert all(method in err for method in ("newton", "gradsq", "homotopy"))


def test_cli_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    capsys.readouterr()
    assert run_cli("generate", "--help") == 0
    capsys.readouterr()
