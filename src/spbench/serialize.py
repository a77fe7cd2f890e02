"""Instance and result files.

Both file kinds are JSON with sorted keys and floats printed to 17
significant digits, so saving, loading and saving again reproduces the bytes
exactly, and a seeded campaign writes the same file whatever batch count
``SPBENCH_THREADS`` sets.  ``_emit`` lays out any value; each stationary point
of a result file, most of its bytes, comes from the one template ``_POINT`` in
the same layout.  Writes go through a temporary file, given the mode a plain
``open`` would give, and an atomic rename.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import numpy as np

from . import clusters, games, lattices, puzzles
from .core import Provenance, SolutionSet, StationaryPoint, classify_batch
from .solvers import CampaignStats, Damping, HomotopySchedule, SolverConfig

SCHEMA_VERSION = 1


def _fmt_float(v):
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {v!r}")
    s = format(float(v), ".17g")
    if "." not in s and "e" not in s and "n" not in s:
        s += ".0"
    return s


class _Json(str):
    """Text already laid out as JSON at its place in a file, which ``_emit`` copies."""


# a stationary point's record as ``_emit`` lays it out in a result file's "points"
_POINT = """{
        "coords": %s,
        "energy": %s,
        "index": %d,
        "provenance": {
          "seed": %d,
          "solver": %s,
          "start_id": %d
        },
        "residual_norm": %s,
        "singular": %s,
        "zero_eigs": %d
      }"""


def _point_record(sp):
    coords = ",\n          ".join(map(_fmt_float, np.asarray(sp.point, dtype=float).tolist()))
    prov = sp.provenance
    return _Json(_POINT % (
        "[\n          " + coords + "\n        ]" if coords else "[]", _fmt_float(sp.energy),
        sp.index, prov.seed, json.dumps(prov.solver), prov.start_id,
        _fmt_float(sp.residual_norm), "true" if sp.singular else "false", sp.zero_eigs))


def stationary_point_from_dict(label, d):
    """The StationaryPoint of a loaded ``_POINT`` record."""
    prov = d.get("provenance", {})
    return StationaryPoint(
        label, np.asarray(d["coords"], dtype=float), energy=float(d["energy"]),
        residual_norm=float(d["residual_norm"]), index=int(d["index"]),
        zero_eigs=int(d["zero_eigs"]), singular=bool(d["singular"]),
        provenance=Provenance(solver=str(prov.get("solver", "direct")),
                              seed=int(prov.get("seed", 0)), start_id=int(prov.get("start_id", 0))))


def _emit(obj, out, indent):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, _Json):
        out.append(obj)
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)) and len(obj) == 0:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be strings, got {k!r}")
            out.append(pad + "  " + json.dumps(k) + ": ")
            _emit(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _emit(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj):
    out = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_atomic(path, text):
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".spbench-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp made it 0600; give it a plain open's mode
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def instance_to_dict(instance):
    return {
        "schema_version": SCHEMA_VERSION,
        "family": instance.family,
        "label": instance.label,
        "params": instance.params(),
    }


# every family that instance files can hold, by its ``family`` name
FAMILIES = {cls.family: cls for cls in (
    lattices.Phi4Lattice, lattices.XYLattice, clusters.ThomsonSphere,
    clusters.LennardJonesCluster, clusters.MorseCluster, games.NashInstance,
    puzzles.PuzzleInstance)}


def instance_from_dict(d):
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    family = d.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    return FAMILIES[family].from_params(d["params"], d.get("label"))


def save_instance(instance, path):
    write_atomic(path, dumps(instance_to_dict(instance)))


def load_instance(path):
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def config_from_dict(d):
    d = dict(d)
    d["damping"] = Damping(**d.get("damping", {}))
    d["homotopy"] = HomotopySchedule(**d.get("homotopy", {}))
    if d.get("start_box") is not None:
        d["start_box"] = tuple(d["start_box"])
    return SolverConfig(**d)


def save_result(result, cfg, path):
    sol = result.solutions
    stats = dataclasses.asdict(result.stats)
    stats["wall_time"] = None  # timing is run-dependent; keep files comparable
    write_atomic(path, dumps({
        "schema_version": SCHEMA_VERSION,
        "instance_label": sol.instance_label,
        "config": dataclasses.asdict(cfg),  # _emit writes the start_box tuple as a list
        "campaign_stats": stats,
        "solutions": {
            "instance_label": sol.instance_label,
            "tolerance": sol.tolerance,
            "metric": sol.metric,
            "points": [_point_record(sp) for sp in sol.points],
        },
    }))


def load_result(path):
    with open(path) as fh:
        d = json.load(fh)
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    sol_d = d["solutions"]
    label = sol_d["instance_label"]
    solutions = SolutionSet(
        instance_label=label,
        tolerance=float(sol_d["tolerance"]),
        metric=str(sol_d["metric"]),
        points=[stationary_point_from_dict(label, p) for p in sol_d["points"]],
    )
    stats_d = d.get("campaign_stats", {})
    stats = CampaignStats(**{name: int(stats_d.get(name, 0)) for name in
                             ("starts", "converged", "diverged", "spurious", "eval_errors")})
    return {
        "instance_label": d["instance_label"],
        "config": config_from_dict(d["config"]),
        "campaign_stats": stats,
        "solutions": solutions,
    }


def check_result(instance, loaded):
    """Recompute residual norms and classifications for a loaded result.
    Returns a list of mismatch descriptions; empty means the file checks out.
    """
    issues = []
    if loaded["instance_label"] != instance.label:
        issues.append(f"instance label {loaded['instance_label']!r} does not match "
                      f"{instance.label!r}")
    tol = loaded["config"].accept_tol
    points = loaded["solutions"].points
    classified = {}
    for i, sp in enumerate(points):
        try:
            instance.check_point(sp.point)
        except ValueError as exc:
            classified[i] = exc
    fits = [i for i in range(len(points)) if i not in classified]
    stack = np.array([points[i].point for i in fits]).reshape(len(fits), instance.n)
    classified.update(zip(fits, classify_batch(instance, stack)))
    for i, sp in enumerate(points):
        fresh = classified[i]
        if isinstance(fresh, Exception):
            issues.append(f"point {i}: classification failed: {fresh}")
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
        scale = 1.0 + abs(fresh.energy)
        if abs(fresh.energy - sp.energy) > 1e-9 * scale:
            issues.append(f"point {i}: stored energy {sp.energy!r} but "
                          f"recomputed {fresh.energy!r}")
    return issues
