"""Instance and result files.

Both file kinds are JSON with sorted keys and floats printed to 17
significant digits, so saving, loading and saving again reproduces the bytes
exactly, and a seeded campaign always writes the same file.  ``_emit`` lays
out any value.  A result file's stationary points, most of its bytes, are
written from their columns in the same layout: every float in one ``%``
pass, then every point from the template ``_POINT`` for its length in one
more.  Writes go through a temporary file, given the mode a plain ``open``
would give, and an atomic rename.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import tempfile

import numpy as np

from . import clusters, games, lattices, puzzles
from .core import (
    _MISSING, PointColumns, Provenance, SolutionSet, _checked, _typed, classify_batch)
from .solvers import CampaignStats, SolverConfig

SCHEMA_VERSION = 1

# config keys of older result files for what are now constants in ``solvers``,
# and the retired start box; loading drops them whatever their values
_RETIRED_KEYS = ("cond_limit", "damping", "gradsq_abs_gtol", "gradsq_rel_gtol", "homotopy",
                 "start_box")


def _fmt_float(v):
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite float {v!r}")
    s = format(float(v), ".17g")
    if "." not in s and "e" not in s and "n" not in s:
        s += ".0"
    return s


def _fmt_floats(values):
    """``_fmt_float`` of every value of a float array, in one ``%`` pass: an
    integral value below 1e17, which 17 digits print without a point or an
    exponent, gets one decimal."""
    values = np.asarray(values, dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        raise ValueError(f"cannot serialize non-finite float {values[bad][0].item()!r}")
    spec = np.where((values == np.trunc(values)) & (np.abs(values) < 1e17), "%.1f", "%.17g")
    return ("\n".join(spec.tolist()) % tuple(values.tolist())).split("\n") if values.size else []


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


@functools.cache
def _point_template(n):
    """``_POINT`` with a slot for each of ``n`` coordinates."""
    coords = "[\n          " + ",\n          ".join(["%s"] * n) + "\n        ]" if n else "[]"
    return _POINT.replace("%s", coords, 1)


def _points_text(cols):
    """The "points" list of a result file, from the PointColumns ``cols``."""
    if not len(cols):
        return _Json("[]")
    coords = cols.coords
    if isinstance(coords, np.ndarray):
        lengths, flat = np.full(len(cols), coords.shape[1]), coords.ravel()
    else:
        lengths, flat = np.array([len(p) for p in coords]), np.concatenate(coords)
    # each point's slots: its coordinates, then the eight of _POINT, from ``tail`` on
    at = np.arange(flat.size) + 8 * np.repeat(np.arange(len(cols)), lengths)
    tail = np.cumsum(lengths + 8) - 8
    values = np.empty(flat.size + 8 * len(cols), dtype=object)
    values[np.concatenate([at, tail, tail + 5])] = _fmt_floats(
        np.concatenate([flat, cols.energy, cols.residual_norm]))
    quoted = {name: json.dumps(name) for name in set(cols.solver.tolist())}
    for k, col in ((1, cols.index), (2, cols.seed), (4, cols.start_id), (7, cols.zero_eigs),
                   (3, [quoted[name] for name in cols.solver.tolist()]),
                   (6, np.where(cols.singular, "true", "false"))):
        values[tail + k] = col
    text = ",\n      ".join(map(_point_template, lengths.tolist())) % tuple(values.tolist())
    return _Json("[\n      " + text + "\n    ]")


# the rule of each field of a ``_POINT`` record, in the order of ``PointColumns``; a
# wrong index, like a wrong shape, loads for ``check_result`` to report
_POINT_RULES = {"coords": "numbers", "energy": "a number", "residual_norm": "a number",
                "index": "an int", "zero_eigs": "an int", "singular": "a bool",
                "solver": "a string", "seed": "a non-negative int",
                "start_id": "a non-negative int"}
_PROVENANCE = dataclasses.asdict(Provenance())


def _point_columns(label, records):
    """The PointColumns of loaded ``_POINT`` records; ValueError names the
    first point and field that breaks its rule in ``_POINT_RULES``."""
    points = _typed(records, "a JSON object", "point {}")
    prov = _typed([p.get("provenance", {}) for p in points], "a JSON object",
                  "point {}: provenance")
    return PointColumns(label, *(_typed(
        [d.get(name, _PROVENANCE[name]) for d in prov] if name in _PROVENANCE
        else [p.get(name, _MISSING) for p in points], rule, f"point {{}}: {name}")
        for name, rule in _POINT_RULES.items()))


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
    return {"schema_version": SCHEMA_VERSION, "family": instance.family,
            "label": instance.label, "params": instance.params()}


# every family that instance files can hold, by its ``family`` name
FAMILIES = {cls.family: cls for cls in (
    lattices.Phi4Lattice, lattices.XYLattice, clusters.ThomsonSphere,
    clusters.LennardJonesCluster, clusters.MorseCluster, games.NashInstance,
    puzzles.PuzzleInstance)}


def instance_from_dict(d):
    if _typed([d], "a JSON object", "instance file")[0].get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    family = d.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    label = _typed([d.get("label")], "a string or null", "label")[0]
    return FAMILIES[family].from_params(_checked(d, {"params": "a JSON object"})["params"], label)


def save_instance(instance, path):
    write_atomic(path, dumps(instance_to_dict(instance)))


def load_instance(path):
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def config_from_dict(d):
    d = _typed([d], "a JSON object", "config")[0]
    return SolverConfig(**{k: v for k, v in d.items() if k not in _RETIRED_KEYS})


def save_result(result, cfg, path):
    sol = result.solutions
    stats = dataclasses.asdict(result.stats)
    stats["wall_time"] = None  # timing is run-dependent; keep files comparable
    write_atomic(path, dumps({
        "schema_version": SCHEMA_VERSION,
        "instance_label": sol.instance_label,
        "config": dataclasses.asdict(cfg),
        "campaign_stats": stats,
        "solutions": {
            "instance_label": sol.instance_label,
            "tolerance": sol.tolerance,
            "metric": sol.metric,
            "points": _points_text(sol.columns),
        },
    }))


def load_result(path):
    with open(path) as fh:
        d = _typed([json.load(fh)], "a JSON object", "result file")[0]
    if d.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {d.get('schema_version')!r}")
    top = _checked(d, {"instance_label": "a string", "config": "a JSON object",
                       "solutions": "a JSON object"}, "result file: ")
    sol = _checked(top["solutions"], {"instance_label": "a string", "tolerance": "finite and >= 0",
                                      "metric": "a metric name", "points": "a list"}, "solutions: ")
    solutions = SolutionSet(float(sol["tolerance"]), sol["metric"],
                            _point_columns(sol["instance_label"], sol["points"]))
    stats_d = _typed([d.get("campaign_stats", {})], "a JSON object", "campaign_stats")[0]
    stats = CampaignStats(**{f.name: _typed([stats_d.get(f.name, 0)], "a non-negative int",
                                            f"campaign_stats: {f.name}")[0]
                             for f in dataclasses.fields(CampaignStats) if f.type == "int"})
    return {
        "instance_label": top["instance_label"],
        "config": config_from_dict(top["config"]),
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
    stored = loaded["solutions"].columns
    failed = {}
    if not (isinstance(stored.coords, np.ndarray) and stored.coords.shape[1] == instance.n):
        for i, p in enumerate(stored.coords):
            try:
                instance.check_point(p)
            except ValueError as exc:
                failed[i] = exc
    fits = np.delete(np.arange(len(stored)), list(failed))
    stack = stored.take(fits).coords.reshape(len(fits), instance.n)
    fresh, errors = classify_batch(instance, stack)
    failed.update((fits[r].item(), exc) for r, exc in errors.items())
    rows = np.delete(fits, list(errors))  # the stored points of the rows of ``fresh``
    old = stored.take(rows)
    with np.errstate(all="ignore"):
        flags = np.column_stack([
            fresh.residual_norm > tol,
            np.abs(fresh.residual_norm - old.residual_norm) > tol * 10.0 + 1e-15,
            old.index != fresh.index, old.singular != fresh.singular,
            old.zero_eigs != fresh.zero_eigs,
            np.abs(fresh.energy - old.energy) > 1e-9 * (1.0 + np.abs(fresh.energy))])
    for i in sorted(failed.keys() | set(rows[flags.any(axis=1)].tolist())):
        if i in failed:
            issues.append(f"point {i}: classification failed: {failed[i]}")
            continue
        r = np.searchsorted(rows, i)
        norm, energy = fresh.residual_norm[r], float(fresh.energy[r])
        found = [f"residual norm {norm:.3e} exceeds tolerance {tol:.3e}",
                 f"stored residual norm {old.residual_norm[r]:.3e} "
                 f"disagrees with recomputed {norm:.3e}",
                 *(f"stored {name}={getattr(old, name)[r]} "
                   f"but recomputed {getattr(fresh, name)[r]}"
                   for name in ("index", "singular", "zero_eigs")),
                 f"stored energy {float(old.energy[r])!r} but recomputed {energy!r}"]
        issues += [f"point {i}: {text}" for text, flag in zip(found, flags[r]) if flag]
    return issues
