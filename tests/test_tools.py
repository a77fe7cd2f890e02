"""tools/drift.py writes the files that two checkouts compare byte for byte;
tools/size.py counts the library's lines and significant tokens."""

import json
import runpy
import shutil
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
DRIFT = TOOLS / "drift.py"


def test_drift_writes_each_result_file_and_a_line_per_start(tmp_path):
    write_campaigns = runpy.run_path(str(DRIFT))["write_campaigns"]
    for side in ("a", "b"):
        write_campaigns(tmp_path / side, "phi4-census", 0)
    a, b = tmp_path / "a" / "phi4-census-seed-0", tmp_path / "b" / "phi4-census-seed-0"
    names = sorted(p.name for p in a.iterdir())
    assert names == ["phi4-N3-census.json", "phi4-N3-census.starts"]
    assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)
    lines = (a / "phi4-N3-census.starts").read_text().splitlines()
    assert len(lines) == 1000
    status, iterations, point, norm = lines[0].split(" ")
    assert status == "converged" and int(iterations) > 0
    assert len(bytes.fromhex(point)) == 9 * 8 and float(norm) < 1e-10


def test_drift_writes_each_methods_traces_byte_for_byte(tmp_path):
    write_traces = runpy.run_path(str(DRIFT))["write_traces"]
    for side in ("a", "b"):
        write_traces(tmp_path / side)
    a, b = tmp_path / "a" / "traces", tmp_path / "b" / "traces"
    names = sorted(p.name for p in a.iterdir())
    assert names == ["gradsq.trace", "homotopy.trace", "newton.trace"]
    assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)
    for name in names:
        steps = {}  # each start's steps, in file order
        for line in (a / name).read_text().splitlines():
            start, step, point, norm = line.split(" ")
            steps.setdefault(int(start), []).append(int(step))
            assert len(bytes.fromhex(point)) == 3 * 8 and float(norm) >= 0.0
        assert sorted(steps) == list(range(20))
        assert all(s == list(range(len(s))) for s in steps.values())


def test_drift_writes_the_cli_files_byte_for_byte(tmp_path):
    write_cli = runpy.run_path(str(DRIFT))["write_cli"]
    for side in ("a", "b"):
        write_cli(tmp_path / side)
    a, b = tmp_path / "a" / "cli", tmp_path / "b" / "cli"
    names = sorted(p.name for p in a.iterdir())
    assert names == ["disordered-gradsq.json", "disordered.json", "lj-epsilon.json",
                     "lj-sigma.json", "lj.json", "morse-re.json", "morse.json",
                     "pennies-solved.json", "pennies.json", "phi4-J.json", "phi4-grid3.json",
                     "phi4-lam.json", "phi4-mu2.json", "phi4.json", "puzzle-solved.json",
                     "puzzle.json", "ring-bc.json", "ring-constant.json", "ring-homotopy.json",
                     "ring.json", "thomson.json", "xy-nogauge.json"]
    assert sorted(p.name for p in b.iterdir()) == names
    assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


def test_drift_compare_names_what_differs_and_how(tmp_path, capsys):
    drift = runpy.run_path(str(DRIFT))
    a, b = tmp_path / "a", tmp_path / "b"
    drift["write_campaigns"](a, "phi4-census", 0)
    shutil.copytree(a, b)
    (a / "only-a.trace").write_text("")
    folder = "phi4-census-seed-0"
    result = b / folder / "phi4-N3-census.json"
    d = json.loads(result.read_text())
    points = d["solutions"]["points"]
    points[0]["coords"][0] += 5e-7  # moved within the tolerance 1e-6
    points[1]["coords"][0] += 1e-3  # moved out of it
    points[2]["index"] += 1
    result.write_text(json.dumps(d))
    starts = b / folder / "phi4-N3-census.starts"
    lines = starts.read_text().splitlines(keepends=True)
    status, iterations, rest = lines[0].split(" ", 2)
    lines[0] = f"{status} {int(iterations) + 1} {rest}"
    starts.write_text("".join(lines))
    assert drift["main"](["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    stats = json.dumps(d["campaign_stats"], sort_keys=True)
    hist = dict(sorted(Counter(p["index"] for p in points).items()))
    assert out[0] == f"only in {a}: only-a.trace"
    assert out[1] == f"differs: {folder}/phi4-N3-census.json"
    assert out[2] == f"  campaign_stats: {stats} | {stats}"
    assert out[3] == "  distinct: 972 | 972"
    assert out[4].startswith("  index histogram: ") and out[4].endswith(f" | {hist}")
    for side, line in zip("AB", out[5:7]):
        assert line == (f"  {side} within 1e-06 (euclidean) of the other side: "
                        "971 of 972, 970 with the same index")
    assert out[7] == f"differs: {folder}/phi4-N3-census.starts"
    assert out[8] == "  starts agreeing on status and iterations: 999 of 1000"
    assert out[9] == "3 of 3 files differ"


def test_drift_compare_exits_1_when_a_file_differs(tmp_path, capsys):
    drift = runpy.run_path(str(DRIFT))
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        drift["write_traces"](side)
    assert drift["main"](["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 3 files differ"]
    trace = b / "traces" / "newton.trace"
    data = bytearray(trace.read_bytes())
    data[0] ^= 1  # the first start's id, "0", becomes "1"
    trace.write_bytes(bytes(data))
    assert drift["main"](["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == ["differs: traces/newton.trace",
                                                    "1 of 3 files differ"]


def test_size_counts_lines_and_significant_tokens(capsys):
    size = runpy.run_path(str(TOOLS / "size.py"))
    # def f ( x ) : return x + 1; not the comment, line breaks or indentation
    assert size["size"]("def f(x):\n    # a comment\n\n    return x + 1\n") == (4, 10)
    size["main"]([])
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = sorted(p.name for p in (TOOLS.parent / "src" / "spbench").glob("*.py"))
    assert [row[0] for row in modules] == names and total[0] == "total"
    assert [int(v) for v in total[1:]] == [sum(int(row[k]) for row in modules) for k in (1, 2)]
