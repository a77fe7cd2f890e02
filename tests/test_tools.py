"""tools/drift.py writes the files that two checkouts compare byte for byte;
tools/size.py counts the library's lines and significant tokens."""

import runpy
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


def test_size_counts_lines_and_significant_tokens(capsys):
    size = runpy.run_path(str(TOOLS / "size.py"))
    # def f ( x ) : return x + 1; not the comment, line breaks or indentation
    assert size["size"]("def f(x):\n    # a comment\n\n    return x + 1\n") == (4, 10)
    size["main"]([])
    *modules, total = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = sorted(p.name for p in (TOOLS.parent / "src" / "spbench").glob("*.py"))
    assert [row[0] for row in modules] == names and total[0] == "total"
    assert [int(v) for v in total[1:]] == [sum(int(row[k]) for row in modules) for k in (1, 2)]
