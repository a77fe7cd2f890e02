"""The demos, and the README's library example, run to the end against the
library's current API.

Run as scripts they take about 0.9 s for the XY demo, 0.6 s for the
cluster demo and 0.3 s for the φ⁴ census (2-core host, Python 3.11,
numpy 2.4).
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("name, expected", [
    ("puzzle_encodings.py", "true placement verifies: True"),
    ("nash_roots.py", "matching pennies ->"),
])
def test_root_system_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize("name, expected", [
    ("phi4_census.py", "enumerated stationary points: 81"),
    ("cluster_minima.py", "N=4  best energy 3.6742346142  (closed form 3.6742346142)"),
    # its 200-start gradsq campaign runs the line search on 13x the rows of
    # the bench's 25-start one
    ("xy_landscape.py", "H =  8.00000  index 3"),
])
def test_census_and_cluster_demo_runs(name, expected, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert expected in capsys.readouterr().out


def test_readme_library_usage_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library usage", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("81 {0: 16, 1: 32, 2: 24, 3: 8, 4: 1}\nconverged ")
