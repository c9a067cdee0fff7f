"""Smoke tests for the scripts in `scripts/`: each must import and parse its options, `bench.py`
must write its report, `run_synthetic.py` must run and report both engines, and `loc.py` must
count code lines as it says."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, *args, timeout=60):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("script", ["bench.py", "run_synthetic.py", "loc.py"])
def test_script_help(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_bench_writes_every_row_into_a_new_directory(tmp_path):
    out_dir = tmp_path / "new" / "dir"
    proc = run_script("bench.py", "--label", "t", "--repeat", "1", "--out-dir", str(out_dir), timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads((out_dir / "BENCH_t.json").read_text())["results"]
    sizes = ["3", "6", "8"]
    assert {name: sorted(rows) for name, rows in results.items()} == {
        "enumerate_edits": sizes,
        "propose": sizes,
        "validate_program": sizes,
        "canonical_key": sizes,
        "derive_state+static_vector": sizes,
        "score children": ["6"],
        "with_magnitude": sizes,
        "evaluate": sizes,
        "evaluate reply": sizes,
        "peer evaluate": sizes,
        "trace decode": sizes,
        "program decode": sizes,
        "peer start": ["process"],
        "peer exit": ["process"],
        "select+backprop": ["tree"],
        "runlog append": ["record"],
        "fold record": ["record"],
        "engine import": ["process"],
        "cli start": ["--help", "export", "report"],
        "tree bytes": ["node"],
    }
    # every row but the tree's size is timed
    assert all(row["median_us"] > 0 for name, rows in results.items() if name != "tree bytes"
               for row in rows.values())
    # each start-up figure is the median of at least nine fresh processes
    assert all(row["processes"] >= 9 for name in ("engine import", "cli start") for row in results[name].values())
    tree = results["tree bytes"]["node"]
    assert tree["bytes_per_node"] > 0 and 0 < tree["states"] <= tree["nodes"]


def test_run_synthetic_runs_both_engines_and_reports_them(tmp_path):
    proc = run_script("run_synthetic.py", "--rounds", "1", "--out", str(tmp_path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].lstrip().startswith("shaped: best validation ")
    assert lines[1].lstrip().startswith("vanilla_uct: best validation ")
    header, *rows, ratio = lines[3:]
    assert header.split() == ["run", "rounds", "mean", "std", "prune%", "tok/prob", "cost", "best"]
    assert [row.split()[:2] for row in rows] == [["runlog.ndjson", "1"]] * 2
    assert ratio.startswith("variance ratio (first/second): ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shaped", "vanilla_uct"]


LOC_FIXTURE = [
    '"""Module docstring,',
    'on two lines."""',
    "",
    "import os  # a trailing comment keeps its line",
    "",
    "",
    "# a comment-only line",
    "class A:",
    '    """Class docstring."""',
    "",
    '    x = """a string value,',
    'not a docstring"""',
    "",
    "    def f(self):",
    "        '''Function",
    "        docstring.'''",
    "        return 1",
    "",
    "",
    "async def g():",
    '    "one-line docstring"',
    "    pass",
]


def test_loc_counts_code_lines_outside_docstrings_and_comments(tmp_path):
    (tmp_path / "m.py").write_text("\n".join(LOC_FIXTURE) + "\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "deeper.py").write_text("x = 1\n")   # not counted: a directory counts its own files
    (tmp_path / "notes.txt").write_text("not python\n")
    for path in (tmp_path / "m.py", tmp_path):
        proc = run_script("loc.py", str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "lines 22\ncode lines 8\n"
