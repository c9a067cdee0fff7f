import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wfopt


@pytest.mark.parametrize("name", wfopt.__all__)
def test_export_is_its_defining_module_object(name):
    value = getattr(wfopt, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("wfopt.")
    assert getattr(module, name) is value
    # looked up anew each time, never stored in the package namespace
    assert name not in vars(wfopt)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from wfopt import *", namespace)
    assert {name: namespace[name] for name in wfopt.__all__} == {name: getattr(wfopt, name) for name in wfopt.__all__}
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(wfopt.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wfopt.no_such_name  # noqa: B018
    assert not hasattr(wfopt, "np")


def test_submodules_still_import_by_name():
    from wfopt import driver

    assert driver is importlib.import_module("wfopt.driver")


def test_package_import_loads_no_submodule():
    code = "import sys, wfopt; print(sorted(m for m in sys.modules if m.startswith('wfopt')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['wfopt']"]


# ---------------------------------------------------------------------------
# What a fresh process loads: each command builds only what it runs
# ---------------------------------------------------------------------------

SRC = Path(wfopt.__file__).resolve().parent
TINY_RUN = {"budget": {"rounds": 1, "simulations_per_round": 2, "max_candidates_per_expansion": 3},
            "suite": {"n_problems": 5}, "proposer": {"ops": ["add", "mul", "neg"], "max_operator_nodes": 2}}


def run_fresh(*args):
    """Run `python -X importtime *args` in a new process, 80 columns wide;
    return it, the modules it imported, and its stderr without the
    import-time lines."""
    env = dict(os.environ, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True,
                          timeout=120, env=env)
    loaded, err = set(), []
    for line in proc.stderr.splitlines(keepends=True):
        if line.startswith("import time:"):
            loaded.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    return proc, loaded, "".join(err)


def engine(loaded):
    return {name for name in loaded if name == "numpy" or name.startswith("wfopt")}


def test_setup_loads_no_adapter():
    code = ("import sys\nfrom wfopt import config, driver\ndriver.build_suite(config.RunConfig())\n"
            "print('wfopt.adapter' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_only_an_external_run_loads_the_adapter(tmp_path):
    code = f"""
import sys
from wfopt import driver
from wfopt.config import config_from_dict
driver.execute_run(config_from_dict({TINY_RUN!r}))
print('wfopt.adapter' in sys.modules)
peer = {{"mode": "external", "command": [sys.executable, "-m", "wfopt.adapter"]}}
driver.execute_run(config_from_dict(dict({TINY_RUN!r}, executor=peer)))
print('wfopt.adapter' in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    from wfopt.config import config_from_dict
    from wfopt.driver import execute_run

    out = tmp_path_factory.mktemp("run")
    execute_run(config_from_dict(TINY_RUN), out)
    return out


def test_help_loads_no_engine_module(monkeypatch):
    from wfopt.cli import build_parser

    proc, loaded, err = run_fresh("-m", "wfopt", "--help")
    assert (proc.returncode, err) == (0, "")
    monkeypatch.setenv("COLUMNS", "80")
    assert proc.stdout == build_parser().format_help()
    assert engine(loaded) == {"wfopt", "wfopt.cli"}


def test_report_loads_the_log_reader_only(finished_run):
    from wfopt.reporting import report

    log = finished_run / "runlog.ndjson"
    proc, loaded, err = run_fresh("-m", "wfopt", "report", str(log))
    assert (proc.returncode, err) == (0, "")
    assert proc.stdout == report([log])[1] + "\n"
    assert {"wfopt.reporting", "wfopt.runlog"} <= loaded
    assert not {"numpy", "wfopt.search", "wfopt.driver", "wfopt.config"} & loaded


def test_export_loads_the_model_only(finished_run, tmp_path):
    source, dest = finished_run / "best_workflow.json", tmp_path / "copy.json"
    proc, loaded, err = run_fresh("-m", "wfopt", "export", str(source), str(dest))
    assert (proc.returncode, proc.stdout, err) == (0, "", "")
    assert dest.read_bytes() == source.read_bytes()
    assert engine(loaded) == {"wfopt", "wfopt.cli", "wfopt.model", "wfopt.schema"}


def test_a_failed_command_still_reports_its_error(tmp_path):
    missing = tmp_path / "missing.json"
    proc, loaded, err = run_fresh("-m", "wfopt", "export", str(missing), str(tmp_path / "copy.json"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    assert not {"numpy", "wfopt.search"} & loaded


def test_every_dataclass_has_a_docstring():
    """Without one, `dataclasses` builds `__doc__` from `inspect.signature` at import."""
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                if ast.get_docstring(node) is None:
                    bare.append(f"{path.name}:{node.name}")
    assert bare == []
