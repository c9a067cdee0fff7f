import importlib
import subprocess
import sys

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
