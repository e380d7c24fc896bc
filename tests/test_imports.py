"""Each riskcbm module imports on its own; the package exports no names."""

import pkgutil

import pytest

import riskcbm
from conftest import run_python

MODULES = sorted(m.name for m in pkgutil.iter_modules(riskcbm.__path__))


def test_the_modules_are_found():
    assert {"cli", "dataio", "pipeline"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone_and_its_all_names_exist(module):
    """`import *` reads every name in `__all__`, so a name left there after
    its definition is gone fails here."""
    result = run_python("-c", f"from riskcbm.{module} import *")
    assert result.returncode == 0, result.stderr


def test_package_top_level_exports_no_names():
    code = "import riskcbm; print([n for n in vars(riskcbm) if not n.startswith('__')])"
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
