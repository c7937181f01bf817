"""``repro.analysis`` resolves each exported name lazily, in any order.

The package loads an analysis on first use. Each name in ``__all__``
must still be the object its submodule defines, however the program
reached the package. ``coverage`` is the case to watch: it names both a
submodule and that submodule's function, and loading the submodule
makes the import system set the package attribute to the module.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Resolves every exported name, imports the submodules named on the
#: command line before (``submodules-first``) or after (``package-first``)
#: that, resolves every name again, and prints the mismatches.
_PROBE = """
import importlib, json, sys

order, submodules = sys.argv[1], sys.argv[2:]

def load_submodules():
    for name in submodules:
        importlib.import_module(f"repro.analysis.{name}")

def mismatches():
    import repro.analysis as package
    bad = []
    for name in package.__all__:
        scope = {}
        exec(f"from repro.analysis import {name} as found", scope)
        module = importlib.import_module(
            f"repro.analysis.{package._ORIGIN[name]}")
        expected = getattr(module, package._RENAMED.get(name, name))
        if scope["found"] is not expected or (
                getattr(package, name) is not expected):
            bad.append(name)
    return bad

if order == "submodules-first":
    load_submodules()
    bad = mismatches()
else:
    bad = mismatches()
    load_submodules()
    bad += mismatches()
print(json.dumps(sorted(set(bad))))
"""


def analysis_submodules():
    return sorted(
        info.name
        for info in pkgutil.iter_modules([str(SRC / "repro" / "analysis")])
    )


@pytest.mark.parametrize("order", ["submodules-first", "package-first"])
def test_every_export_is_its_submodules_object(order):
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, order, *analysis_submodules()],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []

