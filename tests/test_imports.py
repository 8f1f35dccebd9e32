"""Each module of the package imports on its own, whichever comes first,
and the layers import one way."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# argv: the source directory, then the module names
IMPORT_EACH_FIRST = """\
import importlib
import sys

sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    for key in [k for k in sys.modules if k == "progest" or k.startswith("progest.")]:
        del sys.modules[key]
    importlib.import_module(f"progest.{name}")
    print(name)
"""


def test_each_module_imports_first():
    """Each module is imported into an interpreter that holds no module of
    the package, so an import cycle shows whichever module a program
    imports first.  The imports run in one child interpreter: dropping the
    modules in this process would give later tests two copies of each
    class."""
    names = sorted(p.stem for p in (SRC / "progest").glob("*.py"))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", IMPORT_EACH_FIRST, str(SRC), *names],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == names


# argv: the source directory, then one module name; prints numpy and the
# modules of the package that importing it loads
LOADED_BY = """\
import importlib
import sys

sys.path.insert(0, sys.argv[1])
importlib.import_module(f"progest.{sys.argv[2]}")
print(*sorted(k for k in sys.modules if k == "numpy" or k.startswith("progest.")))
"""

# what importing each module must not load: the search takes any model as
# an estimator and loads none, the feature layer knows no template, and the
# corpus generator writes contexts and conditions without the engine
ENGINE_ONLY = {"numpy", "progest.models", "progest.features", "progest.condsynth"}
MUST_NOT_LOAD = {
    "search": ENGINE_ONLY,
    "ambiguity": ENGINE_ONLY,
    "features": {"progest.condsynth"},
    "models": {"progest.search"},
    "datagen": {
        "progest.bundle", "progest.condsynth", "progest.constraints",
        "progest.grammar", "progest.models", "progest.search", "progest.trees",
    },
}


@pytest.mark.parametrize("name", sorted(MUST_NOT_LOAD))
def test_imports_point_one_way(name):
    """Each module is imported alone into a new interpreter, so what it
    loads is what it imports, directly or not."""
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", LOADED_BY, str(SRC), name],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert not loaded & MUST_NOT_LOAD[name], sorted(loaded & MUST_NOT_LOAD[name])
