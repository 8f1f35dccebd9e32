"""Each module of the package imports on its own, whichever comes first."""

import subprocess
import sys
from pathlib import Path

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
