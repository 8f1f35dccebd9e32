"""The benchmark's tooling still fits the program: the tracer finds every
name it wraps where its callers look it up, and the self-test of the
benchmark's correctness checks passes.  Removing an import the tracer relies
on, or changing an output the checks read, fails here and not only in a
benchmark run."""

import importlib.util
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
SELFTEST = ROOT / "perfbench" / "selftest.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_planned_name_and_restores_them():
    tracer = load_tracer()
    with tracer.install(tracer.Tracer()):
        assert tracer.installed_wrappers() == len(tracer._PLAN)
    assert tracer.installed_wrappers() == 0


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(SELFTEST)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "all checks judged right"
