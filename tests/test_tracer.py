"""The benchmark's tracer finds every name it wraps where its callers look
it up, so removing an import it relies on fails here and not only in a
traced benchmark run."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
