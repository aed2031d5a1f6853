"""The layers the benchmark tracer wraps must exist in the package.

The tracer in bench/tracer.py patches fastecpp functions by name; a
refactor that renames or removes one should fail here, not only when the
benchmark runs.
"""

import importlib
import importlib.util
import os

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "tracer.py")


def test_traced_layers_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.LAYERS
    for mod_name, fns in tracer.LAYERS.items():
        module = importlib.import_module(f"fastecpp.{mod_name}")
        for fn_name in fns:
            obj = module
            for attr in fn_name.split("."):
                obj = getattr(obj, attr, None)
            assert callable(obj), f"{mod_name}.{fn_name}"
