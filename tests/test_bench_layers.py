"""The benchmark's calls into the package must keep working.

The tracer in bench/tracer.py patches fastecpp functions by name, and
bench/workloads.py calls the prover and the sampler with its own
arguments; a refactor that renames or removes one should fail here, not
only when the benchmark runs.
"""

import importlib
import importlib.util
import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve_to_callables():
    tracer = _load("tracer")
    assert tracer.LAYERS
    for mod_name, fns in tracer.LAYERS.items():
        module = importlib.import_module(f"fastecpp.{mod_name}")
        for fn_name in fns:
            obj = module
            for attr in fn_name.split("."):
                obj = getattr(obj, attr, None)
            assert callable(obj), f"{mod_name}.{fn_name}"


def test_tiny_workloads_run_in_process():
    """Set-up, one pass's first operation and its check, for each workload."""
    workloads = _load("workloads")
    for name in workloads.NAMES:
        tally = workloads.Tally()
        workload = workloads.make(name, seed=0, tiny=True)
        state = workload.setup()
        out = workload.op(workload.new_pass(state), 0, tally)
        assert out is not None, name
        assert workload.check(state, out, tally) is not None, name
        assert (tally.attempted, tally.failed) == (2, 0), name
