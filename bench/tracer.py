"""Span tracing of the program's layers, installed from outside the program.

The tracer replaces each named layer function by a wrapper that records a
span (name, start, end, parent span, operation id).  A function imported
by value (``from .numth import cornacchia``) is bound under its own name in
the importing module too, so every module of the package that holds the
same function object is patched: a call is seen wherever it is looked up.
Spans stay in memory until the run writes them out.
"""

import contextlib
import functools
import sys
import time

# Layer functions traced per module.  Small helpers called from inside
# these (jacobi, checked_inverse, the polynomial kernels of cm) are left
# unwrapped: their time shows as the self time of the caller.
LAYERS = {
    "numth": ["is_probable_prime", "sqrt_mod", "cornacchia"],
    "disc": ["class_number_table", "enumerate_pool_discs", "build_pool"],
    "trialdiv": ["prime_product", "batch_factor", "remainder_tree"],
    "cm": ["hilbert_class_poly", "root_mod"],
    "curve": ["curves_from_j", "find_order_point", "scalar_mul_checked"],
    "cert": ["parse", "verify", "verify_step"],
    "prover": ["prove_with_report", "run_step", "Environment.class_poly"],
    "stats": ["sample"],
}

# Outcome counters kept at the layer boundary: name -> (counter, fn(args, result)).
OUTCOMES = {
    "numth.is_probable_prime": ("true", lambda args, res: int(bool(res))),
    "numth.cornacchia": ("hits", lambda args, res: int(res is not None)),
    "curve.find_order_point": ("fails", lambda args, res: int(res is None)),
    "trialdiv.batch_factor": ("moduli", lambda args, res: len(args[0])),
}


def layer_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class Tracer:
    """Collects spans and outcome counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index, op id]
        self.counters: dict[tuple[str, str], int] = {}
        self.op: tuple[str, int] = ("setup", 0)   # (kind, index) of the current operation
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        outcome = OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if outcome is not None:
                key = (name, outcome[0])
                self.counters[key] = self.counters.get(key, 0) + outcome[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every layer function wherever the package binds it."""
        package = [m for n, m in sys.modules.items() if n == "fastecpp" or n.startswith("fastecpp.")]
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"fastecpp.{mod_name}"]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:  # a method: patch it on its class
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(name, original)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, attr, wrapper)

    def _set(self, holder, attr: str, value) -> None:
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def totals(self, kinds: set[str] | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  `kinds` restricts the sums to operations of those kinds.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if kinds is not None and op[0] not in kinds:
                continue
            t = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["s"] += end - start
            t["self_s"] += end - start - child[i]
        return out
