"""In-memory span tracer that wraps public qmsgap functions from outside.

The package itself carries no instrumentation, so the tracer replaces each
traced function in every module namespace that binds it (``harness`` and
``gap`` import names directly, so patching the defining module alone would
miss their calls).  A span records its name, start, end and parent span;
spans stay in memory until the run ends.  Self time is a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

PACKAGE_MODULES = (
    "qmsgap", "qmsgap.linalg", "qmsgap.monotone", "qmsgap.qms",
    "qmsgap.metric", "qmsgap.gap", "qmsgap.config", "qmsgap.harness",
    "qmsgap.cli",
)

# Span name -> (defining module, attribute).  Names are "<module>.<function>".
FUNCTION_SPANS = (
    ("gap.spectral_gap_f", "qmsgap.gap", "spectral_gap_f"),
    ("gap.decaying_subspace", "qmsgap.gap", "decaying_subspace"),
    ("gap.gap_curve", "qmsgap.gap", "gap_curve"),
    ("gap.f_operator_norm", "qmsgap.gap", "f_operator_norm"),
    ("gap.empirical_decay_rate", "qmsgap.gap", "empirical_decay_rate"),
    ("metric.f_metric", "qmsgap.metric", "f_metric"),
    ("metric.f_gram", "qmsgap.metric", "f_gram"),
    ("metric.f_gram_sqrt", "qmsgap.metric", "f_gram_sqrt"),
    ("metric.f_adjoint", "qmsgap.metric", "f_adjoint"),
    ("qms.random_faithful_model", "qmsgap.qms", "random_faithful_model"),
    ("qms.generator", "qmsgap.qms", "generator"),
    ("qms.invariant_state", "qmsgap.qms", "invariant_state"),
    ("qms.fixed_point_structure", "qmsgap.qms", "fixed_point_structure"),
    ("qms.semigroup", "qmsgap.qms", "semigroup"),
    ("linalg.choi_matrix", "qmsgap.linalg", "choi_matrix"),
    ("config.model_from_dict", "qmsgap.config", "model_from_dict"),
    ("cli.main", "qmsgap.cli", "main"),
)

# numpy kernels, patched on the numpy module the package calls through
# (``np.kron``, ``np.linalg.svd``); eigh and eigvalsh share one span name.
NUMPY_SPANS = (
    ("kernel.kron", "numpy", "kron"),
    ("kernel.svd", "numpy.linalg", "svd"),
    ("kernel.eigh", "numpy.linalg", "eigh"),
    ("kernel.eigh", "numpy.linalg", "eigvalsh"),
)

SPAN_NAMES = tuple(dict.fromkeys(
    [name for name, _, _ in FUNCTION_SPANS]
    + ["monotone.eval", "kernel.expm"]
    + [name for name, _, _ in NUMPY_SPANS]
))


def _kron_bytes(tracer, result):
    tracer.counters["kernel.kron.bytes"] += result.nbytes


def _draw_rejections(tracer, result):
    tracer.counters["qms.rejected_draws"] += result[2]


_ON_RESULT = {"kernel.kron": _kron_bytes, "qms.random_faithful_model": _draw_rejections}


class Tracer:
    """Collects spans while installed; ``with Tracer() as t:`` patches and
    restores the traced functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        on_result = _ON_RESULT.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, name, original, modules):
        wrapper = self.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self):
        modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for name, mod, attr in FUNCTION_SPANS:
            self._patch_everywhere(
                name, getattr(importlib.import_module(mod), attr), modules
            )
        for name, mod, attr in NUMPY_SPANS:
            owner = importlib.import_module(mod)
            original = getattr(owner, attr)
            self._patch(owner, attr, self.wrap(name, original))
        # The expm bound in qms and gap; scipy.linalg itself stays untouched.
        from scipy.linalg import expm
        self._patch_everywhere("kernel.expm", expm, modules)
        monotone = importlib.import_module("qmsgap.monotone")
        cls = monotone.MonotoneFunction
        self._patch(cls, "__call__", self.wrap("monotone.eval", cls.__call__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def covered_length(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - covered_length(
            start, end, children.get(index, ())
        )
    return out


def write_spans(spans, path) -> None:
    """One line per span: index, parent index, name, start and end seconds."""
    with open(path, "w") as fh:
        fh.write("index,parent,name,start_s,end_s\n")
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{index},{parent},{name},{start:.9f},{end:.9f}\n")
