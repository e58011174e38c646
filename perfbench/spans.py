"""Spans and counters for one traced fusionq process, and their totals.

The traced process calls ``Tracer.install`` after importing ``fusionq.cli``.
It wraps each function in ``TRACED`` at every module binding of it (the
modules import functions by name, so patching the defining module alone would
miss callers) or, for a method, on its class.  Each call records a span:
name, start, end and the span that was open when it began.  Spans stay in
memory and are written once, by ``Tracer.dump``.  ``layer_totals`` turns the
spans into calls, total time and self time per name; self time is a span's
duration minus the durations of its direct children.
"""

import importlib
import time
import tracemalloc
from array import array

import numpy as np

MODULES = (
    "fusionq",
    "fusionq.cartan",
    "fusionq.fusion",
    "fusionq.smatrix",
    "fusionq.qsystem",
    "fusionq.cli",
)

# (span name, defining module, function or "Class.method")
TRACED = (
    ("cartan.build_root_system", "fusionq.cartan", "build_root_system"),
    ("cartan.weight_multiplicities", "fusionq.cartan", "RootSystem.weight_multiplicities"),
    ("fusion.FusionContext", "fusionq.fusion", "FusionContext.__init__"),
    ("fusion.save_cache", "fusionq.fusion", "FusionContext.save_cache"),
    ("fusion.alcove_reduce", "fusionq.fusion", "alcove_reduce"),
    ("fusion.fusion_product", "fusionq.fusion", "fusion_product"),
    ("fusion.apply_outer", "fusionq.fusion", "apply_outer"),
    ("smatrix.weyl_group", "fusionq.smatrix", "weyl_group"),
    ("smatrix.build_smatrix", "fusionq.smatrix", "build_smatrix"),
    ("smatrix.generalized_qdim", "fusionq.smatrix", "generalized_qdim"),
    ("qsystem.kr_element", "fusionq.qsystem", "kr_element"),
    ("qsystem.check_conjecture", "fusionq.qsystem", "check_conjecture"),
    ("qsystem.boundary_check", "fusionq.qsystem", "boundary_check"),
    ("qsystem.restricted_solution", "fusionq.qsystem", "restricted_solution"),
    ("qsystem.kns_report", "fusionq.qsystem", "kns_report"),
    ("cli", "fusionq.cli", "main"),
)


class Tracer:
    """In-memory spans plus the counters that need a function's arguments
    or result."""

    def __init__(self):
        self.names = []
        self.code = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self.missing = []
        self.alcove_steps = 0
        self.alcove_useful = 0
        self.weyl_group_size = 0
        self.smatrix_peak_bytes = 0
        self.unitarity_residual = 0.0

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        hooks = {
            "fusion.alcove_reduce": self._count_alcove,
            "smatrix.weyl_group": self._count_weyl_group,
            "smatrix.build_smatrix": self._measure_smatrix,
        }
        for name, module, attr in TRACED:
            owner = importlib.import_module(module)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = method
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            hook = hooks.get(name)
            wrapped = self._span(name, hook(fn) if hook else fn)
            if cls_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
        smatrix_cls = getattr(importlib.import_module("fusionq.smatrix"), "SMatrix", None)
        if smatrix_cls is not None and hasattr(smatrix_cls, "unitarity_residual"):
            smatrix_cls.unitarity_residual = self._record_residual(
                smatrix_cls.unitarity_residual
            )

    def _span(self, name, fn):
        code = len(self.names)
        self.names.append(name)
        codes, start, end, parent, open_ = (
            self.code, self.start, self.end, self.parent, self._open
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(codes)
            codes.append(code)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                open_.pop()

        return traced

    def _count_alcove(self, fn):
        # A policy callable equivalent to "first" that counts reflection steps.
        def first(negs):
            self.alcove_steps += 1
            return negs[0]

        def counted(ctx, w, policy="first"):
            red = fn(ctx, w, policy=first if policy == "first" else policy)
            if red.sign:
                self.alcove_useful += 1
            return red

        return counted

    def _count_weyl_group(self, fn):
        def counted(rs):
            mats, signs = fn(rs)
            self.weyl_group_size = max(self.weyl_group_size, len(signs))
            return mats, signs

        return counted

    def _measure_smatrix(self, fn):
        # tracemalloc sees numpy's allocations; it runs only inside this call.
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.smatrix_peak_bytes = max(self.smatrix_peak_bytes, peak)

        return measured

    def _record_residual(self, fn):
        def recorded(sm):
            value = fn(sm)
            self.unitarity_residual = max(self.unitarity_residual, value)
            return value

        return recorded

    def dump(self, path):
        """Write the spans to ``path`` (npz); return names and counters."""
        np.savez(
            path,
            code=np.frombuffer(self.code, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
        return {
            "spans": path,
            "names": self.names,
            "missing": self.missing,
            "counters": {
                "fusion.alcove_reduce.steps": self.alcove_steps,
                "fusion.alcove_reduce.useful": self.alcove_useful,
                "smatrix.weyl_group.size": self.weyl_group_size,
                "smatrix.build_smatrix.peak_bytes": self.smatrix_peak_bytes,
                "smatrix.unitarity_residual": self.unitarity_residual,
            },
        }


def layer_totals(names, path):
    """{name: (calls, total seconds, self seconds)} from a dumped span file."""
    with np.load(path) as data:
        code, parent = data["code"], data["parent"]
        dur = data["end"] - data["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - covered
    out = {}
    for i, name in enumerate(names):
        sel = code == i
        out[name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
    return out
