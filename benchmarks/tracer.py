"""Span tracing of hyperwave from outside the package.

`Tracer` wraps the tracked public functions in every `hyperwave` module
namespace that binds them, records one span per call in memory, and
restores the originals on exit. The wrappers return the wrapped
function's result unchanged. Self time is computed afterwards from how
the spans nest.
"""

import functools
import sys
import time

# module -> tracked public functions; "Class.method" names a method
TRACKED = {
    "spectral": ["find_sigma_v", "build_u1", "resolvent_apply"],
    "evolution": ["riesz_projection", "resolvent_matrix", "evolve",
                  "assemble_generator"],
    "strichartz_harness": ["run_potential_scan", "run_free_scan",
                           "EnsembleSpec.fields"],
    "free_wave": ["evaluate", "from_chebyshev"],
    "nonlinear": ["nonlinear_evolve_direct", "cauchy_cross_check",
                  "picard_solve", "duhamel_step", "make_propagators",
                  "asymptotic_stability_report"],
    "coords": ["pull_back_slice"],
    "core_types": ["barycentric_interpolate", "energy_norm", "lq_norm",
                   "make_grid"],
}
MODULES = ["cli", *TRACKED]
JOB_SPAN = "cli.main"
ROOT_COUNT = "spectral.find_sigma_v"  # spans whose result length is kept


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "size")

    def __init__(self, name, start, end, parent, job, size=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job
        self.size = size

    def as_list(self):
        return [self.name, self.start, self.end, self.parent, self.job,
                self.size]


class Tracer:
    """Records spans while active: `with Tracer() as tr: ...`."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._job = None
        self._undo = []

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, time.perf_counter(), None, parent, tracer._job)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if name == ROOT_COUNT:
                    span.size = len(out)
                return out
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def __enter__(self):
        package = [m for name, m in list(sys.modules.items())
                   if name == "hyperwave" or name.startswith("hyperwave.")]
        for module, names in TRACKED.items():
            mod = sys.modules[f"hyperwave.{module}"]
            for name in names:
                cls_name, _, attr = name.rpartition(".")
                home = getattr(mod, cls_name) if cls_name else mod
                owners = [home] if cls_name else package
                orig = getattr(home, attr)
                wrapped = self._wrap(f"{module}.{name}", orig)
                for owner in owners:
                    if getattr(owner, attr, None) is orig:
                        setattr(owner, attr, wrapped)
                        self._undo.append((owner, attr, orig))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        return False

    def job(self, job_id, fn, *args):
        """Run `fn(*args)` as the root span of job `job_id`."""
        self._job = job_id
        try:
            return self._wrap(JOB_SPAN, fn)(*args)
        finally:
            self._job = None


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval that its child spans cover."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        inside = [(max(k.start, span.start), min(k.end, span.end))
                  for k in kids if k.end > span.start and k.start < span.end]
        out.append(span.end - span.start - _covered(inside))
    return out


def _has_ancestor(spans, span, pred):
    p = span.parent
    while p is not None:
        if pred(spans[p]):
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans):
    """Per-function calls, busy and self seconds, per-module self seconds
    and the Newton waste ratio, from the spans of one pass.

    Busy time of a function counts only its outermost calls, so a
    recursive or re-entrant call is not counted twice.
    """
    selfs = self_times(spans)
    names = [JOB_SPAN] + [f"{m}.{f}" for m, fs in TRACKED.items() for f in fs]
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.busy_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for module in MODULES:
        out[f"{module}.self_s"] = 0.0
    for span, own in zip(spans, selfs):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += own
        out[f"{span.name.split('.')[0]}.self_s"] += own
        if not _has_ancestor(spans, span, lambda s: s.name == span.name):
            out[f"{span.name}.busy_s"] += span.end - span.start
    roots = sum(s.size for s in spans if s.name == ROOT_COUNT)
    newton = sum(1 for s in spans if s.name == "spectral.build_u1"
                 and _has_ancestor(spans, s, lambda a: a.name == ROOT_COUNT))
    out["spectral.find_sigma_v.roots"] = roots
    out["spectral.build_u1_per_root"] = newton / max(roots, 1)
    return out
