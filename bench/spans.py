"""In-memory span recorder that wraps glstar's public callables from outside.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each target
function in every loaded ``glstar`` module that holds it (so names imported
with ``from .x import f`` are caught too) and each target method on its
class.  A span is ``(id, parent, name, start, end, n, useful)``: ``n`` is
the work count of the call (points, rows) and ``useful`` the part of it that
gave a useful outcome (points the star-line search answered with exactly one
line).

Spans opened in a worker thread with no span of its own get the main
thread's innermost open span as parent: the only threads the program starts
are its check pool's, which run while that span waits for them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter


def _sigma_points(args, kwargs, result):
    q = np.asarray(args[1] if len(args) > 1 else kwargs["q"])
    return (1 if q.ndim < 2 else q.shape[0]), 0


def _span_rows(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"])), 0


def _search_points(args, kwargs, result):
    return len(result), sum(1 for hits in result if len(hits) == 1)


# (module, attribute, span name, work counter).  A dotted attribute is a
# method; everything else is a module-level function.
TARGETS = [
    *[("glstar.constructions", f, "constructions.build", None)
      for f in ("clifford", "symmetric_star", "fg_star", "eqn_star",
                "param_star", "builtin_example", "pencil_from_mu",
                "latitudinal", "parabola_star", "example_parabola_sequence")],
    ("glstar.verify", "positive_root_count", "verify.positive_root_count",
     None),
    ("glstar.functions", "TabulatedInverse.solve", "functions.inverse", None),
    ("glstar.star", "GlStar.sigma", "star.sigma", _sigma_points),
    ("glstar.star", "surface_mesh", "star.surface_mesh", None),
    ("glstar.search", "StarLineSearch.find_batch", "search.find_batch",
     _search_points),
    *[("glstar.verify", f"check_{c}", f"verify.{c}", None)
      for c in ("involution", "fixed_point_free", "no_exterior_meet",
                "coverage", "rotational", "axial", "symmetric")],
    *[("glstar.parallelism", f, f"parallelism.{f}", None)
      for f in ("make_parallelism", "check_hfd", "check_zero_secants",
                "check_torus_fixes_classes", "class_from_hfd_line",
                "spread_line_through")],
    ("glstar.parallelism", "HfdLineSet.span_at", "parallelism.span_at",
     _span_rows),
    ("glstar.projgeom", "Subspace.span", "projgeom.span", None),
    ("glstar.projgeom", "meet", "projgeom.meet", None),
    ("glstar.projgeom", "polar", "projgeom.polar", None),
    ("glstar.projgeom", "signature_on", "projgeom.signature_on", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.enabled = True
        self._ids = 0
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.main_thread().ident

    def _parent(self):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack, stack[-1]
        main = self._stacks.get(self._main)
        return stack, (main[-1] if main else None)

    def span(self, name, fn, *args, counter=None, **kwargs):
        """Call ``fn`` inside a span; returns its result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack, parent = self._parent()
        with self._lock:
            self._ids += 1
            sid = self._ids
        stack.append(sid)
        start = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
        n, useful = counter(args, kwargs, result) if counter else (1, 0)
        self.spans.append((sid, parent, name, start, end, n, useful))
        return result

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own calls into glstar without spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, counter=counter, **kwargs)
        return traced

    def install(self):
        """Wrap every target.  Call it before the stars are built: a star
        keeps bound methods of the objects it was built from."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "glstar" or n.startswith("glstar.")]
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(
                        self._wrap(raw.__func__, name, counter)))
                else:
                    setattr(cls, meth, self._wrap(raw, name, counter))
                continue
            orig = getattr(module, attr)
            traced = self._wrap(orig, name, counter)
            for m in loaded:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, traced)

    def layer_totals(self, lo=0, hi=None):
        """{span name: [calls, n, useful, self seconds]} over spans[lo:hi].
        Self time is a span's duration minus the union of its children's
        intervals."""
        spans = self.spans[lo:hi]
        children = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                children[s[1]].append((s[3], s[4]))
        out = defaultdict(lambda: [0, 0, 0, 0.0])
        for sid, _, name, start, end, n, useful in spans:
            covered = 0.0
            reach = start
            for c_lo, c_hi in sorted(children.get(sid, ())):
                c_lo, c_hi = max(c_lo, reach), min(c_hi, end)
                if c_hi > c_lo:
                    covered += c_hi - c_lo
                    reach = c_hi
            acc = out[name]
            acc[0] += 1
            acc[1] += n
            acc[2] += useful
            acc[3] += (end - start) - covered
        return out

    def write(self, path):
        """Every span as one JSON object per line."""
        keys = ("id", "parent", "name", "start", "end", "n", "useful")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")
