"""Per-layer tracing from outside the package.

The tracer wraps public functions of the package's modules (its layers) and
rebinds each wrapper in every module that holds the original object, because
`from .x import name` gives each importing module its own binding.  A wrapper
around an `lru_cache` function sits outside the cache, so its calls include
hits.  Each call records a span (id, name, start, end, parent id) in memory;
self time is a span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import gzip
import itertools
import sys
import time

# (module, attribute, span name, work units of one call or None).  The work
# of `s_sum` counts only cache misses: a hit does no lattice sum.
TARGETS = (
    ("exact", "IntPoly.__mul__", "exact.IntPoly.mul", None),
    ("exact", "derivative_at_one", "exact.derivative_at_one", None),
    ("qdeform", "deform", "qdeform.deform", None),
    ("qdeform", "deform_from_cfrac", "qdeform.deform_from_cfrac", None),
    ("qdeform", "to_cfrac", "qdeform.to_cfrac", None),
    ("sbtree", "identity_sweep", "sbtree.identity_sweep", None),
    ("sbtree", "equivalence_mismatches", "sbtree.equivalence_mismatches", None),
    ("sbtree", "build_qtree", "sbtree.build_qtree", None),
    ("sbtree", "weighted_mediant", "sbtree.weighted_mediant", None),
    ("sbtree", "lineage_extract", "sbtree.lineage_extract", None),
    ("sbtree", "lagrange_coefficients", "sbtree.lagrange_coefficients", None),
    ("sbtree", "derivative_identity_residual", "sbtree.derivative_identity_residual", None),
    ("sbtree", "identity_correction", "sbtree.identity_correction", None),
    ("closedforms", "d1_closed", "closedforms.d1_closed", None),
    ("closedforms", "d2_closed", "closedforms.d2_closed", lambda a, b: b - 1),
    ("dedekind", "s_sum", "dedekind.s_sum", lambda i, j, a, b: b - 1),
)
LAYERS = ("exact", "qdeform", "sbtree", "closedforms", "dedekind")
PACKAGE = "qrationals"


class Stat:
    __slots__ = ("calls", "self_s", "terms")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.terms = 0


class Tracer:
    """Install with `install()`, run the workload, then `uninstall()`."""

    def __init__(self):
        self.names: list[str] = [t[2] for t in TARGETS]
        self.stats = {name: Stat() for name in self.names}
        self.intpoly_constructions = 0
        self.spans: list[tuple[int, int, float, float, int]] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []
        self.t0 = 0.0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, nid: int, terms):
        stat = self.stats[self.names[nid]]
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter
        cache_info = getattr(fn, "cache_info", None) if terms else None

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            misses = cache_info().misses if cache_info else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.self_s += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if terms and (cache_info is None or cache_info().misses > misses):
                    stat.terms += terms(*args, **kwargs)
                spans.append((sid, nid, t0, t1, parent))

        return traced

    def _rebind(self, owner, orig, wrapper):
        for key, value in list(vars(owner).items()):
            if value is orig:
                self._restore.append((owner, key, value))
                setattr(owner, key, wrapper)

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for nid, (mod, attr, _, terms) in enumerate(TARGETS):
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, path[-1], None)
            if orig is None:  # the layer no longer has this function
                continue
            wrapper = self._wrap(orig, nid, terms)
            if len(path) > 1:  # a method: rebind every alias on the class
                self._rebind(owner, orig, wrapper)
            else:
                for m in modules:
                    self._rebind(m, orig, wrapper)
        intpoly = sys.modules[f"{PACKAGE}.exact"].IntPoly
        orig_init = intpoly.__init__

        def counted_init(obj, *args, **kwargs):
            self.intpoly_constructions += 1
            orig_init(obj, *args, **kwargs)

        self._rebind(intpoly, orig_init, counted_init)
        self.t0 = time.perf_counter()

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            out[name.split(".")[0]] += stat.self_s
        return out

    def write_spans(self, path: str):
        """Spans as gzip CSV: id, name, start and end in seconds from install,
        parent id (−1 for a root)."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for sid, nid, t0, t1, parent in sorted(self.spans):
                fh.write(f"{sid},{self.names[nid]},{t0 - self.t0:.9f},"
                         f"{t1 - self.t0:.9f},{parent}\n")
