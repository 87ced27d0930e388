"""Per-layer tracing of tropdiff from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
TARGETS with timing wrappers.  A module-level function is replaced under
every name that refers to it in every loaded tropdiff module (so the copy
`supports.member_newton` imported from `lattice` is wrapped too); a method
is replaced on its class.  Each call becomes a span with a request id, its
own id and its parent's id.  Spans stay in memory (up to a cap) and are
written out at the end; self time is computed on the fly as the span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (module, attribute path, group, count hook name or None).  A group gathers
# the self time of its members; calls are counted per target.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("textio", "parse_point", "textio.parse", None),
    ("textio", "parse_support", "textio.parse", None),
    ("textio", "parse_vertex_set", "textio.parse", None),
    ("textio", "parse_series", "textio.parse", None),
    ("textio", "parse_diff_poly", "textio.parse", None),
    ("textio", "parse_trop_poly", "textio.parse", None),
    ("textio", "parse_system", "textio.parse", None),
    ("diffpoly", "DiffPolynomial.derive", "diffpoly.derive", None),
    ("diffpoly", "DiffPolynomial.theta", "diffpoly.derive", None),
    ("series", "PowerSeries.__mul__", "series.mul", None),
    ("series", "PowerSeries.trop", "series.trop", None),
    ("troppoly", "tropicalize", "troppoly.tropicalize", None),
    ("troppoly", "tropicalize_sample", "troppoly.tropicalize", None),
    ("troppoly", "is_solution", "troppoly.is_solution", None),
    ("troppoly", "is_solution_system", "troppoly.enumerate", "system"),
    ("troppoly", "enumerate_solutions", "troppoly.enumerate", "enumerate"),
    ("tropical", "VertexSet.__post_init__", "tropical.vertexset", None),
    ("tropical", "VertexSet.odot", "tropical.odot", None),
    ("supports", "SupportSet.__post_init__", "supports.supportset", None),
    ("supports", "SupportSet.vertices", "supports.vertices", None),
    ("supports", "SupportSet.val", "supports.val", None),
    ("lattice", "member_newton", "lattice.member_newton", None),
    ("lattice", "vertices_of_finite", "lattice.vertices_of_finite", None),
)

# LRU caches whose hit ratios are reported: (metric prefix, module, name).
CACHES = (
    ("supports.val", "supports", "_val_cached"),
    ("lattice.vertices", "lattice", "_vertices_cached"),
)

# (metric, kind, source): kind "calls" counts calls of one target, "self"
# sums a group's self time, "incl" its inclusive time; all per request.
LAYER_METRICS = (
    ("cli.main_s", "incl", "cli.main"),
    ("cli.self_s", "self", "cli.main"),
    ("textio.parse_calls", "group_calls", "textio.parse"),
    ("textio.parse_s", "self", "textio.parse"),
    ("diffpoly.derive_calls", "calls", "diffpoly.DiffPolynomial.derive"),
    ("diffpoly.derive_s", "self", "diffpoly.derive"),
    ("series.mul_calls", "calls", "series.PowerSeries.__mul__"),
    ("series.mul_s", "self", "series.mul"),
    ("series.trop_calls", "calls", "series.PowerSeries.trop"),
    ("series.trop_s", "self", "series.trop"),
    ("troppoly.tropicalize_s", "self", "troppoly.tropicalize"),
    ("troppoly.is_solution_calls", "calls", "troppoly.is_solution"),
    ("troppoly.is_solution_s", "self", "troppoly.is_solution"),
    ("troppoly.enumerate_s", "self", "troppoly.enumerate"),
    ("tropical.vertexset_calls", "calls", "tropical.VertexSet.__post_init__"),
    ("tropical.vertexset_s", "self", "tropical.vertexset"),
    ("tropical.odot_calls", "calls", "tropical.VertexSet.odot"),
    ("tropical.odot_s", "self", "tropical.odot"),
    ("supports.supportset_calls", "calls", "supports.SupportSet.__post_init__"),
    ("supports.supportset_s", "self", "supports.supportset"),
    ("supports.vertices_calls", "calls", "supports.SupportSet.vertices"),
    ("supports.vertices_s", "self", "supports.vertices"),
    ("supports.val_calls", "calls", "supports.SupportSet.val"),
    ("lattice.member_newton_calls", "calls", "lattice.member_newton"),
    ("lattice.member_newton_s", "self", "lattice.member_newton"),
    ("lattice.vertices_of_finite_calls", "calls", "lattice.vertices_of_finite"),
    ("lattice.vertices_of_finite_s", "self", "lattice.vertices_of_finite"),
)

UNITS = {"calls": "count", "group_calls": "count", "self": "s", "incl": "s"}


class Tracer:
    """Span recorder; one instance per traced run, single-threaded."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = {}        # target key -> calls
        self.group_calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}     # group -> self seconds
        self.incl_s: dict[str, float] = {}     # group -> inclusive seconds
        self.candidates = 0
        self.cache_hits: dict[str, int] = {}
        self.cache_lookups: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []           # [child seconds, span id]
        self._next_id = 0
        self.request = -1
        self._restore: list[tuple] = []
        self._pkg = None

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, key: str, group: str, hook):
        tracer = self
        self.calls.setdefault(key, 0)
        for table in (self.group_calls, self.self_s, self.incl_s):
            table.setdefault(group, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tracer.calls[key] += 1
                tracer.group_calls[group] += 1
                tracer.self_s[group] += dur - frame[0]
                tracer.incl_s[group] += dur
                if hook is not None:
                    tracer.candidates += hook(args, kwargs)
                if len(tracer.spans) < tracer.span_cap:
                    tracer.spans.append((tracer.request, frame[1], parent, key, t0, t1))
                else:
                    tracer.dropped += 1

        return wrapper

    def _hooks(self, troppoly):
        def enumerate_hook(args, kwargs):
            b = inspect.signature(troppoly.enumerate_solutions).bind(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            nvars = a["nvars"] if a["nvars"] is not None else list(a["polys"])[0].nvars
            return troppoly.count_candidates(tuple(a["box"]), a["max_points"], nvars)

        return {"system": lambda args, kwargs: 1, "enumerate": enumerate_hook}

    def install(self, package: str = "tropdiff") -> None:
        importlib.import_module(package)
        self._pkg = package
        mods = {name: importlib.import_module(f"{package}.{name}")
                for name in {t[0] for t in TARGETS} | {c[1] for c in CACHES}}
        loaded = [m for n, m in sys.modules.items()
                  if m is not None and (n == package or n.startswith(package + "."))]
        hooks = self._hooks(mods["troppoly"])
        for modname, path, group, hook in TARGETS:
            key = f"{modname}.{path}"
            owner = mods[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(key)
                continue
            wrapped = self._wrap(original, key, group, hooks.get(hook))
            if cls_path:
                self._patch(owner, attr, original, wrapped)
                continue
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)

    def _patch(self, owner, name, original, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # ------------------------------------------------------------ requests

    def _caches(self):
        for prefix, modname, name in CACHES:
            mod = sys.modules.get(f"{self._pkg}.{modname}")
            cache = getattr(mod, name, None)
            if cache is None or not hasattr(cache, "cache_info"):
                continue
            yield prefix, cache

    def begin(self, request: int) -> None:
        """Start a request as a fresh CLI process would: empty LRU caches."""
        self.request = request
        for _, cache in self._caches():
            cache.cache_clear()

    def end(self) -> None:
        for prefix, cache in self._caches():
            info = cache.cache_info()
            self.cache_hits[prefix] = self.cache_hits.get(prefix, 0) + info.hits
            self.cache_lookups[prefix] = (
                self.cache_lookups.get(prefix, 0) + info.hits + info.misses
            )

    # ------------------------------------------------------------ results

    def metrics(self, requests: int) -> dict[str, dict]:
        """Per-request means of calls and times, plus cache hit ratios."""
        n = max(requests, 1)
        out = {}
        for name, kind, source in LAYER_METRICS:
            table = {"calls": self.calls, "group_calls": self.group_calls,
                     "self": self.self_s, "incl": self.incl_s}[kind]
            out[name] = {"value": table.get(source, 0) / n, "unit": UNITS[kind]}
        out["troppoly.candidates"] = {"value": self.candidates / n, "unit": "count"}
        for prefix, _, _ in CACHES:
            lookups = self.cache_lookups.get(prefix, 0)
            hits = self.cache_hits.get(prefix, 0)
            out[f"{prefix}_lookups"] = {"value": lookups / n, "unit": "count"}
            out[f"{prefix}_hit_ratio"] = {
                "value": hits / lookups if lookups else 0.0, "unit": "ratio"}
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: request, id, parent id, name, start, end (s)."""
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for req, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([req, sid, parent, name, round(t0 - base, 7),
                                     round(t1 - base, 7)]) + "\n")
