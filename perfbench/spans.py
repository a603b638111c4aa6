"""Outside-in tracing of the library's public functions.

`Tracer.install()` replaces each function named in `WRAPPED`, in every loaded
`ewm.*` namespace that binds it, by a wrapper that records a span: (name,
start, end, parent span, item id).  Calls between library functions go through
module globals, so nested calls are traced as well.  A name that the library
no longer defines is reported as absent rather than raising.

Spans stay in memory, in flat arrays, until `write()` at the end of the run.
A layer's self time is the sum, over its spans, of the span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# defining module -> public functions wrapped
WRAPPED = {
    "ewm.cli": ("parse_input", "parse_general", "parse_solvable", "emit_output"),
    "ewm.rootsys": ("build_root_system",),
    "ewm.intlin": ("smith_normal_form", "hnf_rows", "solve_with_moduli",
                   "kernel_with_moduli", "in_sublattice"),
    "ewm.core": ("compute_monoid", "solve_xi3", "lambda_lattice",
                 "check_necessary", "check_sufficient_lie"),
    "ewm.chevalley": ("build_algebra", "bracket", "ideal_closure", "is_contained"),
    "ewm.solvable": ("solvable_monoid", "pi_map", "validate_pi", "to_general"),
}

# per-layer self-time metric -> the wrapped functions whose self time it sums
SELF_MS = {
    "cli.parse_ms": ("cli.parse_input", "cli.parse_general", "cli.parse_solvable"),
    "cli.render_ms": ("cli.emit_output",),
    "rootsys.build_ms": ("rootsys.build_root_system",),
    "intlin.snf_ms": ("intlin.smith_normal_form",),
    "intlin.hnf_ms": ("intlin.hnf_rows",),
    "intlin.solve_ms": ("intlin.solve_with_moduli", "intlin.kernel_with_moduli",
                        "intlin.in_sublattice"),
    "core.monoid_ms": ("core.compute_monoid",),
    "core.xi3_ms": ("core.solve_xi3",),
    "core.lattice_ms": ("core.lambda_lattice",),
    "core.necessary_ms": ("core.check_necessary",),
    "core.lie_ms": ("core.check_sufficient_lie",),
    "chevalley.build_ms": ("chevalley.build_algebra",),
    "chevalley.bracket_ms": ("chevalley.bracket",),
    "chevalley.closure_ms": ("chevalley.ideal_closure", "chevalley.is_contained"),
    "solvable.closed_ms": ("solvable.solvable_monoid",),
    "solvable.pimap_ms": ("solvable.pi_map", "solvable.validate_pi"),
    "solvable.to_general_ms": ("solvable.to_general",),
    "item.unwrapped_ms": ("item",),
}

# per-layer call-count metric -> wrapped function
CALLS = {
    "rootsys.build_calls": "rootsys.build_root_system",
    "intlin.snf_calls": "intlin.smith_normal_form",
    "intlin.hnf_calls": "intlin.hnf_rows",
    "intlin.solve_calls": "intlin.solve_with_moduli",
    "intlin.kernel_calls": "intlin.kernel_with_moduli",
    "intlin.sublattice_calls": "intlin.in_sublattice",
    "chevalley.build_calls": "chevalley.build_algebra",
    "chevalley.bracket_calls": "chevalley.bracket",
}

PROBE_BASE = 1_000_000  # item ids at or above this belong to the probe


class Tracer:
    def __init__(self):
        self.active = False
        self.item = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.item_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.absent: list[str] = []
        # exact counters kept per item id, so the probe can be read apart
        self.snf_seen: dict[tuple, int] = {}  # matrix entries -> max bit length
        self.snf_keys: list[tuple[int, tuple]] = []  # (item, entries) per call
        self.rootsys_built: list[tuple[int, int]] = []  # (item, pos roots) per miss
        self.closure_dims: list[tuple[int, int]] = []  # (item, dim) per closure

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.item_of.append(self.item)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_item(self, item: int) -> None:
        self.item = item
        self.active = True
        self._item_span = self._open(self._name_id("item"))

    def end_item(self) -> None:
        self._close(self._item_span)
        self.active = False

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == "ewm" or n.startswith("ewm."))}
        for modname, funcs in WRAPPED.items():
            home = modules.get(modname)
            for fname in funcs:
                orig = getattr(home, fname, None) if home else None
                qual = f"{modname[4:]}.{fname}"
                if orig is None:
                    self.absent.append(qual)
                    continue
                wrapper = self._wrap(qual, orig)
                for mod in modules.values():
                    if getattr(mod, fname, None) is orig:
                        setattr(mod, fname, wrapper)

    def _wrap(self, qual: str, fn):
        tr = self
        nid = self._name_id(qual)
        hook = {
            "intlin.smith_normal_form": self._on_snf,
            "rootsys.build_root_system": self._on_rootsys,
            "chevalley.ideal_closure": self._on_closure,
        }.get(qual)
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            misses = cache_info().misses if cache_info else None
            idx = tr._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close(idx)
            if hook is not None:
                hook(args, result, misses, cache_info)
            return result

        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _on_snf(self, args, result, _misses, _info) -> None:
        key = args[0].entries
        self.snf_keys.append((self.item, key))
        if key not in self.snf_seen:
            self.snf_seen[key] = max(
                (abs(x).bit_length() for m in result for row in m.entries for x in row),
                default=0,
            )

    def _on_rootsys(self, _args, result, misses, cache_info) -> None:
        if misses is None or cache_info().misses > misses:
            self.rootsys_built.append((self.item, len(result.pos_roots)))

    def _on_closure(self, _args, result, _misses, _info) -> None:
        self.closure_dims.append((self.item, len(result)))

    # -- aggregation -------------------------------------------------------

    def self_times_ns(self) -> array:
        child = array("q", bytes(8 * len(self.name)))
        for idx in range(len(self.name)):
            p = self.parent[idx]
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        return array("q", (self.end[i] - self.start[i] - child[i]
                           for i in range(len(self.name))))

    def layer_metrics(self, keep) -> dict[str, float]:
        """Per-layer self times and exact counters over spans whose item id
        satisfies `keep`."""
        self_ns = self.self_times_ns()
        by_name_ns = [0] * len(self.names)
        by_name_calls = [0] * len(self.names)
        for idx in range(len(self.name)):
            if keep(self.item_of[idx]):
                nid = self.name[idx]
                by_name_ns[nid] += self_ns[idx]
                by_name_calls[nid] += 1
        ns = {n: by_name_ns[i] for i, n in enumerate(self.names)}
        kept = sum(by_name_calls)
        calls = {n: by_name_calls[i] for i, n in enumerate(self.names)}
        out: dict[str, float] = {}
        for metric, names in SELF_MS.items():
            out[metric] = sum(ns.get(n, 0) for n in names) / 1e6
        for metric, name in CALLS.items():
            out[metric] = calls.get(name, 0)
        snf = [k for it, k in self.snf_keys if keep(it)]
        distinct = set(snf)
        out["intlin.snf_distinct"] = len(distinct)
        out["intlin.snf_distinct_ratio"] = len(distinct) / len(snf) if snf else 0.0
        out["intlin.max_bits"] = max((self.snf_seen[k] for k in distinct), default=0)
        built = [n for it, n in self.rootsys_built if keep(it)]
        out["rootsys.build_misses"] = len(built)
        out["rootsys.pos_roots"] = sum(built)
        out["chevalley.closure_dim"] = sum(d for it, d in self.closure_dims if keep(it))
        out["trace.spans"] = kept
        return out

    def write(self, path: str) -> None:
        """Write every span once, as JSON."""
        spans = [[self.name[i], self.start[i], self.end[i], self.parent[i],
                  self.item_of[i]] for i in range(len(self.name))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent", "item"],
                       "absent": self.absent, "spans": spans}, fh)
