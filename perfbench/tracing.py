"""Traced mode: timing and counting spans around the program's layers.

The layers are the seven modules of fareylattice.  Every public function of
a module, plus the methods and private helpers listed below, is replaced by
a wrapper at every module attribute that binds it (next_in_farey is bound
in neighbors, sequences, cli and the package), so calls through any import
path are seen.  A wrapper opens a span (name, start, end, parent, request)
on a stack; a generator it returns is wrapped again so each step is a span
of its own.  A span's self time is its duration minus its child spans'
durations.  Everything runs on one thread, so no layer queues or waits and
there is no wait metric.

lattice.subsets_scanned is counted from the work done: the lattice module
is given a module-level `range` that adds the length of every range its
code builds.  Its scans are `for bits in range(...)` loops, so a change
that scans fewer words, or hits _intersection_histogram's cache, lowers the
count.  A scan written without `range` would not be counted.

Nothing here changes what the program computes; installing and removing
the wrappers only swaps module and class attributes (and adds and removes
lattice's `range`).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from types import GeneratorType

LAYERS = ("cli", "sequences", "neighbors", "fracs", "catalog", "identities", "lattice")

# traced besides each module's public functions
METHODS = {
    "fracs": (("Frac", "__init__"), ("UnimodularMap", "apply")),
    "sequences": (("FareySeq", "__init__"), ("FareySeq", "index_of")),
}
PRIVATE = {"lattice": ("_intersection_histogram",)}

STEP_FUNCS = ("next_in_farey", "prev_in_farey", "succ_in_boolean", "pred_in_boolean")
MATERIALIZERS = ("farey", "upper_subsequence", "farey_boolean", "left_half",
                 "right_half", "materialize")
IDENTITY_GROUPS = {
    "sums": ("interior_duality", "filter_partition", "symmetric_identities",
             "farey_identities"),
    "phi": ("phi_interval", "phi_interval_mobius"),
    "counts": ("mobius", "farey_size", "farey_boolean_size"),
}

SPAN_CAP = 200_000  # spans kept for the trace file; aggregates cover all spans


def _targets():
    """(qualified name, layer, owner, attribute) for everything traced."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"fareylattice.{layer}"]
        for attr, value in vars(mod).items():
            public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
            if (public and callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", None) == mod.__name__):
                out.append((f"{layer}.{attr}", layer, mod, attr))
        for cls, meth in METHODS.get(layer, ()):
            owner = getattr(mod, cls, None)
            if owner is not None and meth in vars(owner):
                out.append((f"{layer}.{cls}.{meth}", layer, owner, meth))
    return out


class Tracer:
    """Span stack, per-name aggregates and counters for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer: list[str] = []
        self.stack: list[list[int]] = []  # [name id, start ns, child ns, span index]
        self.request = 0
        self.recording = False
        self.span_name, self.span_parent, self.span_request = array("i"), array("i"), array("i")
        self.span_start, self.span_end = array("q"), array("q")
        self.dropped = 0
        self._wrappers: list[tuple[object, str, object, object]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._caches = {}
        self.reset()

    def reset(self) -> None:
        """Zero the aggregates (per name) and counters, at the start of a pass."""
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = dict.fromkeys(
            ("sequences.terms_out", "sequences.steps", "sequences.materialized_terms",
             "catalog.seq_lookups", "catalog.seq_misses", "lattice.subsets_scanned",
             "mobius.hits", "mobius.misses"), 0)

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        return len(self.names) - 1

    # ----- spans ---------------------------------------------------------

    def _open(self, nid: int) -> list[int]:
        idx = -1
        if self.recording:
            if len(self.span_name) < SPAN_CAP:
                idx = len(self.span_name)
                parent = self.stack[-1][3] if self.stack else -1
                self.span_name.append(nid)
                self.span_parent.append(parent)
                self.span_request.append(self.request)
                self.span_start.append(0)
                self.span_end.append(0)
            else:
                self.dropped += 1
        frame = [nid, time.perf_counter_ns(), 0, idx]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list[int]) -> None:
        end = time.perf_counter_ns()
        self.stack.pop()
        nid, start, child, idx = frame
        dur = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end

    def _caller_layer(self) -> str | None:
        return self.layer[self.stack[-1][0]] if self.stack else None

    def _wrap(self, fn, name: str, layer: str):
        nid = self._name_id(name, layer)
        step_id = self._name_id(name + ".next", layer)
        hook = self._hook(name)
        tracer = self

        def wrapper(*args, **kwargs):
            caller = tracer._caller_layer()
            frame = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if hook is not None:
                hook(caller, args, result)
            if type(result) is GeneratorType:
                return tracer._steps(result, step_id)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _steps(self, it, nid: int):
        """Re-yield a generator's items, one span per step."""
        while True:
            caller = self._caller_layer()
            frame = self._open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(frame)
            if caller != "sequences":
                self.counts["sequences.terms_out"] += 1
            yield item

    def _hook(self, name: str):
        """Counter update run after a call returns, or None."""
        layer, _, attr = name.partition(".")
        tracer = self
        if layer == "neighbors" and attr in STEP_FUNCS:
            def hook(caller, args, result):
                if caller == "sequences":
                    tracer.counts["sequences.steps"] += 1
        elif layer == "sequences" and attr in MATERIALIZERS:
            def hook(caller, args, result):
                if caller != "sequences":
                    tracer.counts["sequences.terms_out"] += len(result)
                if attr == "materialize" and caller == "catalog":
                    tracer.counts["catalog.seq_misses"] += 1
        elif name == "sequences.FareySeq.__init__":
            def hook(caller, args, result):
                tracer.counts["sequences.materialized_terms"] += len(args[2])
        elif name == "catalog.verify_map":
            def hook(caller, args, result):
                tracer.counts["catalog.seq_lookups"] += 2  # its domain and codomain
        else:
            hook = None
        return hook

    # ----- install / remove ------------------------------------------------

    def install(self) -> None:
        """Swap every traced callable for its wrapper, at every binding."""
        sys.modules["fareylattice.lattice"].range = self._range
        modules = [m for k, m in sys.modules.items()
                   if k == "fareylattice" or k.startswith("fareylattice.")]
        if not self._wrappers:
            for name, layer, owner, attr in _targets():
                fn = vars(owner)[attr]
                if hasattr(fn, "cache_info"):
                    self._caches[name] = fn
                self._wrappers.append((owner, attr, fn, self._wrap(fn, name, layer)))
            self.reset()
        for owner, attr, fn, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, fn, wrapper))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, fn, wrapper))

    def _range(self, *args) -> range:
        words = range(*args)
        self.counts["lattice.subsets_scanned"] += len(words)
        return words

    def remove(self) -> None:
        del sys.modules["fareylattice.lattice"].range
        for owner, attr, fn, _ in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # ----- per request -----------------------------------------------------

    def begin_request(self, request: int) -> None:
        self.request = request

    def end_request(self) -> None:
        """Fold the mobius cache's statistics in; the caller then clears it."""
        if "identities.mobius" in self._caches:
            info = self._caches["identities.mobius"].cache_info()
            self.counts["mobius.hits"] += info.hits
            self.counts["mobius.misses"] += info.misses

    # ----- results ---------------------------------------------------------

    def _ids(self, names) -> list[int]:
        return [i for i, n in enumerate(self.names) if n in names]

    def _self_s(self, ids) -> float:
        return sum(self.self_ns[i] for i in ids) / 1e9

    def _calls(self, ids) -> int:
        return sum(self.calls[i] for i in ids)

    def pass_metrics(self, bytes_out: int) -> tuple[dict, dict]:
        """(times, counts) for the pass just traced.  counts holds the raw
        sequences.steps; run.py divides it by the terms the pass printed."""
        c = self.counts
        # identities is reported by the groups below rather than as one layer
        times = {f"{layer}.self_s": self._self_s([i for i, l in enumerate(self.layer) if l == layer])
                 for layer in LAYERS if layer != "identities"}
        times["fracs.apply.self_s"] = self._self_s(self._ids({"fracs.UnimodularMap.apply"}))
        times["sequences.validate_s"] = self._self_s(self._ids({"sequences.FareySeq.__init__"}))
        for group, funcs in IDENTITY_GROUPS.items():
            times[f"identities.{group}.self_s"] = self._self_s(
                self._ids({f"identities.{f}" for f in funcs}))
        lookups = c["catalog.seq_lookups"]
        mobius = c["mobius.hits"] + c["mobius.misses"]
        counts = {
            "cli.bytes_out": bytes_out,
            "neighbors.step.calls": self._calls(self._ids({f"neighbors.{f}" for f in STEP_FUNCS})),
            "neighbors.congruence.calls": self._calls(
                self._ids({"neighbors.solve_congruence_in_range"})),
            "fracs.frac_new.calls": self._calls(self._ids({"fracs.Frac.__init__"})),
            "fracs.apply.calls": self._calls(self._ids({"fracs.UnimodularMap.apply"})),
            "sequences.terms_out": c["sequences.terms_out"],
            "sequences.steps": c["sequences.steps"],
            "sequences.materialized_terms": c["sequences.materialized_terms"],
            "catalog.verify_map.calls": self._calls(self._ids({"catalog.verify_map"})),
            "catalog.seq_cache_hit_ratio": (lookups - c["catalog.seq_misses"]) / lookups
            if lookups else 0.0,
            "identities.mobius_hit_ratio": c["mobius.hits"] / mobius if mobius else 0.0,
            "lattice.subsets_scanned": c["lattice.subsets_scanned"],
        }
        return times, counts

    def write_spans(self, path) -> int:
        """Write the recorded spans as JSON lines; returns how many."""
        n = len(self.span_name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "layers": self.layer,
                                 "columns": ["name", "parent", "request", "start_ns", "end_ns"],
                                 "spans": n, "dropped": self.dropped}) + "\n")
            for i in range(n):
                fh.write(f"[{self.span_name[i]},{self.span_parent[i]},{self.span_request[i]},"
                         f"{self.span_start[i]},{self.span_end[i]}]\n")
        return n
