"""Span tracing of ghdist from outside the package.

The tracer wraps every public function and every public class constructor
of the layer modules, and rebinds each wrapped function in every ghdist
module namespace that holds it, so calls between modules are seen too.
One span is recorded per call: name, start, end and the calling span.
Self time is accumulated as the span ends (its duration minus the time its
child spans cover), so per-layer totals need no second pass over the spans.

Probes attach one number to spans of a few named functions (the regime of
a certificate, the size of a validated matrix, the bytes a serializer
handled, the nodes a search expanded).  A probed name that the package no
longer defines is skipped and listed in ``missing``.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

from checks import regime

LAYERS = (
    "segment_circle",
    "correspondences",
    "models",
    "spaces",
    "bounds",
    "nonlinearity",
    "exact",
    "serialization",
    "cli",
)

# Per-entry float formatters run once per matrix entry when a space is
# written; a span each would cost more than the work it measured, so their
# time stays in the calling serializer's self time.
UNWRAPPED = {("serialization", "round12"), ("serialization", "fmt12")}


def _matrix_size(args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    size = len(matrix)
    return ("below192" if size <= 192 else "above192"), 0.0


def _text_in(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return None, float(len(text))


def _text_out(args, kwargs, result):
    return None, float(len(result))


# (layer, function) -> probe(args, kwargs, result) -> (tag, amount)
PROBES = {
    ("segment_circle", "certificate"): lambda a, k, r: (regime(float(a[0])), 0.0),
    ("segment_circle", "lower_bound"): None,
    ("correspondences", "pl_distortion"): None,
    ("correspondences", "distortion"): None,
    ("models", "whisker_graph"): None,
    ("spaces", "validate_metric"): _matrix_size,
    ("serialization", "space_to_json"): _text_out,
    ("serialization", "space_to_csv"): _text_out,
    ("serialization", "space_from_json"): _text_in,
    ("serialization", "space_from_csv"): _text_in,
    ("bounds", "best_bounds"): None,
    ("nonlinearity", "nonlinearity_degree_exact"): None,
    ("nonlinearity", "nonlinearity_degree_upper"): None,
    ("exact", "gh_exact"): lambda a, k, r: (None, float(r.nodes)),
}


class Tracer:
    """Records one span per call of a wrapped name while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []   # (id, parent, name, start, end, tag, amount)
        self.stack: list[list] = []    # [id, start, child_seconds]
        self.layer_self = defaultdict(float)
        self.layer_calls = defaultdict(int)
        # (name, tag) -> [calls, inclusive seconds, self seconds, amount]
        self.probed = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.missing: list[str] = []
        self._patches: list[tuple] | None = None
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def _build(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every patch point."""
        import importlib

        patches, wrappers = [], {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{self.package.__name__}.{layer}")
            except ModuleNotFoundError:
                self.missing.append(layer)
                continue
            for name, obj in sorted(vars(mod).items()):
                if name.startswith("_") or (layer, name) in UNWRAPPED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                probe = PROBES.get((layer, name))
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(layer, name, obj, probe)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    init = obj.__dict__.get("__init__")
                    if init is not None:
                        patches.append((obj, "__init__", init,
                                        self._wrap(layer, name, init, probe)))
            for layer_name, fn_name in PROBES:
                if layer_name == layer and not hasattr(mod, fn_name):
                    self.missing.append(f"{layer}.{fn_name}")
        prefix = self.package.__name__
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    patches.append((mod, name, obj, wrapper))
        return patches

    def install(self) -> None:
        """Bind the wrappers in place of the originals."""
        if self._patches is None:
            self._patches = self._build()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        """Bind the originals back, leaving the package as imported."""
        for owner, name, original, _ in reversed(self._patches or ()):
            setattr(owner, name, original)

    def _wrap(self, layer: str, name: str, fn, probe):
        full = f"{layer}.{name}"
        probed = (layer, name) in PROBES
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                own = duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.layer_self[layer] += own
                tracer.layer_calls[layer] += 1
                tag, amount = None, 0.0
                if probed:
                    if ok and probe is not None:
                        tag, amount = probe(args, kwargs, result)
                    stats = tracer.probed[(full, tag)]
                    stats[0] += 1
                    stats[1] += duration
                    stats[2] += own
                    stats[3] += amount
                tracer.spans.append((span_id, parent, full, frame[1], end, tag, amount))

        return traced

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Write spans as JSON lines; start and end in seconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, tag, amount in self.spans:
                rec = {"id": span_id, "parent": parent, "name": name,
                       "start": round(start - origin, 9), "end": round(end - origin, 9)}
                if tag is not None:
                    rec["tag"] = tag
                if amount:
                    rec["amount"] = amount
                fh.write(json.dumps(rec) + "\n")
        return len(self.spans)

