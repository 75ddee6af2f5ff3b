"""Outside-in span tracer for the traced run.

The tracer wraps, from the benchmark's own files, every public function of
the package's modules at every module that binds it (``from .x import y``
makes several bindings of one function; all of them get the same wrapper).
A span records its name, start, end, parent span and the operation it
belongs to.  Spans are kept in memory and written out when the run ends.

A few callables are called millions of times per pass.  A span on each call
would cost more than the work measured, so they get a call counter instead
(``COUNT_ONLY``), and the O(1) formula helpers called from inside them are
left unwrapped (``UNWRAPPED``); their time counts to the calling span.

No layer queues work, so there is no wait metric: self time and counts are
all a layer reports.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter

LAYERS = ("fields", "space", "kernels", "scheme", "chartable", "eisenstein",
          "fusion", "serialize", "cli")
COUNT_ONLY = {"scheme.intersection_number_closed", "space.hermitian_inner"}
UNWRAPPED = {"scheme.scheme_rank", "scheme.parity_offset", "space.isotropic_count"}


def _rows_hook(tracer, args, result):
    x, vecs = args[0], args[1]
    tracer.counters["kernels.rows_classified"] += vecs.shape[0]
    tracer.counters["kernels.bytes_computed"] += vecs.nbytes
    return x


def _classify_row_hook(tracer, args, result):
    x = _rows_hook(tracer, args, result)
    tracer.distinct_rows.add(tuple(int(c) for c in x))


def _classify_matrix_hook(tracer, args, result):
    vecs = args[0]
    tracer.counters["kernels.rows_classified"] += vecs.shape[0] ** 2
    tracer.counters["kernels.bytes_computed"] += vecs.shape[0] * vecs.nbytes


def _points_hook(tracer, args, result):
    tracer.counters["space.points"] += result.size


def _render_hook(tracer, args, result):
    tracer.counters["serialize.render_document.bytes"] += len(result.encode())


def _parse_hook(tracer, args, result):
    tracer.counters["serialize.parse_document.bytes"] += len(args[0].encode())


# Counters taken at a span boundary, computed after the span has ended.
HOOKS = {
    "kernels.classify_row": _classify_row_hook,
    "kernels.classify_col": _rows_hook,
    "kernels.classify_matrix": _classify_matrix_hook,
    "space.enumerate_isotropic": _points_hook,
    "serialize.render_document": _render_hook,
    "serialize.parse_document": _parse_hook,
}


def _layer(module_name: str) -> str | None:
    prefix, _, layer = module_name.partition(".")
    return layer if prefix == "unitary_schemes" and layer in LAYERS else None


class Tracer:
    """Wraps the package while installed; spans and counts live in memory."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.distinct_rows: set = set()
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        layer = name.partition(".")[0]
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if parent < 0 or not spans[parent][0].startswith(layer + "."):
                    self.errors[layer] += 1
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public package function at each of its bindings."""
        package = importlib.import_module("unitary_schemes")
        modules = [package] + [importlib.import_module(f"unitary_schemes.{m}")
                               for m in LAYERS]
        wrapped: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                layer = _layer(getattr(obj, "__module__", "") or "")
                fn_name = getattr(obj, "__name__", "")
                if layer is None or fn_name.startswith("_"):
                    continue
                name = f"{layer}.{fn_name}"
                if name in UNWRAPPED:
                    continue
                if id(obj) not in wrapped:
                    make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                    wrapped[id(obj)] = make(name, obj)
                self._patch(module, attr, wrapped[id(obj)])
        eisenstein = importlib.import_module("unitary_schemes.eisenstein").Eisenstein
        mul = self._count_wrapper("eisenstein.mul", eisenstein.__mul__)
        self._patch(eisenstein, "__mul__", mul)
        self._patch(eisenstein, "__rmul__", mul)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def span_times(self, first_span: int = 0) -> tuple[Counter, Counter, Counter]:
        """Per span name over spans[first_span:]: self seconds, in-layer
        seconds and span count.

        Self time is a span's duration minus the time its direct child spans
        cover, so self times add up to the traced wall time.  In-layer time
        subtracts only the time spent under calls into other layers: work a
        function hands to helpers of its own layer stays in its figure.
        """
        spans = self.spans[first_span:]
        children = [0.0] * len(spans)
        outside = [0.0] * len(spans)
        selfs, inlayer, counts = Counter(), Counter(), Counter()
        for k in range(len(spans) - 1, -1, -1):  # children come after parents
            name, start, end, parent, _ = spans[k]
            duration = end - start
            selfs[name] += duration - children[k]
            inlayer[name] += duration - outside[k]
            counts[name] += 1
            if parent >= first_span:
                p = parent - first_span
                children[p] += duration
                same = spans[p][0].partition(".")[0] == name.partition(".")[0]
                outside[p] += outside[k] if same else duration
        return selfs, inlayer, counts

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "calls": self.calls, "counters": self.counters,
                       "errors": self.errors}, fh)
