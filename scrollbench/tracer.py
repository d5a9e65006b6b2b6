"""Span tracer installed from outside the program under test.

``install`` wraps the public functions of each ``scrolleq`` layer where
they are looked up: methods on ``Polynomial`` itself, and module functions
in every module that imported them by name.  ``uninstall`` puts the
originals back.  Spans live in memory as columns (name, parent, execution root, start,
end) and are written out once the run ends.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict


class Tracer:
    """In-memory span store for one process; spans nest like the call stack."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("q")
        self.end = array("q")
        # Counters as (span, key, value) columns, appended as spans close.
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.counter_span = array("i")
        self.counter_key = array("B")
        self.counter_value = array("q")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.end.append(0)
        stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, idx: int, values: dict[str, int]) -> None:
        for key, value in values.items():
            kid = self._key_ids.get(key)
            if kid is None:
                kid = self._key_ids[key] = len(self.keys)
                self.keys.append(key)
            self.counter_span.append(idx)
            self.counter_key.append(kid)
            self.counter_value.append(value)

    def counters_since(self, root: int):
        """(span, key, value) of every counter on spans from ``root`` on."""
        i = len(self.counter_span)
        while i and self.counter_span[i - 1] >= root:
            i -= 1
        for j in range(i, len(self.counter_span)):
            yield self.counter_span[j], self.keys[self.counter_key[j]], self.counter_value[j]

    def dump(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        extra: dict[int, list[str]] = defaultdict(list)
        for idx, key, value in self.counters_since(0):
            extra[idx].append(f"{key}={value}")
        with gzip.open(path, "wt") as fh:
            fh.write("span,parent,root,name,start_ns,end_ns,counters\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.parent[i]},{self.root[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i]},{self.end[i]},{';'.join(extra.get(i, ()))}\n")


def self_times(parent, start, end, lo: int = 0, hi: int | None = None) -> list[int]:
    """Self time of spans lo..hi-1: duration minus the duration of direct
    children.  Parents precede children; indices are absolute."""
    hi = len(start) if hi is None else hi
    out = [end[i] - start[i] for i in range(lo, hi)]
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            out[p - lo] -= end[i] - start[i]
    return out


def execution_profile(tracer: Tracer, root: int) -> dict[str, float]:
    """Per-layer figures of the execution whose root span is ``root``:
    ``<span>.calls``, ``<span>.self_ns`` and every counter, summed (``_max``
    counters take the maximum).  Checks that the spans nest: no self time
    is negative and the self times sum to the root's duration."""
    hi = len(tracer)
    if any(not root <= tracer.parent[i] < i for i in range(root + 1, hi)):
        raise AssertionError("a span's parent lies outside its execution")
    selfs = self_times(tracer.parent, tracer.start, tracer.end, root, hi)
    if min(selfs) < 0 or sum(selfs) != tracer.end[root] - tracer.start[root]:
        raise AssertionError("span self times do not add up to the root duration")
    prof: dict[str, float] = defaultdict(int)
    for offset, own in enumerate(selfs):
        name = tracer.names[tracer.name_id[root + offset]]
        prof[name + ".calls"] += 1
        prof[name + ".self_ns"] += own
    for idx, key, value in tracer.counters_since(root):
        full = f"{tracer.names[tracer.name_id[idx]]}.{key}"
        if key.endswith("_max"):
            prof[full] = max(prof[full], value)
        else:
            prof[full] += value
    return prof


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------


def _terms(_args, result):
    return {"terms_out": len(result.terms)}


def _g_poly(_args, result):
    bits = max((abs(int(c)).bit_length() for c in result.terms.values()), default=0)
    return {"terms_out": len(result.terms), "coeff_bits_max": bits}


def _text_out(_args, result):
    return {"bytes": len(result)}


def _text_in(args, _result):
    return {"bytes": len(args[0])}


def _count(_args, result):
    return {"count": len(result)}


def _variety(_args, report):
    return {"points_visited": report.visited, "hits": report.count_j + report.count_p}


# (module, class or None, attribute, span name, counters from (args, result)).
TARGETS = (
    ("polyring", "Polynomial", "__mul__", "polyring.mul", None),
    ("polyring", "Polynomial", "__pow__", "polyring.pow", _terms),
    ("polyring", "Polynomial", "substitute", "polyring.substitute", None),
    ("polyring", "Polynomial", "reduce_mod", "polyring.reduce_mod", None),
    ("polyring", None, "format_poly", "polyring.format", _text_out),
    ("textio", None, "parse_poly", "textio.parse_poly", _text_in),
    ("textio", None, "poly_to_json", "textio.poly_to_json", None),
    ("textio", None, "poly_from_json", "textio.poly_from_json", None),
    ("scroll", None, "equation_set", "scroll.equation_set", None),
    ("scroll", None, "g_polynomial", "scroll.g_polynomial", _g_poly),
    ("scroll", None, "bridge", "scroll.bridge", None),
    ("scroll", None, "minors_2x2", "scroll.minors_2x2", _count),
    ("verify", None, "check_parametrization", "verify.check_parametrization", None),
    ("verify", None, "check_bridge_scroll_vanishing", "verify.check_bridge", None),
    ("verify", None, "check_bridge_determinant_power", "verify.check_bridge", None),
    ("verify", None, "plucker_identity", "verify.plucker_identity", None),
    ("verify", None, "compare_varieties", "verify.compare_varieties", _variety),
    ("export", None, "cas_script", "export.cas_script", _text_out),
    ("cli", None, "run", "cli.run", None),
)


def _wrap(tracer: Tracer, name: str, fn, measure):
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            tracer.count(idx, measure(args, result))
        return result

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, modules: dict) -> list[tuple[object, str, object]]:
    """Wrap every target; ``modules`` maps ``scrolleq`` module names (short,
    e.g. ``"cli"``, plus ``""`` for the package) to module objects.  Returns
    the (owner, attribute, original) list that ``uninstall`` restores."""
    patches = []
    for mod_name, cls_name, attr, span, measure in TARGETS:
        home = modules[mod_name]
        if cls_name is not None:
            owner = getattr(home, cls_name)
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, span, original, measure))
            continue
        original = getattr(home, attr)
        wrapped = _wrap(tracer, span, original, measure)
        for module in modules.values():
            if getattr(module, attr, None) is original:
                patches.append((module, attr, original))
                setattr(module, attr, wrapped)
    return patches


def uninstall(patches) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
