"""Spans around calls that cross a primpair module boundary.

`Tracer.install` wraps each named function wherever a primpair module bound
it (``search.field_make`` and ``ffcore.field_make`` get the same wrapper),
and `Tracer.uninstall` puts the originals back, so untraced rounds run the
program untouched. Spans stay in memory (name, parent span, start, end) and
are written out once, when the run ends. A generator function gets one span
per item it produces, so its time is the time spent producing items.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# (defining module, name): the call boundaries the per-layer metrics read.
BOUNDARIES = (
    ("ffcore", "field_make"),
    ("ffcore", "sieve_primes"),
    ("ffcore", "factorize"),
    ("ffcore", "FieldCtx.add_vec"),
    ("ffcore", "FieldCtx.mul_vec"),
    ("polyrat", "enumerate_family"),
    ("polyrat", "is_exceptional"),
    ("bounds", "sieve_pass_prefix"),
    ("bounds", "best_sieve"),
    ("search", "run_scan"),
    ("search", "exception_scan"),
    ("search", "q_in_Q"),
    ("search", "pair_exists"),
    ("cli", "main"),
)

PACKAGE = "primpair"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.missing: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_nested = array("b")  # inside a span of the same name
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")         # generator spans: 1 when an item came out
        self.examined = 0               # summed PairWitness.examined
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_nested.append(1 if self._depth[nid] else 0)
        self.items.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self._depth[nid] += 1
        return i

    def _close(self, i: int, nid: int, t0: float):
        self.end[i] = perf_counter()
        self.start[i] = t0
        self._stack.pop()
        self._depth[nid] -= 1

    def _wrap(self, fn, label: str):
        nid = self.name_ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
            self._depth.append(0)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = tracer._open(nid)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._close(i, nid, t0)
                        return
                    except BaseException:
                        tracer._close(i, nid, t0)
                        raise
                    tracer._close(i, nid, t0)
                    tracer.items[i] = 1
                    yield item
            return traced_gen

        count_examined = label == "search.pair_exists"

        def traced(*args, **kwargs):
            i = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i, nid, t0)
            if count_examined:
                tracer.examined += result.examined
            return result
        return traced

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every boundary in every loaded primpair module that binds it.
        A boundary whose defining module no longer has the name is recorded
        as missing and skipped."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        self.missing = []
        for modname, qual in BOUNDARIES:
            label = f"{modname}.{qual}"
            home = mods.get(f"{PACKAGE}.{modname}")
            owner, attr = home, qual
            if owner is not None and "." in qual:
                cls_name, attr = qual.split(".", 1)
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(label)
                continue
            wrapper = self._wrap(original, label)
            if owner is home:
                targets = [m for m in mods.values() if getattr(m, attr, None) is original]
            else:
                targets = [owner]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def write(self, path: str):
        """Spans as a compressed npz: names, name index, parent, start, end."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))

    def summary(self) -> dict[str, float]:
        """Per name: calls, total time (outermost spans only), self time
        (span time minus the time its child spans cover) and generator items.
        Missing names read 0."""
        n = len(self.span_name)
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        nested = np.frombuffer(self.span_nested, dtype=np.int8)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        outer = nested == 0
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names[outer], weights=dur[outer], minlength=k)
        self_total = np.bincount(names, weights=self_time, minlength=k)
        items = np.bincount(names, weights=np.frombuffer(self.items, dtype=np.int64), minlength=k)
        out = {}
        for nid, label in enumerate(self.names):
            out[f"{label}.calls"] = int(calls[nid])
            out[f"{label}.s"] = float(total[nid])
            out[f"{label}.self_s"] = float(self_total[nid])
            out[f"{label}.items"] = int(items[nid])
        out["search.pair_exists.examined"] = self.examined
        return out
