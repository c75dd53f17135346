"""In-memory span tracer that wraps pitmanyor's public functions from outside.

The package imports its helpers with `from .x import y`, so one function is
reachable under several module globals (`harness.eppf_log_prob`,
`verify.eppf_log_prob`, `eppf.eppf_log_prob`, ...).  `Tracer.install` replaces
the function object under every name in every loaded `pitmanyor` module that
holds it, and `Tracer.uninstall` puts the originals back.  Nothing inside the
package is edited.

Each wrapped call records one span (name, start, end, parent) in flat arrays.
A generator records one span per resumption, so the consumer's work between
items is not charged to it.  A layer's self time is its span time minus the
time of its direct child spans.
"""

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

SPAN = "span"  # one span per call
BATCH = "batch"  # one span per call, named per (alpha, d, n); counts rows
GEN = "gen"  # one span per generator resumption; counts items
COUNT = "count"  # no span, only a call count: keeps the caller's self time whole


def config_label(alpha: float, d: float, n: int) -> str:
    return f"a{alpha:g}-d{d:g}-n{n}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, kind: str):
        if kind == SPAN:
            nid = self._intern(name)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

        elif kind == BATCH:
            # signature (params, n, trials, rng, ...): one span name per config
            @functools.wraps(fn)
            def traced(params, n, trials, *args, **kwargs):
                label = config_label(params.alpha, params.d, n)
                self.counts[f"{name}.rows.{label}"] += trials
                idx = self._open(self._intern(f"{name}.{label}"))
                try:
                    return fn(params, n, trials, *args, **kwargs)
                finally:
                    self._close(idx)

        elif kind == GEN:
            nid = self._intern(name)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    self.counts[f"{name}.items"] += 1
                    yield item

        elif kind == COUNT:
            key = f"{name}.calls"

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

        else:
            raise ValueError(f"unknown wrap kind {kind!r}")
        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each (module, function, kind) under every name that holds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "pitmanyor" or key.startswith("pitmanyor."))
        ]
        for module, func, kind in targets:
            home = sys.modules.get(f"pitmanyor.{module}")
            original = getattr(home, func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
                continue
            wrapped = self._wrap(f"{module}.{func}", original, kind)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to pass to `summary` for the spans recorded after it."""
        return len(self.start), Counter(self.counts)

    def summary(self, mark: tuple[int, Counter]) -> dict:
        """Per-name self time, total time and calls since `mark`, plus counts."""
        first, counts_before = mark
        ids = np.array(self.name_id[first:], dtype=np.int64)
        dur = np.array(self.end[first:]) - np.array(self.start[first:])
        parent = np.array(self.parent[first:], dtype=np.int64) - first
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        width = len(self.names)
        self_s = np.bincount(ids, weights=dur - child, minlength=width)
        total_s = np.bincount(ids, weights=dur, minlength=width)
        calls = np.bincount(ids, minlength=width)
        return {
            "spans": {
                name: {"self_s": float(self_s[i]), "s": float(total_s[i]), "calls": int(calls[i])}
                for i, name in enumerate(self.names)
                if calls[i]
            },
            "counts": dict(self.counts - counts_before),
        }

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int32),
        )
