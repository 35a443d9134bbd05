"""Span tracer for the benchmark's traced runs.

Wraps the public qew functions named in ``LAYER_FUNCTIONS`` and records one
span (name, start, end, parent) per call.  Spans stay in memory until the
run ends.  qew modules bind helpers at import (``from .qmat import
as_density``), so each wrapper is rebound in every qew module namespace that
holds the original function; otherwise calls from inside qew would be missed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from math import prod

# Layer functions whose calls are timed, as "<module>.<function>".
LAYER_FUNCTIONS = (
    "qmat.as_density",
    "qmat.expectation",
    "states.subspace_elements",
    "states.apply_blind_channel",
    "witnesses.witness_epr",
    "witnesses.witness_ghz",
    "witnesses.witness_w",
    "witnesses.witness_qudit",
    "witnesses.evaluate_battery",
    "oracle.sample_separable",
    "oracle.sample_biseparable",
    "oracle.random_blind_channel",
    "oracle.ppt_check",
    "oracle.maximize_witness",
    "networks.generate_cluster",
    "networks.source_batteries",
    "zkp.run_protocol",
    "zkp.write_transcript",
    "zkp.read_transcript",
    "zkp.verify_transcript",
    "cli.main",
)

SPAN_STATS = (("calls", "count"), ("self_s", "s"), ("failed", "count"))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work a call does, computed from its arguments (not measured):
# dense D^3 for validation and expectation, terms * D^2 for a blind channel,
# file bytes for transcript I/O.
WORK_COUNTERS = {
    "qmat.as_density": ("work_D3", lambda a, k: prod(int(d) for d in _arg(a, k, 1, "sites")) ** 3),
    "qmat.expectation": ("work_D3", lambda a, k: _arg(a, k, 0, "rho").dim ** 3),
    "states.apply_blind_channel": (
        "work_TD2",
        lambda a, k: len(_arg(a, k, 1, "ch").terms) * _arg(a, k, 0, "rho").dim ** 2,
    ),
    "zkp.write_transcript": ("bytes", lambda a, k: os.path.getsize(_arg(a, k, 1, "path"))),
    "zkp.read_transcript": ("bytes", lambda a, k: os.path.getsize(_arg(a, k, 0, "path"))),
}

WORK_UNITS = {"work_D3": "count", "work_TD2": "count", "bytes": "bytes"}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every span statistic and work counter."""
    out = [(f"{fn}.{stat}", unit) for fn in LAYER_FUNCTIONS for stat, unit in SPAN_STATS]
    out += [(f"{fn}.{key}", WORK_UNITS[key]) for fn, (key, _) in WORK_COUNTERS.items()]
    return out


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.failed: dict[str, int] = {}
        self.work: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls inside this block record nothing (the benchmark's own checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name: str, fn):
        counter = WORK_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] = self.failed.get(name, 0) + 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.work[key] = self.work.get(key, 0) + counter[1](args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every layer function in every loaded qew module."""
        modules = [m for n, m in sys.modules.items() if n == "qew" or n.startswith("qew.")]
        for full in LAYER_FUNCTIONS:
            mod_name, fn_name = full.split(".")
            original = getattr(sys.modules[f"qew.{mod_name}"], fn_name)
            wrapper = self._wrap(full, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def stats(self) -> dict[str, float]:
        """calls, self_s and failed per layer function, plus work counters.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for fn in LAYER_FUNCTIONS:
            out[f"{fn}.calls"] = 0
            out[f"{fn}.self_s"] = 0.0
            out[f"{fn}.failed"] = self.failed.get(fn, 0)
        for (name, start, end, _parent), covered in zip(self.spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - covered
        for fn, (key, _) in WORK_COUNTERS.items():
            out[f"{fn}.{key}"] = self.work.get(f"{fn}.{key}", 0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
