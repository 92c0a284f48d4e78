"""Spans around the calls into quncert's modules, recorded from outside.

The tracer rebinds the package's public functions, wherever a quncert module
holds them, to wrappers that record a span. Spans are kept in memory and
written when the traced pass ends. Only calls made inside a benchmark call
(``Tracer.call``) are recorded, so the benchmark's own reference computations
never count. The same rule applies to the numpy call counters.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, functions, layer). Time in a layer counts spans not nested in a
# span of the same layer, so jc_state -> apply_kraus is counted once.
WRAPPED = (
    ("cli", ("main",), "cli.main"),
    ("scenarios", ("run_scenario",), "scenarios.run"),
    ("scenarios", ("verify",), "scenarios.verify"),
    ("scenarios", ("random_density", "random_observable"), "scenarios.sample_ms"),
    (
        "channels",
        ("apply_kraus", "local_channel", "jc_state", "jc_survival", "dephased_bell_diagonal"),
        "channels.evolve_ms",
    ),
    ("bounds", ("evaluate_bounds",), "bounds.evaluate_ms"),
    ("bounds", ("uncertainty_sum",), "bounds.U_ms"),
    ("bounds", ("complementarity",), "bounds.complementarity_ms"),
    ("correlations", ("classical_correlation",), "correlations.J"),
    ("correlations", ("concurrence",), "correlations.concurrence_ms"),
    ("entropy", ("von_neumann", "conditional_entropy"), "entropy.S_ms"),
    ("entropy", ("mutual_information",), "entropy.I_ms"),
)

# Self time of a span: its duration minus its direct children in the given
# layers (None: all children).
SELF_TIMES = {
    "bounds.evaluate_ms": ("bounds.self_ms", None),
    "cli.main": ("cli.self_ms", {"scenarios.run", "scenarios.verify"}),
    "scenarios.verify": (
        "scenarios.verify_self_ms",
        {"scenarios.sample_ms", "bounds.evaluate_ms"},
    ),
}

COUNTED = (("linalg", "eigvalsh"), ("linalg", "eigh"), (None, "einsum"))

CALL = "bench.call"


def _j_layer(args) -> str:
    """Classical correlation split by the measured side: qubit and qutrit searches differ."""
    return f"correlations.J_ms.dA{args[0].dA}"


class Tracer:
    """Records spans and numpy call counts while installed."""

    def __init__(self):
        # each span: [id, parent, layer, name, start, end, states]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def call(self, states: int):
        """One benchmark call into the program that evaluates `states` states."""
        sid = self._open(CALL, CALL, states)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, layer, name, states=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, layer, name, perf_counter(), None, states])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.spans[sid][5] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            name = layer if layer != "correlations.J" else _j_layer(args)
            sid = self._open(name, fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return wrapper

    def _count_wrapper(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        package = [m for n, m in sys.modules.items() if n == "quncert" or n.startswith("quncert.")]
        for module_name, names, layer in WRAPPED:
            home = sys.modules[f"quncert.{module_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._span_wrapper(original, layer)
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)
        for sub, name in COUNTED:
            owner = getattr(np, sub) if sub else np
            self._rebind(owner, name, self._count_wrapper(getattr(owner, name), f"numpy.{name}_calls"))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def per_call(self) -> list[dict[str, float]]:
        """Seconds per layer in each benchmark call, plus its state count."""
        spans = self.spans
        children = defaultdict(list)
        for s in spans:
            if s[1] is not None:
                children[s[1]].append(s)
        calls = {}
        for s in spans:
            sid, parent, layer = s[0], s[1], s[2]
            if parent is None:
                calls[sid] = {"states": s[6]}
                continue
            root, nested = parent, False
            while spans[root][1] is not None:
                nested = nested or spans[root][2] == layer
                root = spans[root][1]
            row = calls[root]
            if not nested:
                row[layer] = row.get(layer, 0.0) + s[5] - s[4]
            if layer in SELF_TIMES:
                metric, minus = SELF_TIMES[layer]
                busy = sum(c[5] - c[4] for c in children[sid] if minus is None or c[2] in minus)
                row[metric] = row.get(metric, 0.0) + s[5] - s[4] - busy
        return list(calls.values())

    def layer_metrics(self, names: list[str]) -> dict[str, tuple[float, int]]:
        """Median ms per state over the calls that used each layer, with that call count."""
        rows = self.per_call()
        out = {}
        for name in names:
            per_state = [r[name] * 1e3 / r["states"] for r in rows if name in r]
            out[name] = (statistics.median(per_state) if per_state else 0.0, len(per_state))
        evaluate = sum(r.get("bounds.evaluate_ms", 0.0) for r in rows)
        j = sum(v for r in rows for k, v in r.items() if k.startswith("correlations.J_ms"))
        out["correlations.J_share"] = (j / evaluate if evaluate else 0.0, len(rows))
        states = sum(r["states"] for r in rows)
        for _, name in COUNTED:
            key = f"numpy.{name}_calls"
            out[key] = (self.counts[key] / states, states)
        return out

    def write(self, path):
        """Write every span as one JSON line: times in seconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, layer, name, start, end, states in self.spans:
                record = {"id": sid, "parent": parent, "layer": layer, "fn": name,
                          "start": start - t0, "end": end - t0}
                if states is not None:
                    record["states"] = states
                fh.write(json.dumps(record) + "\n")
