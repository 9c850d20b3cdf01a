"""In-memory spans and counters for the traced benchmark run.

The tracer works from outside the program.  While a traced round runs it
swaps chosen polydisc functions, every numpy.linalg function and the
battery criteria that `run_battery` looks up at call time for timing
wrappers, in every polydisc module that holds them, and puts the
originals back when the round ends.  A span is (name, start, end, parent
index); spans stay in memory until the run writes them out.

numpy.linalg calls are counted, not recorded as spans, and only while a
span is open, so the benchmark's own checks between operations are not
counted.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

MIB = 1024.0 * 1024.0
LINALG_KINDS = ("svd", "eigh", "solve", "cond", "norm")

# (polydisc module, function, span name); a span name is also the stem of
# its per-layer metric: "<span>_s" is its time per round.
LAYER_FUNCTIONS = (
    ("tuples", "validate", "tuples.validate"),
    ("tuples", "classify", "tuples.classify"),
    ("defects", "build_defects", "defects.build"),
    ("charfn", "build_charfn", "charfn.build"),
    ("charfn", "inner_residual", "charfn.inner_residual"),
    ("charfn", "coincidence_from_unitary", "charfn.coincidence"),
    ("hardy", "quotient_model", "hardy.quotient_model"),
    ("hardy", "structural_checks", "hardy.structural_checks"),
    ("hardy", "ahern_clark_growth", "hardy.growth"),
    ("dilation", "build_dilation", "dilation.build"),
    ("dilation", "isometry_defect", "dilation.isometry"),
    ("dilation", "intertwining_defect", "dilation.intertwining"),
    ("dilation", "minimality_defect", "dilation.minimality"),
    ("dilation", "model_equivalence_defect", "dilation.model_equivalence"),
    ("dilation", "image_invariance_defect", "dilation.image_invariance"),
    ("battery", "onevar_reduction", "battery.c01"),
    ("battery", "blaschke_recovery", "battery.c02"),
    ("battery", "onevar_inner", "battery.c03"),
    ("battery", "pair_form_identity", "battery.c04"),
    ("battery", "coincidence_battery", "battery.c05"),
    ("battery", "positivity_battery", "battery.c06"),
    ("battery", "model_suite", "battery.c07"),
    ("battery", "growth_battery", "battery.c08"),
    ("battery", "series_battery", "battery.c09"),
    ("battery", "dilation_battery", "battery.c10"),
    ("battery", "dilation_form_battery", "battery.c11"),
)
# Spans the benchmark opens itself around its calls of `polydisc.cli.main`.
CLI_SPANS = ("cli.classify", "cli.charfn", "cli.hardy", "cli.dilate", "cli.coincide", "cli.suite")
EVAL_SPAN = "charfn.eval"
TIMED_SPANS = tuple(s for _, _, s in LAYER_FUNCTIONS) + (EVAL_SPAN,) + CLI_SPANS


class Tracer:
    """Spans and counters of the traced rounds of one run."""

    def __init__(self, modules: dict):
        self.modules = modules  # polydisc submodule name -> module
        self.spans: list[list] = []
        self.origin = time.perf_counter()
        self.rounds = 0
        self.counts: Counter = Counter()
        self.lapack_s = 0.0
        self.max_operand = 0
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._swapped: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() - self.origin, None, parent])
        self._stack.append(index)
        self._open[name] += 1
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter() - self.origin
            self._stack.pop()
            self._open[name] -= 1

    def note_max(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], int(value))

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        hooks = {
            "hardy.quotient_model": lambda out: self.note_max("hardy.max_space_dim", out.space.dim),
            "dilation.build": lambda out: self.note_max("dilation.max_space_dim", out.space.dim),
        }
        for module, attr, name in LAYER_FUNCTIONS:
            original = getattr(self.modules[module], attr)
            self._swap_everywhere(original, self._timed(name, original, hooks.get(name)))
        charfn_class = self.modules["charfn"].CharFn
        self._swap(charfn_class, "eval", self._timed_eval(charfn_class.eval))
        for attr in np.linalg.__all__:
            fn = getattr(np.linalg, attr)
            if callable(fn) and not isinstance(fn, type):
                self._swap(np.linalg, attr, self._timed_linalg(attr, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._swapped):
            setattr(owner, attr, original)
        self._swapped.clear()
        self.rounds += 1

    def _swap(self, owner, attr: str, replacement) -> None:
        self._swapped.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _swap_everywhere(self, original, replacement) -> None:
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._swap(module, attr, replacement)

    def _timed(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(out)
            return out

        return wrapper

    def _timed_eval(self, fn):
        @functools.wraps(fn)
        def wrapper(charfn, w, *args, **kwargs):
            points = np.size(w) // charfn.n
            before = self.counts["linalg.all_calls"]
            with self.span(EVAL_SPAN):
                out = fn(charfn, w, *args, **kwargs)
            self.counts["charfn.eval_points"] += points
            self.counts["charfn.eval_lapack_calls"] += self.counts["linalg.all_calls"] - before
            if self._open["charfn.inner_residual"]:
                self.counts["charfn.grid_points"] += points
            return out

        return wrapper

    def _timed_linalg(self, attr: str, fn):
        kind = attr if attr in LINALG_KINDS else "other"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.lapack_s += time.perf_counter() - start
                self.counts[f"linalg.{kind}_calls"] += 1
                self.counts["linalg.all_calls"] += 1
                size = max((a.nbytes for a in args if isinstance(a, np.ndarray)), default=0)
                self.max_operand = max(self.max_operand, size)

        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics, as values per traced round."""
        rounds = max(self.rounds, 1)
        busy: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
        out = {f"{name}_s": busy[name] / rounds for name in TIMED_SPANS}
        for kind in LINALG_KINDS + ("other",):
            out[f"linalg.{kind}_calls"] = self.counts[f"linalg.{kind}_calls"] / rounds
        points = self.counts["charfn.eval_points"]
        out.update({
            "linalg.lapack_s": self.lapack_s / rounds,
            "linalg.max_operand_mib": self.max_operand / MIB,
            "defects.build_calls": calls["defects.build"] / rounds,
            "charfn.eval_points": points / rounds,
            "charfn.grid_points": self.counts["charfn.grid_points"] / rounds,
            "charfn.us_per_point": 1e6 * busy[EVAL_SPAN] / points if points else 0.0,
            "charfn.lapack_calls_per_point": self.counts["charfn.eval_lapack_calls"] / points if points else 0.0,
            "hardy.max_space_dim": self.counts["hardy.max_space_dim"],
            "dilation.max_space_dim": self.counts["dilation.max_space_dim"],
            "cli.report_bytes": self.counts["cli.report_bytes"] / rounds,
        })
        return out
