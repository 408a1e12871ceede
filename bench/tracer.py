"""Span tracer installed from outside the flatring package.

Each traced function is wrapped once, and the wrapper is bound in every
loaded ``flatring`` module that holds the original object, because
``from .lame import eigenpair`` copies the binding into the importing module.
Spans live in flat arrays (name, start, end, parent, op) and are written out
when the run ends.  A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# layer -> functions recorded as spans, one layer per flatring module
TARGETS = {
    "cli": ["main"],
    "harmonics": ["warm_cache", "green_expansion", "toroidal_green_expansion", "toroidal_summand"],
    "dirichlet": ["coefficients", "solve_interior"],
    "lame": ["solve_eigenpair", "solve_eigenpairs", "warm_mixed", "second_kind",
             "warm_second_kind", "second_kind_cached", "eval_e_real", "eval_e_imag",
             "eval_f_imag", "eigenpair"],
    "elliptic": ["_sncndn", "jacobi_imag"],
    "coords": ["cartesian_to_flatring", "flatring_to_cartesian", "cartesian_to_toroidal"],
    "legendre": ["legendre_p", "legendre_q", "gamma_ratio"],
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in TARGETS.items() for fn in fns]
ROOT = "cli.main"

# Counted without a span (their time stays with the caller): the eigen batch
# kernel, whose result length is the number of modes solved in one batch.
BATCH_KERNEL = ("lame", "_solve_mixed")

_MARK = "_bench_tracer_wrapper"


def _flatring_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "flatring" or name.startswith("flatring."))]


def _rebind(original, replacement) -> int:
    """Bind `replacement` wherever a flatring module holds `original`."""
    count = 0
    for mod in _flatring_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                count += 1
    return count


def wrapped_bindings() -> list[str]:
    """Names of flatring module attributes that are still tracer wrappers."""
    return [f"{mod.__name__}.{attr}" for mod in _flatring_modules()
            for attr, value in vars(mod).items() if getattr(value, _MARK, False)]


class Tracer:
    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.batches = 0
        self.batch_modes = 0
        self.missing: list[str] = []
        self._installed: list[tuple[object, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name_id, name in enumerate(SPAN_NAMES):
            layer, fn = name.split(".", 1)
            mod = sys.modules.get(f"flatring.{layer}")
            original = getattr(mod, fn, None) if mod is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self._bind(original, self._span_wrapper(original, name_id))
        mod = sys.modules.get(f"flatring.{BATCH_KERNEL[0]}")
        kernel = getattr(mod, BATCH_KERNEL[1], None) if mod is not None else None
        if kernel is None:
            self.missing.append(".".join(BATCH_KERNEL))
        else:
            self._bind(kernel, self._batch_counter(kernel))

    def _bind(self, original, wrapper) -> None:
        setattr(wrapper, _MARK, True)
        _rebind(original, wrapper)
        self._installed.append((original, wrapper))

    def uninstall(self) -> None:
        for original, wrapper in reversed(self._installed):
            _rebind(wrapper, original)
        self._installed.clear()

    def _span_wrapper(self, fn, name_id: int):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(-1.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _batch_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.batches += 1
            self.batch_modes += len(result)
            return result

        return wrapper

    # -- analysis ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "op": np.frombuffer(self.ops, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def self_times(self, spans: dict[str, np.ndarray]) -> np.ndarray:
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        return dur - child

    def check(self, spans: dict[str, np.ndarray], self_time: np.ndarray) -> dict:
        """Structural self-checks; returns the worst per-op closure error.

        Every span must be closed and lie inside its parent, which must belong
        to the same op; per op, the self times must sum to the root span.
        """
        n = spans["name"].size
        problems = []
        if self.stack:
            problems.append(f"{len(self.stack)} spans still open")
        if n and np.any(spans["end"] < spans["start"]):
            problems.append("span closed before it opened")
        has_parent = spans["parent"] >= 0
        par = spans["parent"][has_parent]
        if np.any(par >= np.flatnonzero(has_parent)):
            problems.append("parent recorded after child")
        if np.any(spans["op"][par] != spans["op"][has_parent]):
            problems.append("child span in another op than its parent")
        if np.any(spans["start"][has_parent] < spans["start"][par]) or np.any(
                spans["end"][has_parent] > spans["end"][par]):
            problems.append("child span outside its parent")
        root_id = SPAN_NAMES.index(ROOT)
        roots = np.flatnonzero(~has_parent)
        if np.any(spans["name"][roots] != root_id):
            problems.append("span outside any cli.main call")
        worst = 0.0
        if roots.size:
            root_dur = np.zeros(spans["op"].max() + 1)
            np.add.at(root_dur, spans["op"][roots], (spans["end"] - spans["start"])[roots])
            self_sum = np.zeros_like(root_dur)
            np.add.at(self_sum, spans["op"], self_time)
            ran = root_dur > 0.0
            worst = float(np.max(np.abs(self_sum[ran] - root_dur[ran]) / root_dur[ran]))
        if worst > 0.02:
            problems.append(f"self times miss the root span by {worst:.3%}")
        return {"closure_err_max": worst, "problems": problems}

    def write(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **spans)
