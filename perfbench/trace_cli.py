"""Run the qgrass CLI with spans around each module's public functions.

    PYTHONPATH=src python3 perfbench/trace_cli.py <qgrass arguments>

Stdout and the exit code are those of `python3 -m qgrass.cli`.  The wrappers
are installed from outside the package, so `src/qgrass` is untouched.  Spans
stay in memory; at exit one line, TRACE_MARK followed by the aggregated spans
as JSON, goes to stderr.

Rules the wrappers follow, because of how qgrass is written:
- `from .schur import pieri_h` leaves a separate name in every importing
  module, so each wrapper replaces the original at every binding site in
  every loaded qgrass module.  `DegreeSlice` methods and `Partition.__init__`
  are patched on their classes.
- `sweep` runs every task in a thread pool, even with one worker, so each
  thread keeps its own parent stack.  A span opened with an empty stack in a
  worker thread is a child of the innermost open span of the main thread (the
  sweep); that parent's self time subtracts the union of such intervals.
- A span is not nested inside a span of the same name: recursion and
  wrapper-to-wrapper calls (`k_conjugate` -> `_k_conjugate`) count once.
- Enumerators are generators, so their time is taken around every `next`,
  not only around creation.  `calls` counts enumerators created.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

TRACE_MARK = "QGRASS-TRACE "

# Memoised functions whose cache_info() is read at exit, as (module, name).
MEMOS = (
    ("grassmann", "_slice_data"),
    ("lagrangian", "_lg_slice_data"),
    ("lagrangian", "_reduce_monomial"),
    ("kschur", "_k_schur"),
    ("schur", "_h_to_schur"),
    ("schur", "_horizontal_strips"),
    ("qseries", "q_binomial"),
)

# Span names whose individual (start, end) intervals are kept.
KEEP_INTERVALS = ("harness.check", "harness.sweep")

_clock = time.perf_counter


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list = []
        self._threads: list[dict] = []

    def _state(self) -> dict:
        state = getattr(self._local, "state", None)
        if state is None:
            is_main = threading.current_thread() is threading.main_thread()
            state = {
                "stack": self._main_stack if is_main else [],
                "main": is_main,
                "spans": {},  # name -> [calls, total_s, self_s]
                "counts": {},  # name -> number
                "intervals": {},  # name -> [(t0, t1), ...]
            }
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name: str):
        """Open a span; None when the innermost open span has the same name."""
        state = self._state()
        stack = state["stack"]
        if stack and stack[-1][0] == name:
            return None
        frame = [name, 0.0, 0.0, None]  # name, start, same-thread child time, cross-thread children
        stack.append(frame)
        frame[1] = _clock()
        return frame

    def exit(self, frame, call: bool = True) -> None:
        t1 = _clock()
        state = self._local.state
        stack = state["stack"]
        stack.pop()
        name, t0, covered, cross = frame
        duration = t1 - t0
        if cross:
            with self._lock:
                cross = list(cross)
            covered += union_length(cross, t0, t1)
        spans = state["spans"]
        entry = spans.get(name)
        if entry is None:
            entry = spans[name] = [0, 0.0, 0.0]
        if call:
            entry[0] += 1
        entry[1] += duration
        entry[2] += max(duration - covered, 0.0)
        if name in KEEP_INTERVALS:
            state["intervals"].setdefault(name, []).append((t0, t1))
        if stack:
            stack[-1][2] += duration
        elif not state["main"] and self._main_stack:
            parent = self._main_stack[-1]
            with self._lock:
                if parent[3] is None:
                    parent[3] = []
                parent[3].append((t0, t1))

    def add(self, name: str, amount=1) -> None:
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + amount

    def snapshot(self) -> dict:
        """Merge every thread's spans, counts and intervals."""
        spans: dict[str, list] = {}
        counts: dict[str, float] = {}
        intervals: dict[str, list] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, (calls, total, self_s) in state["spans"].items():
                entry = spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_s
            for name, value in state["counts"].items():
                counts[name] = counts.get(name, 0) + value
            for name, items in state["intervals"].items():
                intervals.setdefault(name, []).extend(items)
        return {
            "spans": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in spans.items()},
            "counts": counts,
            "intervals": intervals,
        }


def span_wrapper(tracer: Tracer, name: str, fn, after=None):
    """Time every call of fn as a span; after(args, result) records counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        if frame is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(args, result)
        return result

    return wrapper


class _TracedIterator:
    __slots__ = ("_it", "_tracer", "_name")

    def __init__(self, it, tracer: Tracer, name: str):
        self._it = it
        self._tracer = tracer
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name)
        if frame is None:
            return next(self._it)
        try:
            return next(self._it)
        finally:
            self._tracer.exit(frame, call=False)


def iterator_wrapper(tracer: Tracer, name: str, fn):
    """Count each enumerator created and time it through its iteration."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(name + ".calls")
        return _TracedIterator(fn(*args, **kwargs), tracer, name)

    return wrapper


def counter_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(name)
        return fn(*args, **kwargs)

    return wrapper


def _replace_everywhere(modules, original, replacement) -> int:
    sites = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                sites += 1
    return sites


def install(tracer: Tracer) -> dict:
    """Wrap the layers' functions; return the memo caches to read at exit."""
    import qgrass.cli  # noqa: F401  (loads every module that holds a binding)
    from qgrass import echelon, grassmann, harness, kschur, lagrangian, partitions, qseries, schur

    modules = [m for n, m in sorted(sys.modules.items()) if n == "qgrass" or n.startswith("qgrass.")]
    memos = {f"{mod}.memo.{fn}": getattr(sys.modules[f"qgrass.{mod}"], fn) for mod, fn in MEMOS}

    def wrap_functions(module, names, make):
        for fn_name in names:
            original = getattr(module, fn_name)
            if _replace_everywhere(modules, original, make(original)) == 0:
                raise RuntimeError(f"no binding site found for {module.__name__}.{fn_name}")

    def wrap_method(cls, attr, make):
        setattr(cls, attr, make(getattr(cls, attr)))

    def spans(name, after=None):
        return lambda fn: span_wrapper(tracer, name, fn, after)

    def on_pieri(args, result):
        tracer.add("schur.pieri_h.terms_out", len(result))

    def on_project(args, result):
        tracer.add("grassmann.project.terms_in", len(args[0]))
        tracer.add("grassmann.project.terms_kept", len(result))

    def on_add_vector(args, result):
        if result:
            tracer.add("echelon.add_vector.useful")

    wrap_functions(schur, ["pieri_h"], spans("schur.pieri_h", on_pieri))
    wrap_functions(schur, ["h_to_schur"], spans("schur.h_to_schur"))
    wrap_functions(grassmann, ["project"], spans("grassmann.project", on_project))
    wrap_functions(grassmann, ["subalgebra_hilbert", "subalgebra_slices"], spans("grassmann.subalgebra_hilbert"))
    wrap_functions(grassmann, ["_basis_report"], spans("grassmann.basis_report"))
    wrap_method(echelon.DegreeSlice, "add_vector", spans("echelon.add_vector", on_add_vector))
    wrap_method(echelon.DegreeSlice, "contains_vector", spans("echelon.contains_vector"))
    wrap_method(echelon.DegreeSlice, "basis_rows", spans("echelon.basis_rows"))
    wrap_functions(kschur, ["k_schur"], spans("kschur.k_schur"))
    wrap_functions(lagrangian, ["lg_subalgebra_hilbert", "lg_subalgebra_slices"],
                   spans("lagrangian.lg_subalgebra_hilbert"))
    wrap_functions(lagrangian, ["lg_top_power"], spans("lagrangian.lg_top_power"))
    wrap_functions(
        partitions,
        [
            "partitions_in_box_of_size",
            "partitions_in_box",
            "k_bounded_partitions",
            "strict_partitions_of_size",
            "strict_partitions_in_triangle",
            "vacant_partitions",
            "candidate_partitions",
        ],
        lambda fn: iterator_wrapper(tracer, "partitions.enumerate", fn),
    )
    wrap_functions(partitions, ["k_conjugate", "_k_conjugate"], spans("partitions.k_conjugate"))
    wrap_method(partitions.Partition, "__init__",
                lambda fn: counter_wrapper(tracer, "partitions.Partition.constructed", fn))
    wrap_functions(
        qseries,
        [
            "grass_subalgebra_formula",
            "lg_subalgebra_formula",
            "grass_hilbert_series",
            "lg_hilbert_series",
            "q_binomial_prime",
            "q_binomial_double_prime",
        ],
        spans("qseries.formula"),
    )
    wrap_functions(qseries, ["q_binomial"], lambda fn: counter_wrapper(tracer, "qseries.q_binomial.calls", fn))
    wrap_functions(harness, [n for n in vars(harness) if n.startswith("check_")], spans("harness.check"))
    wrap_functions(harness, ["sweep"], spans("harness.sweep"))
    wrap_functions(qgrass.cli, ["main"], spans("cli.main"))
    return memos


def main(argv: list[str]) -> int:
    tracer = Tracer()
    memos = install(tracer)
    import qgrass.cli

    try:
        return qgrass.cli.main(argv)
    finally:
        sys.stdout.flush()
        trace = tracer.snapshot()
        trace["memos"] = {}
        for name, fn in memos.items():
            info = fn.cache_info()
            trace["memos"][name] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
        sys.stderr.write(TRACE_MARK + json.dumps(trace, separators=(",", ":")) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
