"""Trajectory gates: the bitset kernel answers columnar checks in one dispatch,
the column encoder gives a per-cell interner's codes and interns each
distinct value once per column, and the bit-plane bitset builder gives the
per-cell builder's bitsets.

The columnar refactor's whole point is that state formulas over a long
trace answer as whole-column bitset operations instead of per-position
dispatch.  This benchmark checks a family of state/temporal formulas
through the same compiled plan twice — once with the
:class:`~repro.compile.vector.TailKernel` (the default binding: the trace
is stutter-terminated, so it is checked as a finished prefix) and once
with ``vectorize=False`` (the per-position memo path) — on a 10k-state and
a 100k-state trace, and asserts verdict parity per formula.  A lasso with
a longer cycle binds no kernel, so the gate's traces end by repeating
their last state, the paper's finite-computation convention.

It gates on a count the code controls, not on a clock: with the kernel,
each formula is answered in exactly one plan dispatch call
(``PlanStats.dispatch_calls``) at both sizes.  The per-position path takes
from dozens of calls up to one per state on the same formulas, so a plan
whose kernel stops binding fails the gate on any machine.

The timed speedup on the large trace is still measured and recorded in
``BENCH_columnar.json`` at the repo root, stamped with the machine that
produced it (``nproc``, Python version, platform), but it is not asserted:
on a shared 2-core runner the same code measures anywhere from under 2x to
over 3x.  The file is the first series of the ROADMAP's
benchmark-trajectory convention, one committed entry per PR that moves the
number.

A second gate sweeps the column encoder: one 16,384-state column of
booleans, at 2, 12, 200 and 1,024 int codes and with every value distinct,
and beside them an operation column of 2, 12 and 200 distinct records
(every fourth state idle) and a column of 200 distinct ints past 255, each
built static (one window) and in 6-, 16- and 64-state windows (a fleet
frame's last tenth averages 5.6 states).  Boolean windows and windows of
ints in 0–255 that bring a new value are coded by byte translation; the
others, records among them, by one lookup pass, after interning what is
new.  It gates on the codes, which at every point equal a per-cell
reference interner's (one dictionary step per cell), and on a count: the
cell-by-cell intern step
(``_ColumnBase._intern``) runs at most once per distinct value per column,
where a per-cell interner runs it once per cell of every window that
brings a new value.  The nanoseconds per cell of each build are recorded,
the value columns' and the record and wide-int columns' under labels of
their own, with the machine stamp, and not asserted.

A third gate sweeps the per-code bitset builder (``Column.code_bits``)
over the same columns at 2, 12, 200 and 1,024 codes (the all-distinct
column is past the bitset cap), extended once (static) or window by window
at 16 and 64 states, as the kernel extends them per append.  It gates on
the bitsets only: at every point they equal those of a per-cell reference
builder kept here (one interpreted step per cell, the builder the bit-plane
split replaced).  Both builders' nanoseconds per cell are recorded under
their own label, with the machine stamp, and not asserted.

A fourth gate pins the kernel's fused interval constructions, which pass
an interval as its two positions: one-shot ``check_spec`` runs whose
clauses are ``[] [I] α`` over state-formula events (the two-process mutex
spec on a 400-entry trace, the reliable queue on 40 values) construct no
:class:`~repro.semantics.construction.Interval` at all, counted through
``Interval.__post_init__`` (fused closures that built an ``Interval`` per
search and per result constructed 1,600 and 7,380), and make exactly the
plan dispatch calls and event searches recorded here, so the saving
changes no work the plan does.
"""

import json
import os
import platform
import random
import time
from collections import Counter

from repro.api import Session
from repro.compile import PlanState, compile_formula
from repro.semantics import columns
from repro.semantics.construction import Interval
from repro.semantics.columns import ABSENT, Column, ColumnStore, Window
from repro.semantics.state import OperationRecord, State
from repro.semantics.trace import Trace
from repro.specs import mutex_spec, reliable_queue_spec
from repro.syntax.parser import parse_formula
from repro.systems import mutex_trace, reliable_queue_trace

#: Concrete state counts of the checked traces.  The timed ratio is
#: recorded on the last (largest) one.
TRACE_STATES = (10_002, 100_002)

#: Pure state/temporal formulas the kernel vectorizes end to end.  The mix
#: covers boolean columns, comparisons both satisfied and refuted,
#: ``[]``/``<>`` directly over state formulas, and connective combinations.
FORMULAS = [
    "[] (p -> (q \\/ x != 3))",
    "<> (x == 7 /\\ p)",
    "[] (x >= 0)",
    "<> (x == 11)",
    "[] ((p /\\ q) -> x < 9)",
    "[] (~p \\/ ~q \\/ x == 0 \\/ x == 2 \\/ x == 4 \\/ x == 6 \\/ x == 8)",
]

#: Plan dispatch calls the kernel needs per formula: the root answers
#: whole, from column bitsets.
KERNEL_DISPATCH_CALLS = 1

SERIES_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_columnar.json")
SERIES_LABEL = "columnar-v2"

#: The encoder sweep: states of the synthetic column, window sizes (None:
#: one static window), cardinalities ("bool": booleans, None: every value
#: distinct), timed repetitions per build (the best is kept), and the
#: series label.
ENCODER_STATES = 16_384
ENCODER_FRAMES = (None, 6, 16, 64)
ENCODER_CODES = ("bool", 2, 12, 200, 1024, None)
ENCODER_REPS = 5
ENCODER_LABEL = "encoder-v2"

#: The encoder sweep's keyed columns, recorded under their own label:
#: ``op-N``, an operation column of N distinct records; ``wide-N``, N
#: distinct ints past 255 (under 256 codes, where the byte path is tried).
ENCODER_KEYED = ("op-2", "op-12", "op-200", "wide-200")
ENCODER_KEYED_LABEL = "encoder-keyed-v1"

#: The bitset-builder sweep: window sizes, cardinalities (all at or under
#: the bitset cap) and the series label; states and repetitions are the
#: encoder sweep's.
CODE_BITS_FRAMES = (None, 16, 64)
CODE_BITS_CODES = (2, 12, 200, 1024)
CODE_BITS_LABEL = "code-bits-v1"

#: The fused-construction gate: per check, the spec and trace it runs and
#: the plan dispatch calls and event searches the check makes.
FUSED_CHECKS = {
    "mutex": (lambda: (mutex_spec(2), mutex_trace(2, entries=400, seed=1)), 1208, 1602),
    "reliable_queue": (
        lambda: (reliable_queue_spec(), reliable_queue_trace(40, seed=1)), 6602, 6601,
    ),
}


def build_trace(states):
    """A deterministic stutter-terminated trace of ``states`` states over
    two booleans and one int."""
    rows = [
        State({"p": i % 2 == 0, "q": i % 3 == 0, "x": (i * 7 + i // 13) % 10})
        for i in range(states)
    ]
    return Trace(rows)


def machine():
    """The stamp a timed figure means nothing without."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def record_point(row, label=SERIES_LABEL):
    """Append/refresh one gate's entry in the committed trajectory series."""
    series = []
    if os.path.exists(SERIES_PATH):
        with open(SERIES_PATH) as handle:
            series = json.load(handle)
    entry = {"label": label, **row}
    for index, existing in enumerate(series):
        if existing.get("label") == label:
            series[index] = entry
            break
    else:
        series.append(entry)
    with open(SERIES_PATH, "w") as handle:
        json.dump(series, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_both_ways(plan, trace):
    """Bind ``plan`` with and without the kernel; time and count each side.

    Binding is inside the timed window: the kernel pass over the columns
    is part of the vectorized path's real cost.
    """
    started = time.perf_counter()
    kernel = plan.evaluator(trace)
    kernel_verdict = kernel.satisfies()
    kernel_s = time.perf_counter() - started

    started = time.perf_counter()
    per_position = plan.evaluator(trace, vectorize=False)
    per_position_verdict = per_position.satisfies()
    per_position_s = time.perf_counter() - started
    return {
        "verdict": kernel_verdict,
        "per_position_verdict": per_position_verdict,
        "kernel_dispatch_calls": kernel.stats.dispatch_calls,
        "per_position_dispatch_calls": per_position.stats.dispatch_calls,
        "vectorized_s": kernel_s,
        "per_position_s": per_position_s,
    }


def test_kernel_answers_each_formula_in_one_dispatch(benchmark):
    """Kernel: 1 dispatch call per formula at 10k and 100k states; parity."""
    plans = [compile_formula(parse_formula(text)) for text in FORMULAS]

    def sweep():
        rows = []
        for states in TRACE_STATES:
            trace = build_trace(states)
            assert trace.length == states
            for text, plan in zip(FORMULAS, plans):
                rows.append({"states": states, "formula": text,
                             **check_both_ways(plan, trace)})
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for row in rows:
        where = (row["states"], row["formula"])
        assert row["verdict"] is row["per_position_verdict"], where
        assert row["kernel_dispatch_calls"] == KERNEL_DISPATCH_CALLS, row
        # The count separates the two paths: without the kernel the same
        # question takes many calls, so the gate cannot pass vacuously.
        assert row["per_position_dispatch_calls"] > KERNEL_DISPATCH_CALLS, row

    largest = [row for row in rows if row["states"] == TRACE_STATES[-1]]
    vectorized_s = sum(row["vectorized_s"] for row in largest)
    per_position_s = sum(row["per_position_s"] for row in largest)
    point = {
        "states": TRACE_STATES[-1],
        "formulas": len(FORMULAS),
        "kernel_dispatch_calls": sorted(
            {row["kernel_dispatch_calls"] for row in rows}
        ),
        "per_position_dispatch_calls": sorted(
            {row["per_position_dispatch_calls"] for row in largest}
        ),
        "vectorized_ms": round(vectorized_s * 1000.0, 3),
        "per_position_ms": round(per_position_s * 1000.0, 3),
        "speedup": round(per_position_s / vectorized_s, 2),
        "machine": machine(),
    }
    benchmark.extra_info["row"] = point
    print()
    print(point)
    record_point(point)


def encoder_window(codes):
    """``ENCODER_STATES`` states of one column ``x``: ``codes`` distinct
    ints (or, for "bool", the two booleans), each taken equally often in a
    seeded shuffle, or all distinct.  A keyed column (``ENCODER_KEYED``,
    ``op-N`` or ``wide-N``) turns the N-code column's values into records
    of operation ``x`` (a fresh record per state, every fourth state idle)
    or into ints past 255."""
    if codes in ENCODER_KEYED:
        kind, count = codes.split("-")
        values = [row["x"] for row in encoder_window(int(count)).values]
        if kind == "wide":
            return Window([{"x": 1000 + v} for v in values], [{}] * ENCODER_STATES)
        operations = [
            {"x": OperationRecord(("at", "in", "after")[v % 3], (v,), ())} if i % 4 else {}
            for i, v in enumerate(values)
        ]
        return Window([{}] * ENCODER_STATES, operations)
    if codes is None:
        values = list(range(ENCODER_STATES))
    elif codes == "bool":
        values = [i % 2 == 0 for i in range(ENCODER_STATES)]
        random.Random(2).shuffle(values)
    else:
        values = [i % codes for i in range(ENCODER_STATES)]
        random.Random(codes).shuffle(values)
    return Window([{"x": value} for value in values], [{}] * ENCODER_STATES)


def encoder_column(store):
    """The sweep's column ``x`` of ``store``: a variable's or an operation's."""
    column = store.column("x")
    return column if column is not None else store.op_column("x")


def per_cell_codes(window):
    """The reference interner: column ``x``'s codes by one dictionary step
    per cell, in cell order (``ABSENT`` where an operation is idle).  A
    sweep column holds only booleans, only ints or only records, so one
    table keeps the encoder's interning rule."""
    table = {}
    if window.values[0]:
        return [table.setdefault(row["x"], len(table)) for row in window.values]
    return [
        table.setdefault(ops["x"], len(table)) if ops else ABSENT for ops in window.operations
    ]


def encoder_build(window, frame):
    """The store of ``window``: static, or absorbed ``frame`` states at a time."""
    if frame is None:
        return ColumnStore(window, mark_start=False)
    store = ColumnStore()
    for start in range(0, len(window), frame):
        store.absorb(window[start:start + frame])
    return store


def encoder_sweep(swept):
    """Nanoseconds per cell of every build of the ``swept`` columns in the
    sweep (best of ``ENCODER_REPS``), keyed by window size, then column."""
    sweep = {}
    for frame in ENCODER_FRAMES:
        row = sweep[str(frame or "static")] = {}
        for codes in swept:
            window = encoder_window(codes)
            best = float("inf")
            for _ in range(ENCODER_REPS):
                started = time.perf_counter()
                encoder_build(window, frame)
                best = min(best, time.perf_counter() - started)
            row[str(codes or "all")] = round(best * 1e9 / ENCODER_STATES, 1)
    return sweep


def test_encoder_interns_each_distinct_value_once(monkeypatch):
    """Encoder sweep: codes equal the per-cell interner's, the intern step
    runs at most once per distinct value; ns/cell recorded."""
    interned = Counter()
    intern = columns._ColumnBase._intern

    def counted(column, value):
        interned[column] += 1
        return intern(column, value)

    monkeypatch.setattr(columns._ColumnBase, "_intern", counted)
    for codes in ENCODER_CODES + ENCODER_KEYED:
        window = encoder_window(codes)
        expected = per_cell_codes(window)
        for frame in ENCODER_FRAMES:
            interned.clear()
            column = encoder_column(encoder_build(window, frame))
            assert list(column.codes) == expected, (frame, codes)
            assert len(column.values) == max(expected) + 1, (frame, codes)
            assert interned[column] <= len(column.values), (frame, codes, interned[column])
    monkeypatch.undo()

    for label, swept in ((ENCODER_LABEL, ENCODER_CODES), (ENCODER_KEYED_LABEL, ENCODER_KEYED)):
        point = {
            "states": ENCODER_STATES,
            "ns_per_cell": encoder_sweep(swept),
            "machine": machine(),
        }
        print()
        print(label, point)
        record_point(point, label)


def per_cell_code_bits(column, n):
    """The reference builder: ``column``'s bitsets extended to ``n`` with
    one interpreted step per cell — a ``bytearray`` per code over the new
    positions, then one shift-or per code (the bitset cap is not checked)."""
    bits, built = column._bits, column._bits_to
    if built >= n:
        return bits
    count = len(column.values)
    bits.extend([0] * (count - len(bits)))
    width = (n - built + 7) >> 3
    buffers = [None] * count
    for j, code in enumerate(column.codes[built:n]):
        if code >= 0:
            buffer = buffers[code]
            if buffer is None:
                buffer = buffers[code] = bytearray(width)
            buffer[j >> 3] |= 1 << (j & 7)
    for code, buffer in enumerate(buffers):
        if buffer is not None:
            bits[code] |= int.from_bytes(buffer, "little") << built
    column._bits_to = n
    return bits


def code_bits_build(column, frame, builder):
    """``column``'s bitsets built afresh by ``builder``: extended once over
    the whole column, or ``frame`` positions at a time."""
    column._bits, column._bits_to = [], 0
    stops = [len(column)] if frame is None else range(frame, len(column) + 1, frame)
    for stop in stops:
        bits = builder(column, stop)
    return bits


def test_code_bits_match_the_per_cell_builder():
    """Bitset sweep: bit-plane bitsets equal the per-cell builder's; ns/cell recorded."""
    builders = {"bit_planes": Column.code_bits, "per_cell": per_cell_code_bits}
    sweep = {name: {} for name in builders}
    for frame in CODE_BITS_FRAMES:
        for name in builders:
            sweep[name][str(frame or "static")] = {}
        for codes in CODE_BITS_CODES:
            column = encoder_build(encoder_window(codes), None).column("x")
            assert len(column.values) == codes
            expected = code_bits_build(column, frame, per_cell_code_bits)
            assert code_bits_build(column, frame, Column.code_bits) == expected, (frame, codes)
            best = dict.fromkeys(builders, float("inf"))
            for _ in range(ENCODER_REPS):
                for name, builder in builders.items():
                    started = time.perf_counter()
                    code_bits_build(column, frame, builder)
                    best[name] = min(best[name], time.perf_counter() - started)
            for name, seconds in best.items():
                sweep[name][str(frame or "static")][str(codes)] = round(
                    seconds * 1e9 / ENCODER_STATES, 1
                )

    point = {
        "states": ENCODER_STATES,
        "ns_per_cell": sweep,
        "machine": machine(),
    }
    print()
    print(point)
    record_point(point, CODE_BITS_LABEL)


def test_fused_constructions_build_no_interval(monkeypatch):
    """Fused constructions: one-shot spec checks build no ``Interval`` and
    make the recorded dispatch calls and event searches."""
    built = Counter()
    post_init = Interval.__post_init__

    def counted(interval):
        built["intervals"] += 1
        post_init(interval)

    work = []
    check_all = PlanState.check_all

    def recorded(state, env=None):
        outcomes = check_all(state, env)
        work.append((state.stats.dispatch_calls, state.stats.event_searches))
        return outcomes

    monkeypatch.setattr(Interval, "__post_init__", counted)
    monkeypatch.setattr(PlanState, "check_all", recorded)
    for name, (build, dispatch_calls, event_searches) in FUSED_CHECKS.items():
        built.clear()
        work.clear()
        spec, trace = build()
        result = Session().check_spec(spec, trace)
        assert all(verdict.holds for verdict in result.verdicts), name
        assert built["intervals"] == 0, (name, built["intervals"])
        assert work == [(dispatch_calls, event_searches)], (name, work)
        print()
        print(name, {"states": trace.length, "intervals": built["intervals"],
                     "dispatch_calls": dispatch_calls, "event_searches": event_searches})
