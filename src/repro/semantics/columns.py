"""Column-major trace storage: dictionary-encoded per-variable columns.

The paper's satisfaction relation sweeps a state sequence, and almost every
question the compiled runtime asks of that sequence is *per variable*, not
per state: "where does ``x == c`` hold", "where is operation ``O`` at its
entry point", "which non-boolean values were ever observed".  Storing the
trace row-major — one dict-backed :class:`~repro.semantics.state.State` per
position — makes each of those questions an O(n) Python-object walk.

One per-state encoder (:func:`_encode_state`) turns states column-major,
for two stores:

* a :class:`ColumnStore` holds one static trace, built lazily in one pass
  over its source states; the same pass collects the trace's observed value
  universe (deduplicated through a set), and the ``__start__`` marking of
  the Init-clause ``start`` predicate is done columnwise (one code write)
  instead of rebuilding the first state;
* an :class:`IncrementalColumnStore` holds a growing prefix, fed one state
  at a time.

Either way there is one :class:`Column` per state variable — a stdlib
``array`` of small integer codes into a per-column interned value list
(dictionary encoding), so booleans, enums and repeated non-scalar values
all store as machine integers — and one :class:`OperationColumn` per
operation name, encoding the (phase, args, results) records the same way.

Every column builds its own per-code **position bitsets** (bit ``i`` of
code ``c``'s int set iff position ``i + 1`` holds value ``c``), which is
what :mod:`repro.compile.vector` evaluates whole state formulas on.
:meth:`_ColumnBase.code_bits` extends them lazily over the positions not
built yet — a ``bytearray`` per code over the new positions, then one
shift-or per code — so a static column is built in one pass, and a growing
column pays per append for the appended window and one shift-or per code
the window holds, never a rebuild.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .state import OperationRecord, State

__all__ = [
    "ABSENT",
    "Column",
    "OperationColumn",
    "ColumnStore",
    "IncrementalColumnStore",
]


#: Code marking "this state does not bind the column's variable / operation".
ABSENT = -1

#: Columns with more distinct values than this, or whose per-code bitsets
#: would take more bytes (codes · n/8), keep no bitsets: the memory stops
#: paying for itself, and a comparison against a high-cardinality column is
#: better served by the per-position endpoint indexes.  A column only gains
#: codes and positions, so once past a cap it stays there; the kernel then
#: falls back to the per-position path.
_MAX_BITSET_CODES = 1024
_MAX_BITSET_BYTES = 8_000_000


def _intern(
    value: Any,
    values: List[Any],
    code_of: Dict[Any, int],
    unhashable: List[int],
) -> int:
    """The dictionary-encoding intern: one code per distinct value.

    Distinctness follows ``dict`` key semantics (``1``, ``1.0`` and ``True``
    share a code — consistent with ``==`` everywhere the codes are compared);
    unhashable values fall back to a linear scan over their own codes, the
    same convention :class:`repro.compile.runtime.GrowingPrefix` uses for
    its value universe.
    """
    try:
        code = code_of.get(value)
    except TypeError:
        for known in unhashable:
            if values[known] == value:
                return known
        code = len(values)
        values.append(value)
        unhashable.append(code)
        return code
    if code is None:
        code = len(values)
        values.append(value)
        code_of[value] = code
    return code


_Interns = Dict[str, Tuple[Dict[Any, int], List[int]]]


def _encode_state(
    state: State,
    index: int,
    columns: Dict[str, "Column"],
    interns: _Interns,
    op_columns: Dict[str, "OperationColumn"],
    op_interns: _Interns,
) -> None:
    """Append state ``index`` to the columns.

    Interns every value and operation record of the state; a name seen for
    the first time opens a column ``ABSENT``-padded over the earlier
    positions, and every column the state does not bind is padded.
    """
    for name, value in state.raw_values.items():
        column = columns.get(name)
        if column is None:
            column = columns[name] = Column(name, prefix_length=index)
            interns[name] = ({}, [])
        code_of, unhashable = interns[name]
        column.codes.append(_intern(value, column.values, code_of, unhashable))
    for name, record in state.raw_operations.items():
        op_column = op_columns.get(name)
        if op_column is None:
            op_column = op_columns[name] = OperationColumn(name, prefix_length=index)
            op_interns[name] = ({}, [])
        code_of, unhashable = op_interns[name]
        op_column.codes.append(_intern(record, op_column.values, code_of, unhashable))
    filled = index + 1
    for column in columns.values():
        if len(column.codes) < filled:
            column.pad()
    for op_column in op_columns.values():
        if len(op_column.codes) < filled:
            op_column.pad()


class _ColumnBase:
    """Shared dictionary-encoded storage of one column."""

    __slots__ = ("name", "codes", "values", "missing", "_bits", "_bits_to")

    def __init__(self, name: str, prefix_length: int = 0) -> None:
        self.name = name
        self.codes: "array" = array("l", [ABSENT]) * prefix_length
        self.values: List[Any] = []
        self.missing = prefix_length > 0
        self._bits: Optional[List[int]] = []
        self._bits_to = 0

    def __len__(self) -> int:
        return len(self.codes)

    def value_at(self, index: int) -> Tuple[bool, Any]:
        """``(present, value)`` at 0-based concrete index."""
        code = self.codes[index]
        if code < 0:
            return False, None
        return True, self.values[code]

    def pad(self) -> None:
        """Mark the next position as not binding this column."""
        self.codes.append(ABSENT)
        self.missing = True

    def code_bits(self, n: int) -> Optional[List[int]]:
        """Per-code position bitsets over (at least) the first ``n`` positions.

        Entry ``c`` has bit ``i`` set iff ``codes[i] == c``; ``ABSENT``
        positions are in no entry.  The bitsets extend from where the last
        call stopped: a ``bytearray`` per code over the new positions, then
        one shift-or per code, so extending costs O(new positions) plus one
        shift-or per code they hold.  ``None`` past the cardinality / byte
        cap, for good (the bitsets are dropped).
        """
        bits = self._bits
        built = self._bits_to
        if bits is None or built >= n:
            return bits
        count = len(self.values)
        if count > _MAX_BITSET_CODES or count * ((n + 7) >> 3) > _MAX_BITSET_BYTES:
            self._bits = None
            return None
        bits.extend([0] * (count - len(bits)))
        width = (n - built + 7) >> 3
        buffers: List[Optional[bytearray]] = [None] * count
        for j, code in enumerate(self.codes[built:n]):
            if code >= 0:
                buffer = buffers[code]
                if buffer is None:
                    buffer = buffers[code] = bytearray(width)
                buffer[j >> 3] |= 1 << (j & 7)
        for code, buffer in enumerate(buffers):
            if buffer is not None:
                bits[code] |= int.from_bytes(buffer, "little") << built
        self._bits_to = n
        return bits


class Column(_ColumnBase):
    """Dictionary-encoded values of one state variable across a trace."""

    __slots__ = ()


class OperationColumn(_ColumnBase):
    """Dictionary-encoded :class:`OperationRecord` s of one operation name.

    ``ABSENT`` means the operation is idle in that state (a ``State`` with
    an ``operations`` mapping treats a missing record as idle).
    """

    __slots__ = ()


class IncrementalColumnStore:
    """The column-major form of a *growing* state prefix, fed one state at
    a time.

    The incremental monitors' :class:`~repro.compile.runtime.GrowingPrefix`
    absorbs each appended state through the same encoder as
    :class:`ColumnStore`, into the same :class:`Column` /
    :class:`OperationColumn` objects (``ABSENT`` padding included).  The
    columns' per-code bitsets extend lazily (:meth:`_ColumnBase.code_bits`),
    so the bitset kernel (:class:`~repro.compile.vector.TailKernel`) reads
    them after any number of absorbs and extends its truth profiles over
    just the appended window.  No ``__start__`` marking happens here —
    ``GrowingPrefix.append`` injects it into the state rows before they
    arrive.
    """

    __slots__ = ("length", "_columns", "_op_columns", "_interns", "_op_interns")

    def __init__(self) -> None:
        self.length = 0
        self._columns: Dict[str, Column] = {}
        self._op_columns: Dict[str, OperationColumn] = {}
        self._interns: _Interns = {}
        self._op_interns: _Interns = {}

    def absorb(self, state: State) -> None:
        """Append one state's values/operations to every column (padded)."""
        _encode_state(
            state, self.length,
            self._columns, self._interns, self._op_columns, self._op_interns,
        )
        self.length += 1

    def column(self, name: str) -> Optional[Column]:
        return self._columns.get(name)

    def op_column(self, name: str) -> Optional[OperationColumn]:
        return self._op_columns.get(name)


class ColumnStore:
    """The column-major form of one trace, built lazily in a single pass.

    Parameters
    ----------
    source_states:
        The trace's concrete states, **without** ``__start__`` injection —
        marking happens columnwise here.
    mark_start:
        Mirror of ``Trace(mark_start=...)``: when true, position 1 gets
        ``__start__ = True`` (overriding any source value, as the eager
        marking did) and every other position missing it gets ``False``.
    """

    __slots__ = ("length", "_source", "_mark_start", "_columns", "_op_columns", "_universe")

    def __init__(self, source_states: Sequence[State], mark_start: bool) -> None:
        self.length = len(source_states)
        self._source: Optional[Sequence[State]] = source_states
        self._mark_start = mark_start
        self._columns: Optional[Dict[str, Column]] = None
        self._op_columns: Optional[Dict[str, OperationColumn]] = None
        self._universe: Optional[Tuple[Any, ...]] = None

    # -- the single build pass ----------------------------------------------

    def _build(self) -> None:
        columns: Dict[str, Column] = {}
        interns: _Interns = {}
        op_columns: Dict[str, OperationColumn] = {}
        op_interns: _Interns = {}
        universe: List[Any] = []
        seen: set = set()
        unhashable_seen: List[Any] = []
        for index, state in enumerate(self._source or ()):
            _encode_state(state, index, columns, interns, op_columns, op_interns)
            for value in state.observed_values():
                try:
                    if value in seen:
                        continue
                    seen.add(value)
                except TypeError:
                    if value in unhashable_seen:  # unhashable: linear fallback
                        continue
                    unhashable_seen.append(value)
                universe.append(value)
        if self._mark_start and self.length:
            start = columns.get("__start__")
            if start is None:
                start = columns["__start__"] = Column("__start__", prefix_length=self.length)
                interns["__start__"] = ({}, [])
            code_of, unhashable = interns["__start__"]
            # Position 1 is always True (the eager marking overrode the
            # source value there too); other positions default to False.
            start.codes[0] = _intern(True, start.values, code_of, unhashable)
            false_code: Optional[int] = None
            for i in range(1, self.length):
                if start.codes[i] == ABSENT:
                    if false_code is None:
                        false_code = _intern(False, start.values, code_of, unhashable)
                    start.codes[i] = false_code
            start.missing = any(code == ABSENT for code in start.codes)
        self._columns = columns
        self._op_columns = op_columns
        self._universe = tuple(universe)
        self._source = None  # the states are no longer needed here

    def _ensure(self) -> None:
        if self._columns is None:
            self._build()

    # -- accessors -----------------------------------------------------------

    @property
    def columns(self) -> Dict[str, Column]:
        self._ensure()
        return self._columns  # type: ignore[return-value]

    @property
    def op_columns(self) -> Dict[str, OperationColumn]:
        self._ensure()
        return self._op_columns  # type: ignore[return-value]

    def column(self, name: str) -> Optional[Column]:
        self._ensure()
        return self._columns.get(name)  # type: ignore[union-attr]

    def op_column(self, name: str) -> Optional[OperationColumn]:
        self._ensure()
        return self._op_columns.get(name)  # type: ignore[union-attr]

    def value_universe(self) -> Tuple[Any, ...]:
        """Distinct observed non-boolean values, in first-observation order."""
        self._ensure()
        return self._universe  # type: ignore[return-value]

    # -- row reconstruction (the lazy State view) ----------------------------

    def state_values(self, index: int) -> Dict[str, Any]:
        """The variable assignment of concrete state ``index`` (0-based)."""
        self._ensure()
        out: Dict[str, Any] = {}
        for name, column in self._columns.items():  # type: ignore[union-attr]
            present, value = column.value_at(index)
            if present:
                out[name] = value
        return out

    def state_operations(self, index: int) -> Dict[str, OperationRecord]:
        self._ensure()
        out: Dict[str, OperationRecord] = {}
        for name, column in self._op_columns.items():  # type: ignore[union-attr]
            present, record = column.value_at(index)
            if present:
                out[name] = record
        return out

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        # Ship the built columns (compact arrays + interned values), never
        # the source State objects: this is the zero-copy worker handoff.
        self._ensure()
        return {
            "length": self.length,
            "columns": [
                (c.name, c.codes.tobytes(), c.values, c.missing)
                for c in self._columns.values()  # type: ignore[union-attr]
            ],
            "op_columns": [
                (c.name, c.codes.tobytes(), c.values, c.missing)
                for c in self._op_columns.values()  # type: ignore[union-attr]
            ],
            "universe": self._universe,
        }

    def __setstate__(self, payload: Dict[str, Any]) -> None:
        self.length = payload["length"]
        self._source = None
        self._mark_start = False  # marking is already in the columns
        self._universe = payload["universe"]
        columns: Dict[str, Column] = {}
        for name, raw, values, missing in payload["columns"]:
            column = Column(name)
            column.codes = array("l")
            column.codes.frombytes(raw)
            column.values = values
            column.missing = missing
            columns[name] = column
        self._columns = columns
        op_columns: Dict[str, OperationColumn] = {}
        for name, raw, values, missing in payload["op_columns"]:
            column = OperationColumn(name)
            column.codes = array("l")
            column.codes.frombytes(raw)
            column.values = values
            column.missing = missing
            op_columns[name] = column
        self._op_columns = op_columns
