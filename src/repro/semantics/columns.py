"""Column-major trace storage: dictionary-encoded per-variable columns.

The paper's satisfaction relation sweeps a state sequence, and almost every
question the compiled runtime asks of that sequence is *per variable*, not
per state: "where does ``x == c`` hold", "where is operation ``O`` at its
entry point", "which non-boolean values were ever observed".  Storing the
trace row-major — one dict-backed :class:`~repro.semantics.state.State` per
position — makes each of those questions an O(n) Python-object walk.

A run of states travels as a :class:`Window`: two parallel lists, each
state's value dict and its operation dict.  The serve layer fills one
straight from validated wire rows, so a served state is never built as a
``State``; a list of ``State`` s becomes one by reading their maps in two
C-level passes.  The window is the only input of the one window encoder
(:meth:`ColumnStore._encode`), which turns it column-major, one column at a
time.  A window's variable names are found by its rows' shape: when every
row holds as many names as the first and each of those is found in every
row, they are all of them; otherwise, and for operation names, the rows'
names are collected in first-occurrence order.  Each column's cells are
read in one ``itemgetter`` pass, or one ``dict.get`` pass where a row
lacks the name.  Every hash and comparison below runs in C: an
operation's :class:`OperationRecord` is the tuple ``(phase, args,
results)`` and hashes and compares as one, so no Python-level
``__hash__`` or ``__eq__`` runs per cell.  A window of values its column
knows is coded by one pass of dictionary lookups.  A window that brings a
new value — a static trace, a served stream's first frame — is coded in
C-level passes too: when its values are all booleans, or all ints in
0–255, ``bytes()`` of them is the code array up to a byte translation
(dictionary encoding into byte-sized codes, as in Abadi, Madden &
Ferreira's compressed column stores), so each distinct byte is looked up
or interned once, in first-occurrence order, one ``bytes.translate``
codes every cell and one strided slice widens the codes (a column that
has met an int outside 0–255 is not tried again); any other window has
its distinct values collected in one pass, the ones the column lacks
interned in first-occurrence order, and then takes the lookup pass.
Values that cannot be hashed (a record with list args among them), and
windows mixing booleans with numbers, are interned cell by cell.  The
same call pads the columns the window does not bind, marks the
``__start__`` column of the Init-clause ``start`` predicate (True at
position 1, False where a state lacks it; built from that definition
when no state binds it) and extends the observed value universe; it only
reads the window's maps.

One store calls it, :class:`ColumnStore`: once for a trace's states, as
one window, and once per window appended to a growing prefix (the
incremental monitors keep no ``State`` rows, only these columns).  A store
pickles one way for both, as its code arrays and interned values, and
keeps growing after a round trip.  It holds one :class:`Column` per state
variable — a stdlib ``array`` of 4-byte integer codes into a per-column
interned value list (dictionary encoding), so booleans, enums and repeated
non-scalar values all store as machine integers — and one
:class:`OperationColumn` per operation name, encoding the (phase, args,
results) records the same way.

Every column builds its own per-code **position bitsets** (bit ``i`` of
code ``c``'s int set iff position ``i + 1`` holds value ``c``), which is
what :mod:`repro.compile.vector` evaluates whole state formulas on.
:meth:`_ColumnBase.code_bits` extends them lazily over the positions not
built yet, by a bit-sliced split of their codes (:func:`_or_code_positions`;
O'Neil & Quass's bit-sliced index): one C-level pass over the new
positions per code bit reads a byte plane of the codes as a position int,
the positions holding a code are split by those ints from the top code bit
down, and each code's positions are shift-ored in once.  A static column
is built in one split; a growing column pays per append for O(log codes)
passes over the appended window and one shift-or per code the window
holds, never a rebuild.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence as SequenceABC
from itertools import chain, filterfalse, islice, repeat
from operator import attrgetter, itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Type

from ..errors import TraceError
from .state import OperationRecord, State, observed_values

__all__ = [
    "ABSENT",
    "Column",
    "OperationColumn",
    "Window",
    "ColumnStore",
]


#: Code marking "this state does not bind the column's variable / operation".
ABSENT = -1

#: Columns with more distinct values than this, or whose per-code bitsets
#: would take more bytes (codes · n/8), keep no bitsets: the memory stops
#: paying for itself.  A column only gains codes and positions, so once
#: past a cap it stays there; the kernel then profiles the atoms over it
#: one row per appended position.
_MAX_BITSET_CODES = 1024
_MAX_BITSET_BYTES = 8_000_000


#: ``bytes.translate`` tables writing one binary digit per position:
#: ``_BIT_DIGITS[b]`` writes ``1`` for a byte whose bit ``b`` is set, and
#: ``_PRESENT_DIGITS`` for a byte whose sign bit is clear — the top byte of
#: every code but ``ABSENT``.
_BIT_DIGITS = tuple(bytes(b"01"[byte >> bit & 1] for byte in range(256)) for bit in range(8))
_PRESENT_DIGITS = b"1" * 128 + b"0" * 128


def _or_code_positions(
    bits: List[int], built: int, raw: bytes, itemsize: int, byteorder: str, depth: int
) -> None:
    """OR into ``bits[c]``, shifted left by ``built``, the positions of one
    window of column codes that hold code ``c``.

    ``raw`` holds the window as ``array.tobytes()`` gives it: ``itemsize``
    bytes per position in ``byteorder``, each ``ABSENT`` or a code below
    ``1 << depth`` (at most 16 bits).  Bit ``j`` of the positions of ``c``
    is set iff position ``j`` holds ``c``; ``ABSENT`` positions are in none.

    This is a bit-sliced split.  A byte plane — one byte of every position,
    last position first, so that ``int(..., 2)`` puts position 0 in bit 0 —
    is a strided slice of ``raw``, and one ``bytes.translate`` to binary
    digits plus one ``int(..., 2)`` turn it into a position int: from the
    top byte's sign bit, the positions holding a code; from a low byte, the
    positions whose code has one bit set.  The present positions are split
    from the top code bit down, one AND per code prefix met so far; a bit
    no present position has splits nothing and is skipped.  The last bit's
    split goes straight into ``bits``.
    """
    # Where the last position's top, low and second bytes sit; stepping
    # back one item at a time reads that byte of every position.
    step = -itemsize
    last = len(raw) - itemsize
    if byteorder == "little":
        top_at, low_at, second_at = last + itemsize - 1, last, last + 1
    else:
        top_at, low_at, second_at = last, last + itemsize - 1, last + itemsize - 2
    present = int(raw[top_at::step].translate(_PRESENT_DIGITS), 2)
    if not present:
        return
    digits = _BIT_DIGITS
    low = raw[low_at::step]
    second = raw[second_at::step] if depth > 8 else b""
    parts = [(0, present)]
    for bit in range(depth - 1, 0, -1):
        ones = int((second if bit > 7 else low).translate(digits[bit & 7]), 2) & present
        if not ones:
            continue
        flag = 1 << bit
        split: List[Tuple[int, int]] = []
        append = split.append
        for code, positions in parts:
            high = positions & ones
            if high:
                if high == positions:
                    append((code | flag, positions))
                    continue
                append((code | flag, high))
                positions ^= high
            append((code, positions))
        parts = split
    ones = int(low.translate(digits[0]), 2) & present if depth else 0
    for code, positions in parts:
        high = positions & ones
        if high:
            bits[code | 1] |= high << built
            positions ^= high
            if not positions:
                continue
        bits[code] |= positions << built


def _widen(coded: bytes, itemsize: int, byteorder: str) -> bytearray:
    """``coded`` as the raw bytes of ``itemsize``-byte codes in
    ``byteorder``: each byte becomes the low byte of its code, the other
    bytes are zero.  One strided slice assignment, no step per code."""
    raw = bytearray(len(coded) * itemsize)
    raw[0 if byteorder == "little" else itemsize - 1::itemsize] = coded
    return raw


class _Missing:
    __slots__ = ()


#: The value types of a window that byte translation can code: all
#: booleans, or all ints (in 0–255, which ``bytes()`` checks).
_BYTE_KINDS = ({bool}, {int})

#: What a window reads for a variable (operation) a state does not bind;
#: every intern table maps it to ``ABSENT``.
_MISSING = _Missing()

#: A ``State``'s two maps, read from the slots behind its ``raw_values``
#: and ``raw_operations`` properties without a Python-level call.
_state_values = attrgetter("_values")
_state_operations = attrgetter("_operations")


class Window(SequenceABC):
    """A batch of states held as two parallel lists of dicts.

    ``values[i]`` is state ``i``'s variable dict and ``operations[i]`` its
    operation-record dict (name → :class:`OperationRecord`); ``len()`` is
    the state count.  The encoder only reads the dicts, so a window may hold
    dicts it does not own — the serve layer's decoded wire dicts, a
    ``State``'s internal maps.  Read as a ``Sequence[State]``, it builds
    each ``State`` on access.
    """

    __slots__ = ("values", "operations")

    def __init__(
        self,
        values: List[Dict[str, Any]],
        operations: List[Dict[str, OperationRecord]],
    ) -> None:
        self.values = values
        self.operations = operations

    @classmethod
    def of(cls, states: Sequence[Any], first: int = 0, coerce: bool = False) -> "Window":
        """``states`` as a window: a window as it is, anything else in one pass.

        An element that is not a ``State`` raises :class:`TraceError`
        (naming it as trace element ``first`` + its index) before anything
        is encoded — or, with ``coerce``, becomes ``State(element)``.  A
        list or tuple of exact ``State`` s is read in C-level passes.
        """
        if isinstance(states, Window):
            return states
        if type(states) in (list, tuple) and set(map(type, states)) == {State}:
            return cls(list(map(_state_values, states)), list(map(_state_operations, states)))
        values: List[Mapping[str, Any]] = []
        operations: List[Mapping[str, OperationRecord]] = []
        for state in states:
            if not isinstance(state, State):
                if not coerce:
                    raise TraceError(
                        f"trace element {first + len(values)} is not a State: "
                        f"{type(state).__name__}"
                    )
                state = State(state)
            values.append(state.raw_values)
            operations.append(state.raw_operations)
        return cls(values, operations)

    @classmethod
    def join(cls, windows: Iterable["Window"]) -> "Window":
        """The concatenation of ``windows``, in order."""
        values: List[Mapping[str, Any]] = []
        operations: List[Mapping[str, OperationRecord]] = []
        for window in windows:
            values += window.values
            operations += window.operations
        return cls(values, operations)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Window(self.values[index], self.operations[index])
        return State(self.values[index], self.operations[index])

    def __iter__(self) -> Iterator[State]:
        return map(State, self.values, self.operations)


class _Universe:
    """The distinct observed non-boolean values, in first-observation order.

    Deduplication runs through a set, with a scan over the unhashable values
    seen so far.  A comparison that raises during that scan is kept and
    raised by :meth:`values` — never by the append that met the value.
    """

    __slots__ = ("_values", "_seen", "_unhashable", "_error")

    def __init__(
        self, values: Sequence[Any] = (), error: Optional[Exception] = None
    ) -> None:
        self._values: List[Any] = list(values)
        self._seen: Set[Any] = set()
        self._unhashable: List[Any] = []
        self._error = error

    def reindex(self) -> None:
        """Rebuild the sets behind deduplication from the values, which are
        distinct: a pickled universe ships its values only."""
        try:
            self._seen.update(self._values)
        except TypeError:  # some cannot be hashed: keep those apart
            for value in self._values:
                try:
                    self._seen.add(value)
                except TypeError:
                    self._unhashable.append(value)

    def observe(self, window: Window, indexes: Iterable[int]) -> None:
        """Add the values of the window's states at ``indexes``, in order."""
        if self._error is not None:
            return
        values, seen, unhashable = self._values, self._seen, self._unhashable
        try:
            for j in indexes:
                for value in observed_values(window.values[j], window.operations[j]):
                    try:
                        if value in seen:
                            continue
                        seen.add(value)
                    except TypeError:
                        if value in unhashable:
                            continue
                        unhashable.append(value)
                    values.append(value)
        except Exception as exc:  # a value's __eq__ / __hash__ raised
            self._error = exc

    def values(self) -> Tuple[Any, ...]:
        if self._error is not None:
            raise self._error
        return tuple(self._values)


class _ColumnBase:
    """Shared dictionary-encoded storage of one column.

    Interning follows ``dict`` key semantics, except that booleans are
    interned apart: ``1`` and ``1.0`` share a code, ``True`` gets its own.
    A row rebuilt from the column must give back a value the default
    quantification domain treats the same way — it leaves out booleans —
    which ``True`` standing in for ``1`` would not.  Values that cannot be
    hashed, or whose hash or comparison raises, fall back to a scan over
    their own codes, where a comparison that raises counts as "different".
    """

    __slots__ = (
        "name", "codes", "values", "missing", "_bits", "_bits_to",
        "_hashed", "_bools", "_unhashable", "_try_bytes",
    )

    def __init__(self, name: str, prefix_length: int = 0) -> None:
        self.name = name
        self.codes: "array" = array("i", [ABSENT]) * prefix_length
        self.values: List[Any] = []
        self.missing = prefix_length > 0
        self._bits: Optional[List[int]] = []
        self._bits_to = 0
        self._hashed: Dict[Any, int] = {_MISSING: ABSENT}
        self._bools: Dict[Any, int] = {_MISSING: ABSENT}
        self._unhashable: List[int] = []
        # False once byte translation cannot code this column's new values:
        # it has met an int outside 0–255, or holds 256 codes.
        self._try_bytes = True

    def __len__(self) -> int:
        return len(self.codes)

    def value_at(self, index: int) -> Tuple[bool, Any]:
        """``(present, value)`` at 0-based concrete index."""
        code = self.codes[index]
        if code < 0:
            return False, None
        return True, self.values[code]

    def pad(self, count: int) -> None:
        """Mark the next ``count`` positions as not binding this column."""
        self.codes.extend(array("i", [ABSENT]) * count)
        self.missing = True

    def encode(self, values: List[Any], new_at: Set[int]) -> None:
        """Append the codes of a window's ``values`` (``_MISSING`` = absent).

        The window is read through the boolean intern table when its values
        are all booleans and through the other one when none is.  Every hash
        and comparison runs in C: an operation's records hash and compare as
        the tuples they are (:class:`OperationRecord`).  A column that knows
        every value of the window codes it in one lookup pass; a new column,
        which knows none, does not try it.  Otherwise a window with no
        absent cell whose values are all booleans, or all ints in 0–255, is
        coded by byte translation while the column's codes fit in a byte and
        it has met no int outside 0–255 (:meth:`_encode_bytes`) — a served
        stream's first frame, whose columns are all new, among them; any
        other window has each value new to the column interned once
        (:meth:`_intern_distinct`) and the lookup pass run after that.
        Windows mixing booleans with other values, and values that cannot be
        hashed or whose hash or ``==`` raises (a record with list args among
        them), are interned cell by cell (:meth:`_intern`).  Window indexes
        that interned a new value are added to ``new_at``.
        """
        kinds = set(map(type, values))
        complete = _Missing not in kinds
        if not complete:
            self.missing = True
            kinds.discard(_Missing)
        if bool not in kinds or len(kinds) == 1:
            table = self._bools if bool in kinds else self._hashed
            codes = None
            if self.values:  # a new column knows no value yet
                try:
                    codes = list(map(table.__getitem__, values))
                except Exception:  # a value new to the column, or one that raised
                    pass
            if codes is None:
                if (
                    complete and self._try_bytes and kinds in _BYTE_KINDS
                    and self._encode_bytes(table, values, new_at)
                ):
                    return
                codes = self._intern_distinct(table, values, new_at)
            if codes is not None:
                self.codes.fromlist(codes)
                return
        codes = []
        for j, value in enumerate(values):
            code, new = self._intern(value)
            codes.append(code)
            if new:
                new_at.add(j)
        self.codes.fromlist(codes)

    def _encode_bytes(self, table: Dict[Any, int], values: List[Any], new_at: Set[int]) -> bool:
        """Append the codes of a window of booleans, or of ints, by byte
        translation; ``False``, with nothing changed, unless every value and
        every code fits in a byte and every lookup returns.

        ``bytes(values)`` is the window up to a byte translation.  Its
        distinct bytes are taken in first-occurrence order, and each one's
        first cell is looked up in ``table`` as the lookup pass would look
        it up (``1`` finds an interned ``1.0``); a value the table lacks is
        interned from that cell, the object a cell-by-cell scan would have
        interned.  A lookup that raises (a known value hashing like a small
        int, whose ``==`` raises) leaves the window to the other paths.  One
        ``bytes.translate`` then codes every cell, and one strided slice
        assignment (:func:`_widen`) widens the codes into the code array.
        A column that holds 256 codes, or whose window held an int outside
        0–255, is not tried again (``_try_bytes``).
        """
        if len(self.values) >= 256:  # no new code fits in a byte, now or later
            self._try_bytes = False
            return False
        try:
            raw = bytes(values)
        except ValueError:  # an int outside 0–255: the column holds wide ints
            self._try_bytes = False
            return False
        # Each distinct byte's first cell, in order: a boolean is byte 0 or
        # 1, so two byte searches find them (-1 for one the window lacks);
        # ints need a set of the bytes.
        firsts = sorted(map(raw.find, (0, 1) if table is self._bools else set(raw)))
        if firsts[0] < 0:
            del firsts[0]
        try:
            codes = list(map(table.get, map(values.__getitem__, firsts)))
        except Exception:  # a known value whose ``==`` raises
            return False
        known = self.values
        if len(known) + codes.count(None) > 256:
            return False
        translation = bytearray(256)
        for at, code in zip(firsts, codes):
            if code is None:
                value = values[at]
                code = table[value] = len(known)
                known.append(value)
                new_at.add(at)
            translation[raw[at]] = code
        self.codes.frombytes(
            _widen(raw.translate(translation), self.codes.itemsize, sys.byteorder)
        )
        return True

    def _intern_distinct(
        self, table: Dict[Any, int], values: List[Any], new_at: Set[int]
    ) -> Optional[List[int]]:
        """The window's codes, interning each value ``table`` lacks once.

        The window's distinct values are collected in first-occurrence order
        (``dict.fromkeys`` keeps the first occurrence's object), so new
        codes follow scan order and each new value's representative is the
        object a cell-by-cell scan would have interned.  ``None``, with
        nothing interned, if hashing or comparing a value raised.
        """
        try:
            new = list(filterfalse(table.__contains__, dict.fromkeys(values)))
        except Exception:  # unhashable, or a __hash__ / __eq__ that raises
            return None
        first = len(self.values)
        self.values += new
        table.update(zip(new, range(first, len(self.values))))
        if len(new) == len(values):  # every cell holds a value of its own
            new_at.update(range(len(values)))
            return list(range(first, len(self.values)))
        codes = list(map(table.__getitem__, values))
        # Each new code's first cell, found left to right, is where a
        # cell-by-cell scan would have interned it.
        at = 0
        for code in range(first, len(self.values)):
            at = codes.index(code, at)
            new_at.add(at)
        return codes

    def _intern(self, value: Any) -> Tuple[int, bool]:
        """``(code, new)`` of ``value``, appending it to ``values`` if new."""
        values = self.values
        table: Optional[Dict[Any, int]] = self._bools if type(value) is bool else self._hashed
        try:
            code = table.get(value)  # type: ignore[union-attr]
        except Exception:  # unhashable, or a __hash__ / __eq__ that raises
            table = None
            for known in self._unhashable:
                try:
                    if values[known] is value or values[known] == value:
                        return known, False
                except Exception:
                    continue
            code = None
        if code is not None:
            return code, False
        code = len(values)
        values.append(value)
        if table is None:
            self._unhashable.append(code)
        else:
            table[value] = code
        return code, True

    def reintern(self) -> None:
        """Rebuild the intern tables from ``values``, which a pickle ships
        without them.  The values are distinct, so encoding them as one
        window interns them under codes 0, 1, … in order, through the
        paths any window takes."""
        fresh = type(self)(self.name)
        fresh.encode(self.values, set())
        self._hashed, self._bools = fresh._hashed, fresh._bools
        self._unhashable, self._try_bytes = fresh._unhashable, fresh._try_bytes

    def code_bits(self, n: int) -> Optional[List[int]]:
        """Per-code position bitsets over (at least) the first ``n`` positions.

        Entry ``c`` has bit ``i`` set iff ``codes[i] == c``; ``ABSENT``
        positions are in no entry.  The bitsets extend from where the last
        call stopped: the new positions are split by their codes' bit
        planes (:func:`_or_code_positions`, with as many code bits as the
        column's code count needs), and each code's positions are
        shift-ored in at once.  Extending costs one C-level pass over the
        new positions per code bit, plus O(codes) big-int operations, and
        no interpreted step per position.  ``None`` past the cardinality /
        byte cap, for good (the bitsets are dropped).
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
        window = self.codes[built:n]
        if window:
            _or_code_positions(
                bits, built, window.tobytes(), window.itemsize, sys.byteorder,
                (count - 1).bit_length(),
            )
        self._bits_to = n
        return bits


class Column(_ColumnBase):
    """Dictionary-encoded values of one state variable across a trace."""

    __slots__ = ()

    def encode_start(self, count: int, first: bool, new_at: Set[int]) -> None:
        """Append ``count`` cells of the ``__start__`` column written from
        its definition: ``True`` in the window's first cell when it holds
        the trace's first position (``first``), ``False`` in every other.

        Each value's code is looked up, or interned, once, and its run of
        cells appended in one step: the codes, values and ``new_at`` that
        :meth:`encode` gives the same cells as a list.
        """
        runs = ((True, 1), (False, count - 1)) if first else ((False, count),)
        table, values = self._bools, self.values
        at = 0
        for value, cells in runs:
            if not cells:
                continue
            code = table.get(value)
            if code is None:
                code = table[value] = len(values)
                values.append(value)
                new_at.add(at)
            self.codes.extend(array("i", [code]) * cells)
            at += cells


class OperationColumn(_ColumnBase):
    """Dictionary-encoded :class:`OperationRecord` s of one operation name.

    ``ABSENT`` means the operation is idle in that state (a ``State`` with
    an ``operations`` mapping treats a missing record as idle).
    """

    __slots__ = ()


def _column(columns: Dict[str, Any], kind: Type[_ColumnBase], name: str, offset: int) -> Any:
    """The column of ``name``, opened ``ABSENT``-padded over the ``offset``
    earlier positions if the name is new."""
    column = columns.get(name)
    if column is None:
        column = columns[name] = kind(name, prefix_length=offset)
    return column


def _encode_columns(
    columns: Dict[str, Any],
    kind: Type[_ColumnBase],
    rows: List[Dict[str, Any]],
    offset: int,
    new_at: Set[int],
    mark_start: bool = False,
    by_shape: bool = False,
) -> None:
    """Append one window of ``rows`` (name → value dicts) to ``columns``.

    The window's names are collected from every row, in first-occurrence
    order.  With ``by_shape`` (variable rows, which mostly bind the same
    names) they are first found by the rows' shape: when every row holds as
    many names as the first, and each of the first row's names is found in
    every row as its cells are read, the first row's names are all of them,
    in that order, and no row is scanned.  A name seen for the first time
    opens a column ``ABSENT``-padded over the ``offset`` earlier positions;
    columns the window never binds are padded.  Each column's cells are
    read in one ``itemgetter`` pass, or, where a row does not bind its
    name, in one ``dict.get`` pass reading ``_MISSING`` there.  With
    ``mark_start`` the ``__start__`` column is True at position 1, False
    where a row lacks it and the row's value elsewhere; when no row binds
    it (served rows never do), its codes are written from that definition
    alone (:meth:`Column.encode_start`), with no list of cells.
    """
    first = rows[0]
    shaped = by_shape and set(map(len, rows)) == {len(first)}
    names = list(first if shaped else dict.fromkeys(chain.from_iterable(rows)))
    start = "__start__" if mark_start else None
    for name in names:
        try:
            values = list(map(itemgetter(name), rows))
        except KeyError:  # a row that does not bind ``name``
            if shaped:  # ... so it binds a name the first row lacks
                shaped = False
                # The names the first row lacks follow its own, in
                # first-occurrence order; this loop goes on over them.
                names += islice(dict.fromkeys(chain.from_iterable(rows)), len(first), None)
            default = False if name == start else _MISSING
            values = list(map(dict.get, rows, repeat(name), repeat(default)))
        if name == start and not offset:
            values[0] = True
        _column(columns, kind, name, offset).encode(values, new_at)
    if start is not None and start not in names:  # no row binds it
        names.append(start)
        _column(columns, kind, start, offset).encode_start(len(rows), not offset, new_at)
    if len(names) < len(columns):
        bound = set(names)
        for name, column in columns.items():
            if name not in bound:
                column.pad(len(rows))


class ColumnStore:
    """The column-major form of a state sequence, appended one window at a
    time.

    A trace's store is built from its states as one window (:meth:`_build`,
    the static build); a growing prefix's starts empty and absorbs each
    appended window once (:meth:`absorb`), then drops it.  Either way the
    columns' per-code bitsets extend lazily (:meth:`_ColumnBase.code_bits`),
    so the bitset kernel (:class:`~repro.compile.vector.TailKernel`) reads
    them after any number of absorbs and extends its truth profiles over
    just the appended window.

    Parameters
    ----------
    source_states:
        The states to build from, **without** ``__start__`` injection —
        marking happens columnwise here.  Empty by default.
    mark_start:
        Mirror of ``Trace(mark_start=...)``: when true, position 1 gets
        ``__start__ = True`` (overriding any source value, as the eager
        marking did) and every later position missing it gets ``False``.
    """

    __slots__ = (
        "length", "_mark_start", "_columns", "_op_columns", "_universe", "_unpickled",
    )

    def __init__(self, source_states: Sequence[State] = (), mark_start: bool = True) -> None:
        self.length = 0
        self._mark_start = mark_start
        self._columns: Dict[str, Column] = {}
        self._op_columns: Dict[str, OperationColumn] = {}
        self._universe = _Universe()
        # True from unpickling until the first window: the intern tables
        # and the universe's sets, which a pickle leaves out, are rebuilt
        # then, so a store that never grows again never pays for them.
        self._unpickled = False
        if source_states:
            self._build(source_states)

    def _build(self, source_states: Sequence[State]) -> None:
        self._encode(Window.of(source_states))

    def absorb(self, states: Sequence[State]) -> None:
        """Append one window of states to every column (padded).

        A :class:`Window` is encoded as it is; a sequence of ``State`` s is
        converted in one pass first (:meth:`Window.of`), so an element that
        is not a ``State`` raises :class:`TraceError` before any of the
        window is encoded.
        """
        self._encode(Window.of(states, self.length))

    def _encode(self, window: Window) -> None:
        """The window encoder: append ``window`` column by column.

        The value universe is extended from the states that interned a new
        value in some column — a value no column has seen before — in
        position order, so it lists values exactly as a scan of every state
        would: states in order, each state's values in its own key order,
        then operation args and results.
        """
        if not window:
            return
        if self._unpickled:
            for column in chain(self._columns.values(), self._op_columns.values()):
                column.reintern()
            self._universe.reindex()
            self._unpickled = False
        offset = self.length
        new_at: Set[int] = set()
        _encode_columns(
            self._columns, Column, window.values, offset, new_at,
            mark_start=self._mark_start, by_shape=True,
        )
        _encode_columns(self._op_columns, OperationColumn, window.operations, offset, new_at)
        self.length = offset + len(window)
        self._universe.observe(window, sorted(new_at))

    # -- accessors -----------------------------------------------------------

    def column(self, name: str) -> Optional[Column]:
        return self._columns.get(name)

    def op_column(self, name: str) -> Optional[OperationColumn]:
        return self._op_columns.get(name)

    def value_universe(self) -> Tuple[Any, ...]:
        """Distinct observed non-boolean values, in first-observation order.

        Raises the error a value's comparison raised while the universe was
        extended, if one did.
        """
        return self._universe.values()

    # -- row reconstruction (the lazy State view) ----------------------------

    def state_values(self, index: int) -> Dict[str, Any]:
        """The variable assignment of concrete state ``index`` (0-based)."""
        out: Dict[str, Any] = {}
        for name, column in self._columns.items():
            present, value = column.value_at(index)
            if present:
                out[name] = value
        return out

    def state_operations(self, index: int) -> Dict[str, OperationRecord]:
        out: Dict[str, OperationRecord] = {}
        for name, column in self._op_columns.items():
            present, record = column.value_at(index)
            if present:
                out[name] = record
        return out

    # -- pickling -------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        # Ship the built columns (compact arrays + interned values), never
        # the source State objects: this is the zero-copy worker handoff.
        payload = {
            "length": self.length,
            "columns": [
                (c.name, c.codes.tobytes(), c.values, c.missing)
                for c in self._columns.values()
            ],
            "op_columns": [
                (c.name, c.codes.tobytes(), c.values, c.missing)
                for c in self._op_columns.values()
            ],
        }
        try:
            payload["universe"] = self._universe.values()
        except Exception as exc:
            payload["universe"], payload["universe_error"] = (), exc
        # The columns show whether a store marks ``__start__``: it has that
        # column iff it does, except before its first window or where
        # unmarked rows bind ``__start__``.  Only those carry the flag,
        # which leaves every other store's pickle as it was.
        if self._mark_start != ("__start__" in self._columns):
            payload["mark_start"] = self._mark_start
        return payload

    def __setstate__(self, payload: Dict[str, Any]) -> None:
        self.length = payload["length"]
        self._columns = _unpickle_columns(Column, payload["columns"])
        self._op_columns = _unpickle_columns(OperationColumn, payload["op_columns"])
        self._mark_start = payload.get("mark_start", "__start__" in self._columns)
        self._universe = _Universe(payload["universe"], payload.get("universe_error"))
        self._unpickled = True


#: The name ``perfbench/tracing.py`` wraps ``absorb`` under (span
#: ``columns.absorb``); there is one store.
IncrementalColumnStore = ColumnStore


def _unpickle_columns(kind: Type[_ColumnBase], shipped: List[Tuple]) -> Dict[str, Any]:
    columns: Dict[str, Any] = {}
    for name, raw, values, missing in shipped:
        column = kind(name)
        column.codes.frombytes(raw)
        column.values = values
        column.missing = missing
        columns[name] = column
    return columns
