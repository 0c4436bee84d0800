"""States of a computation.

The model of Chapter 3 interprets formulas over sequences of *states*.  A
state assigns values to state variables and, for the parameterized abstract
operations of Chapter 2.2, records each operation's lifecycle phase
(``at`` / ``in`` / ``after`` / ``idle``) together with its argument and
result values.

States are immutable; simulators build successive states with
:meth:`State.with_values` / :meth:`State.with_operation` so that a trace can
safely share structure.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..errors import TraceError
from ..syntax.terms import OpPhase

__all__ = ["OperationRecord", "State"]


#: The record fields, in the order a record holds them, and the tuple's
#: own constructor and item read (a record's ``__getitem__`` takes field
#: names).
_FIELDS = ("phase", "args", "results")
_new = tuple.__new__
_item = tuple.__getitem__
_WHOLE = slice(None)

try:  # the C field reader namedtuple's fields use: no Python-level call
    from _collections import _tuplegetter
except ImportError:  # pragma: no cover - not CPython
    def _tuplegetter(index: int, doc: str) -> Any:
        return property(lambda record: _item(record, index), doc=doc)


class OperationRecord(tuple, Mapping[str, Any]):
    """The lifecycle record of one abstract operation within one state.

    Keys: ``phase`` (one of :class:`repro.syntax.terms.OpPhase`), ``args``
    (tuple of entry-parameter values) and ``results`` (tuple of result
    values, meaningful in the ``after`` phase).

    A record *is* the tuple ``(phase, args, results)``: it hashes and
    compares as that tuple does, in C, with no Python-level ``__hash__`` or
    ``__eq__`` — the column encoder (:mod:`repro.semantics.columns`) hashes
    operation cells that way.  So a record equals a plain tuple holding the
    same fields.  Read as a mapping, it has the three keys above:
    iteration, ``in`` and ``record[key]`` are by field name.
    """

    __slots__ = ()

    def __new__(
        cls,
        phase: str = OpPhase.IDLE,
        args: Sequence[Any] = (),
        results: Sequence[Any] = (),
    ) -> "OperationRecord":
        if phase not in OpPhase.ALL:
            raise TraceError(f"unknown operation phase: {phase!r}")
        return _new(cls, (phase, tuple(args), tuple(results)))

    phase = _tuplegetter(0, "The lifecycle phase (:class:`OpPhase`).")
    args = _tuplegetter(1, "The entry-parameter values, a tuple.")
    results = _tuplegetter(2, "The result values, a tuple.")

    # Mapping interface so OpAt/OpIn/OpAfter can use record["phase"] etc.
    def __getitem__(self, key: str) -> Any:  # type: ignore[override]
        if key == "phase":
            return _item(self, 0)
        if key == "args":
            return _item(self, 1)
        if key == "results":
            return _item(self, 2)
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:  # type: ignore[override]
        return iter(_FIELDS)

    def __contains__(self, key: object) -> bool:  # type: ignore[override]
        return key in _FIELDS

    def __reduce__(self) -> Tuple[Any, ...]:
        # Rebuilt from its three fields, whatever the pickle protocol: the
        # tuple's own reduction would pass them as one argument.
        return type(self), _item(self, _WHOLE)

    def __repr__(self) -> str:
        phase, args, results = _item(self, _WHOLE)
        return f"OperationRecord(phase={phase!r}, args={args!r}, results={results!r})"


_IDLE_RECORD = OperationRecord()


class State(Mapping[str, Any]):
    """One state of a computation: variable values plus operation records.

    ``state[name]`` reads a state variable; missing variables raise
    ``KeyError`` (which predicates convert into
    :class:`repro.errors.UnknownStateVariableError`).  The special variable
    ``__start__`` is injected by :class:`repro.semantics.trace.Trace` on the
    first state, supporting the distinguished ``start`` predicate of the
    Init-clause interpretation.
    """

    __slots__ = ("_values", "_operations", "_hash")

    def __init__(
        self,
        values: Optional[Mapping[str, Any]] = None,
        operations: Optional[Mapping[str, OperationRecord]] = None,
    ) -> None:
        self._values: Dict[str, Any] = dict(values or {})
        ops: Dict[str, OperationRecord] = {}
        for name, record in (operations or {}).items():
            if not isinstance(record, OperationRecord):
                record = OperationRecord(**dict(record))
            ops[name] = record
        self._operations = ops
        self._hash: Optional[int] = None

    # -- mapping interface over state variables -----------------------------

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key: str, default: Any = None) -> Any:
        return self._values.get(key, default)

    @property
    def values_map(self) -> Mapping[str, Any]:
        """The raw state-variable mapping."""
        return dict(self._values)

    @property
    def operations(self) -> Mapping[str, OperationRecord]:
        """Operation records keyed by operation name."""
        return dict(self._operations)

    @property
    def raw_values(self) -> Mapping[str, Any]:
        """The internal value mapping, uncopied — treat as read-only.

        The columnar trace build (:mod:`repro.semantics.columns`) walks
        every state once; the defensive copies of :attr:`values_map` /
        :attr:`operations` would double that pass's allocation for nothing.
        """
        return self._values

    @property
    def raw_operations(self) -> Mapping[str, OperationRecord]:
        """The internal operation-record mapping, uncopied — read-only."""
        return self._operations

    def operation(self, name: str) -> OperationRecord:
        """The record for operation ``name`` (idle if never mentioned)."""
        return self._operations.get(name, _IDLE_RECORD)

    # -- functional updates --------------------------------------------------

    def with_values(self, **updates: Any) -> "State":
        """A copy of this state with some state variables replaced."""
        new_values = dict(self._values)
        new_values.update(updates)
        return State(new_values, self._operations)

    def with_operation(
        self,
        name: str,
        phase: str,
        args: Sequence[Any] = (),
        results: Sequence[Any] = (),
    ) -> "State":
        """A copy of this state with one operation record replaced."""
        new_ops = dict(self._operations)
        new_ops[name] = OperationRecord(phase, args, results)
        return State(self._values, new_ops)

    def without_operation(self, name: str) -> "State":
        """A copy with operation ``name`` reset to idle (record removed)."""
        new_ops = dict(self._operations)
        new_ops.pop(name, None)
        return State(self._values, new_ops)

    # -- equality / hashing ---------------------------------------------------

    def _key(self) -> Tuple[Tuple[Tuple[str, Any], ...], Tuple[Tuple[str, OperationRecord], ...]]:
        return (
            tuple(sorted(self._values.items(), key=lambda kv: kv[0])),
            tuple(sorted(self._operations.items(), key=lambda kv: kv[0])),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            try:
                self._hash = hash(self._key())
            except TypeError:
                # Unhashable values (e.g. lists) — fall back to a coarse hash.
                self._hash = hash(tuple(sorted(self._values.keys())))
        return self._hash

    def __repr__(self) -> str:
        parts = [f"{k}={v!r}" for k, v in sorted(self._values.items())]
        for name, record in sorted(self._operations.items()):
            if record.phase != OpPhase.IDLE:
                parts.append(f"{record.phase} {name}{record.args!r}")
        return f"State({', '.join(parts)})"

    def observed_values(self) -> Tuple[Any, ...]:
        """All values mentioned by this state (used to build quantifier domains)."""
        return observed_values(self._values, self._operations)


def observed_values(
    values: Mapping[str, Any], operations: Mapping[str, OperationRecord]
) -> Tuple[Any, ...]:
    """The values a state with these maps mentions: its non-boolean
    variable values, then each operation record's args and results."""
    seen = [value for value in values.values() if not isinstance(value, bool)]
    for record in operations.values():
        seen.extend(record.args)
        seen.extend(record.results)
    return tuple(seen)
