r"""The satisfaction relation of Chapter 3.

The model defines, for a state sequence ``s``, a context ``<i, j>`` and an
interval formula ``alpha``, the relation ``<i, j> |= alpha``::

    <i, j> |= P          iff  P is true of the first state of the context
    <i, j> |= ~alpha     iff  not <i, j> |= alpha
    <i, j> |= a /\ b     iff  both hold
    <i, j> |= [] a       iff  for every k in <i, j>,  <k, j> |= a
    <i, j> |= <> a       iff  for some  k in <i, j>,  <k, j> |= a
    <i, j> |= [ I ] a    iff  F(I, <i, j>, Forward) |= a

with every formula satisfied on the null interval ``⊥`` (the partial
correctness device of the paper).  A sequence satisfies a formula when
``<1, ∞> |= alpha``.

Beyond the core relation, the evaluator supports:

* ``*I`` (interval eventuality) — directly, agreeing with its definition
  ``~[I] False`` (valid formula V4);
* the ``*`` interval-term modifier — by applying the Appendix A reduction on
  the fly;
* ``Forall`` over logical variables — quantification ranges over an explicit
  domain or, by default, over the values observed in the trace;
* the ``atO↑`` parameter-binding convention (:class:`NextBinding`).

Evaluation is memoized per ``(formula, context, environment)``; contexts in
the repeating cycle of a lasso trace are normalized so memoization also
captures the periodic structure.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from ..errors import EvaluationError
from ..syntax.formulas import (
    Always,
    And,
    Atom,
    Eventually,
    FalseFormula,
    Forall,
    Formula,
    Iff,
    Implies,
    IntervalFormula,
    NextBinding,
    Not,
    Occurs,
    Or,
    TrueFormula,
)
from ..syntax.terms import OpAt
from .construction import BOTTOM, Direction, Interval, IntervalConstructor
from .reduction import eliminate_stars, has_star
from .trace import INFINITY, Trace

__all__ = ["Evaluator", "satisfies", "holds_on_context"]


Position = Union[int, float]


class Evaluator:
    """Evaluates interval-logic formulas over one trace.

    Parameters
    ----------
    trace:
        The computation.
    domain:
        Optional mapping from logical-variable name to the iterable of values
        it quantifies over.  Variables not mentioned default to the trace's
        observed value universe.
    """

    def __init__(
        self,
        trace: Trace,
        domain: Optional[Mapping[str, Iterable[Any]]] = None,
    ) -> None:
        self._trace = trace
        self._domain = {k: tuple(v) for k, v in (domain or {}).items()}
        self._default_domain: Optional[Tuple[Any, ...]] = None
        self._constructor = IntervalConstructor(trace, self._holds_callback)
        self._memo: Dict[Any, bool] = {}

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def memo_size(self) -> int:
        """Number of memoized ``(formula, context, env)`` verdicts."""
        return len(self._memo)

    def clear_memo(self) -> None:
        """Drop every memoized verdict (the trace and domains are kept)."""
        self._memo.clear()

    # -- public API ---------------------------------------------------------------

    def satisfies(self, formula: Formula, env: Optional[Mapping[str, Any]] = None) -> bool:
        """``s |= formula`` — evaluation over the whole computation ``<1, ∞>``."""
        return self.holds(formula, 1, INFINITY, env or {})

    def holds(
        self,
        formula: Formula,
        lo: Position,
        hi: Position,
        env: Optional[Mapping[str, Any]] = None,
    ) -> bool:
        """``<lo, hi> |= formula`` under the environment ``env``."""
        return self._holds(formula, int(lo), hi, dict(env or {}))

    def construct_interval(
        self,
        term,
        lo: Position = 1,
        hi: Position = INFINITY,
        env: Optional[Mapping[str, Any]] = None,
        direction: str = Direction.FORWARD,
    ) -> Optional[Interval]:
        """Expose the construction function ``F`` for inspection and testing."""
        context = Interval(int(lo), hi)
        return self._constructor.construct(term, context, direction, dict(env or {}))

    # -- internals -------------------------------------------------------------------

    def _holds_callback(
        self, formula: Formula, lo: int, hi: Position, env: Mapping[str, Any]
    ) -> bool:
        return self._holds(formula, lo, hi, env)

    def _normalize(self, lo: int, hi: Position) -> Tuple[int, Position]:
        """Shift a context lying entirely in the repeating cycle back one period.

        Positions at or beyond ``loop_start + period`` see exactly the same
        states as one period earlier, so contexts can be canonicalized for
        memoization without changing their meaning.
        """
        period = self._trace.period
        loop_start = self._trace.loop_start
        while lo - period >= loop_start:
            lo -= period
            if hi != INFINITY:
                hi -= period
        return lo, hi

    def _memo_key(
        self, formula: Formula, lo: int, hi: Position, env: Mapping[str, Any]
    ) -> Optional[Tuple[Any, ...]]:
        """Key the memo on the *free* variables of the formula only.

        A verdict depends on the environment solely through the formula's
        free logical variables, so closed subformulas share one memo entry
        across every ``Forall`` branch instead of one per binding.
        """
        try:
            free = formula.free_variables()
            if free:
                env_key = tuple(
                    sorted((name, env[name]) for name in free if name in env)
                )
            else:
                env_key = ()
            return (formula, lo, hi, env_key)
        except TypeError:
            return None

    def _holds(
        self, formula: Formula, lo: int, hi: Position, env: Mapping[str, Any]
    ) -> bool:
        lo, hi = self._normalize(lo, hi)
        key = self._memo_key(formula, lo, hi, env)
        if key is not None and key in self._memo:
            return self._memo[key]
        result = self._dispatch(formula, lo, hi, env)
        if key is not None:
            self._memo[key] = result
        return result

    def _dispatch(
        self, formula: Formula, lo: int, hi: Position, env: Mapping[str, Any]
    ) -> bool:
        if isinstance(formula, Atom):
            return formula.predicate.holds(self._trace.state_at(lo), env)
        if isinstance(formula, TrueFormula):
            return True
        if isinstance(formula, FalseFormula):
            return False
        if isinstance(formula, Not):
            return not self._holds(formula.operand, lo, hi, env)
        if isinstance(formula, And):
            return self._junction(formula, lo, hi, env, deciding=False)
        if isinstance(formula, Or):
            return self._junction(formula, lo, hi, env, deciding=True)
        if isinstance(formula, Implies):
            # ``a ⊃ b`` is ``¬a ∨ b``.
            return self._junction(formula, lo, hi, env, deciding=True, negate_left=True)
        if isinstance(formula, Iff):
            return self._holds(formula.left, lo, hi, env) == self._holds(
                formula.right, lo, hi, env
            )
        if isinstance(formula, Always):
            return all(
                self._holds(formula.operand, k, hi, env)
                for k in self._trace.suffix_representatives(lo, hi)
            )
        if isinstance(formula, Eventually):
            return any(
                self._holds(formula.operand, k, hi, env)
                for k in self._trace.suffix_representatives(lo, hi)
            )
        if isinstance(formula, IntervalFormula):
            return self._holds_interval_formula(formula, lo, hi, env)
        if isinstance(formula, Occurs):
            return self._holds_occurs(formula, lo, hi, env)
        if isinstance(formula, Forall):
            return self._holds_forall(formula, lo, hi, env)
        if isinstance(formula, NextBinding):
            return self._holds_next_binding(formula, lo, hi, env)
        raise EvaluationError(f"unknown formula node: {formula!r}")

    def _junction(
        self,
        formula: Formula,
        lo: int,
        hi: Position,
        env: Mapping[str, Any],
        deciding: bool,
        negate_left: bool = False,
    ) -> bool:
        """``∧`` (``deciding`` False) / ``∨`` (True) with deferred errors.

        Operands are tried left to right, and the first one whose value is
        ``deciding`` settles the verdict.  An operand's error surfaces only
        when the other operand does not decide, so the verdict does not
        depend on the operand order, exactly as in the compiled runtime.
        """
        error: Optional[Exception] = None
        for operand, negate in ((formula.left, negate_left), (formula.right, False)):
            try:
                value = bool(self._holds(operand, lo, hi, env)) != negate
            except Exception as exc:  # deferred: the other operand may decide
                if error is None:
                    error = exc
                continue
            if value is deciding:
                return deciding
        if error is not None:
            raise error
        return not deciding

    def _holds_interval_formula(
        self, formula: IntervalFormula, lo: int, hi: Position, env: Mapping[str, Any]
    ) -> bool:
        if has_star(formula.term):
            reduced = eliminate_stars(formula)
            return self._holds(reduced, lo, hi, env)
        context = Interval(lo, hi)
        found = self._constructor.construct(
            formula.term, context, Direction.FORWARD, env
        )
        if found is BOTTOM:
            return True
        return self._holds(formula.body, found.lo, found.hi, env)

    def _holds_occurs(
        self, formula: Occurs, lo: int, hi: Position, env: Mapping[str, Any]
    ) -> bool:
        if has_star(formula.term):
            reduced = eliminate_stars(formula)
            return self._holds(reduced, lo, hi, env)
        context = Interval(lo, hi)
        found = self._constructor.construct(
            formula.term, context, Direction.FORWARD, env
        )
        return found is not BOTTOM

    def _domain_for(self, name: str) -> Tuple[Any, ...]:
        if name in self._domain:
            return self._domain[name]
        if self._default_domain is None:
            self._default_domain = self._trace.value_universe()
        return self._default_domain

    def _holds_forall(
        self, formula: Forall, lo: int, hi: Position, env: Mapping[str, Any]
    ) -> bool:
        def recurse(remaining: Tuple[str, ...], current: Dict[str, Any]) -> bool:
            if not remaining:
                return self._holds(formula.body, lo, hi, current)
            name, rest = remaining[0], remaining[1:]
            for value in self._domain_for(name):
                extended = dict(current)
                extended[name] = value
                if not recurse(rest, extended):
                    return False
            return True

        return recurse(tuple(formula.variables), dict(env))

    def _holds_next_binding(
        self, formula: NextBinding, lo: int, hi: Position, env: Mapping[str, Any]
    ) -> bool:
        at_event = Atom(OpAt(formula.operation))
        context = Interval(lo, hi)
        found = self._constructor.find_event(at_event, context, Direction.FORWARD, env)
        if found is BOTTOM:
            return True
        call_state = self._trace.state_at(found.hi)
        record = call_state.operation(formula.operation)
        args = record.args
        if len(args) < len(formula.variables):
            raise EvaluationError(
                f"bind-next over operation {formula.operation!r} binds "
                f"{len(formula.variables)} variable(s) "
                f"({', '.join(formula.variables)}) but the call at position "
                f"{found.hi} supplies only {len(args)} argument(s)"
            )
        extended = dict(env)
        for index, name in enumerate(formula.variables):
            extended[name] = args[index]
        return self._holds(formula.body, lo, hi, extended)


def satisfies(
    trace: Trace,
    formula: Formula,
    domain: Optional[Mapping[str, Iterable[Any]]] = None,
    env: Optional[Mapping[str, Any]] = None,
) -> bool:
    """Convenience wrapper: does the whole computation satisfy ``formula``?"""
    return Evaluator(trace, domain).satisfies(formula, env)


def holds_on_context(
    trace: Trace,
    formula: Formula,
    lo: Position,
    hi: Position,
    domain: Optional[Mapping[str, Iterable[Any]]] = None,
    env: Optional[Mapping[str, Any]] = None,
) -> bool:
    """Convenience wrapper: ``<lo, hi> |= formula`` on ``trace``."""
    return Evaluator(trace, domain).holds(formula, lo, hi, env)
