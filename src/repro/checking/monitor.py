"""Trace monitors: incremental evaluation of interval-logic formulas.

A :class:`Monitor` watches a growing prefix of a computation: states are
appended one at a time and the monitored formulas are re-evaluated on the
prefix (under the paper's finite-computation convention, i.e. the prefix
extended by repeating its last state).  This is the natural way to connect a
running simulator — or any other state source — to a specification while the
system executes, and it is what the example applications use to show
violations as soon as they become detectable.

A verdict on a prefix is not always final (an eventuality that has not
happened yet may still happen); the monitor therefore reports, per formula,
the current verdict and whether it has been *stable* for a configurable
number of steps, which in practice flags genuine violations early.

Monitors run on **one incremental multi-root plan state**
(:mod:`repro.compile`): all monitored formulas are interned into a single
:class:`~repro.compile.specplan.SpecPlan` — subformulas shared across
formulas (the same ``[]``/``<>`` skeletons, event atoms, operation
predicates of a specification's clauses) are memoized once per position
for every formula watching them — and every appended state is absorbed in
amortized O(changed work): tail-independent subformula verdicts are
frozen, ``[]`` and ``<>`` resume from frontier positions, and event
searches extend shared endpoint indexes, instead of rebuilding a ``Trace``
and re-evaluating from scratch per state, which made online checking
quadratic in the prefix length.  Verdicts are bit-for-bit those of the
Chapter 3 evaluator on every prefix; :attr:`Monitor.last_step_cost` holds
the dispatch work of the latest observation, so regression tests can
assert the cost no longer grows with the prefix.

A monitor keeps no per-step record: each formula's verdict holds its
current value and ``stable_for``, and a caller that wants the verdict on
every prefix reads it after each observation (the ``monitor`` engine
does).  Long-lived monitors (the :mod:`repro.serve` streams) need two
things a one-shot monitor does not:

* **verdict-change callbacks** — ``on_change`` fires whenever a formula's
  verdict flips (or is first decided), which is how the serve layer turns
  monitoring into alert events without polling;
* **batched absorption** — :meth:`Monitor.observe_batch` appends a whole
  chunk of states and re-evaluates once at the batch boundary (the
  volatile memo split makes this sound: stable entries are
  tail-independent by construction), trading per-state verdict
  granularity for a large ingestion speedup on high-rate streams.

A monitor compiles its own plan by default; pass a prebuilt multi-root
``plan`` (``Session.monitor`` does, from the session's warm plan cache) to
skip recompilation when thousands of streams watch the same specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..compile import GrowingPrefix, PlanState, SpecPlan
from ..core.specification import Specification
from ..semantics.columns import Window
from ..semantics.state import State
from ..semantics.trace import Trace
from ..syntax.formulas import Formula

__all__ = ["MonitorVerdict", "Monitor", "SpecificationMonitor"]


@dataclass
class MonitorVerdict:
    """The monitoring state of one formula."""

    name: str
    formula: Formula
    holds: Optional[bool] = None
    stable_for: int = 0
    #: Set when the formula's evaluation raised under ``capture_errors``.
    error: Optional[str] = None

    def update(self, value: bool, weight: int = 1) -> bool:
        """Record a fresh verdict; True when it changed (or first appeared).

        ``weight`` is the number of observation steps this verdict stands
        for — a coalesced batch of ``k`` frames whose verdict did not flip
        advances ``stable_for`` by ``k``, exactly as ``k`` frame-at-a-time
        updates would have.
        """
        changed = self.holds is None or value != self.holds
        if not changed:
            self.stable_for += weight
        else:
            self.stable_for = 0
        self.holds = value
        self.error = None
        return changed

    def update_error(self, message: str, weight: int = 1) -> bool:
        """Record an evaluation error; True when the classification changed."""
        changed = self.error is None
        self.holds = None
        self.stable_for = 0 if changed else self.stable_for + weight
        self.error = message
        return changed

    def __str__(self) -> str:
        verdict = "?" if self.holds is None else ("PASS" if self.holds else "FAIL")
        return f"{verdict:4s} {self.name} (stable {self.stable_for} steps)"


class Monitor:
    """Re-evaluates a set of named formulas on a growing state prefix.

    All formulas compile into **one** multi-root
    :class:`~repro.compile.specplan.SpecPlan` bound to one incremental
    plan state, so formulas watching the same subformulas share memo
    entries, endpoint indexes and frontier aggregators.

    Parameters
    ----------
    formulas:
        Name → interval-logic formula, all watched on every observed state.
    domain:
        ``Forall`` quantification domains.
    plan:
        A prebuilt multi-root plan whose roots are exactly the formula
        names — :meth:`repro.api.session.Session.monitor` passes one from
        the session's warm plan cache, so opening thousands of streams on
        the same specification compiles it once.  Each monitor binds its
        own plan state over it when it first observes a state.
    on_change:
        Called as ``on_change(name, verdict)`` whenever a formula's verdict
        flips (or is first decided) — the serve layer's alert hook.
    capture_errors:
        Capture per-formula evaluation errors on the verdict
        (``holds=None`` + ``error``) instead of propagating, mirroring
        ``PlanState.check_all``'s per-clause contract.
    forall_unroll_cap:
        Bound on quantifier specialization in the compiled runtime
        (``None`` = the runtime default, ``0`` disables unrolling) —
        verdicts are identical at any cap; the knob exists for parity
        harnesses and benchmarks pinning one mode.
    """

    def __init__(
        self,
        formulas: Mapping[str, Formula],
        domain: Optional[Mapping[str, Iterable[object]]] = None,
        *,
        plan: Optional[SpecPlan] = None,
        on_change: Optional[Callable[[str, MonitorVerdict], None]] = None,
        capture_errors: bool = False,
        forall_unroll_cap: Optional[int] = None,
    ) -> None:
        self._formulas = dict(formulas)
        self._domain = domain
        if plan is None:
            plan = SpecPlan(list(self._formulas.items()))
        elif set(plan.roots) != set(self._formulas):
            raise ValueError(
                "prebuilt plan roots do not match the monitored formulas: "
                f"plan has {sorted(plan.roots)}, formulas are "
                f"{sorted(self._formulas)}"
            )
        self._plan = plan
        self._forall_unroll_cap = forall_unroll_cap
        self._prefix = GrowingPrefix()
        # Bound on first use (``plan_state``): constructing a monitor costs
        # no lowering, and one that never observes a state never lowers.
        self._state: Optional[PlanState] = None
        self._on_change = on_change
        self._capture_errors = capture_errors
        self._verdicts: Dict[str, MonitorVerdict] = {
            name: MonitorVerdict(name, formula)
            for name, formula in self._formulas.items()
        }
        #: Evaluation work (plan dispatch calls) of the latest
        #: :meth:`observe` / :meth:`observe_batch` (0 before any) — flat in
        #: the prefix length for stabilised formulas.  The serve layer
        #: reads it once per commit into ``serve_step_cost``.
        self.last_step_cost = 0

    @property
    def plan(self) -> SpecPlan:
        """The multi-root plan every watched formula compiled into."""
        return self._plan

    def fresh(self) -> "Monitor":
        """A new monitor of the same formulas on the same plan, domain and
        options that has observed nothing and has no ``on_change`` hook."""
        return Monitor(
            self._formulas, self._domain, plan=self._plan,
            capture_errors=self._capture_errors,
            forall_unroll_cap=self._forall_unroll_cap,
        )

    @property
    def on_change(self) -> Optional[Callable[[str, MonitorVerdict], None]]:
        """The verdict-change callback (assignable after construction)."""
        return self._on_change

    @on_change.setter
    def on_change(self, callback: Optional[Callable[[str, MonitorVerdict], None]]) -> None:
        self._on_change = callback

    @property
    def plan_state(self) -> PlanState:
        """The multi-root plan state behind this monitor, bound on first use."""
        if self._state is None:
            self._state = self._plan.evaluator(
                self._prefix, self._domain, forall_unroll_cap=self._forall_unroll_cap
            )
        return self._state

    def _refresh_verdicts(self, weight: int = 1) -> None:
        for name in self._formulas:
            verdict = self._verdicts[name]
            if self._capture_errors:
                try:
                    changed = verdict.update(self._state.satisfies(name), weight)
                except Exception as exc:  # per-formula capture, like check_all
                    changed = verdict.update_error(
                        f"{type(exc).__name__}: {exc}", weight
                    )
            else:
                changed = verdict.update(self._state.satisfies(name), weight)
            if changed and self._on_change is not None:
                self._on_change(name, verdict)

    def observe(self, state) -> Dict[str, MonitorVerdict]:
        """Append a state and re-evaluate every formula on the new prefix.

        Plain mappings are accepted the way the rest of the façade
        accepts them — ``{"p": True}`` becomes a :class:`State`.
        """
        if not isinstance(state, State):
            state = State(state)
        plan_state = self.plan_state
        self._prefix.append(state)
        before = plan_state.stats.dispatch_calls
        plan_state.note_append()
        self._refresh_verdicts()
        self.last_step_cost = plan_state.stats.dispatch_calls - before
        return dict(self._verdicts)

    def observe_batch(
        self, states: Sequence[State], commits: int = 1
    ) -> Dict[str, MonitorVerdict]:
        """Absorb a chunk of states, re-evaluating once at the boundary.

        Sound because the incremental memo split is tail-aware: stable
        entries are tail-independent, so appending any number of states
        before the single re-evaluation invalidates exactly the volatile
        entries that :meth:`~repro.compile.runtime.PlanState.note_append`
        clears (one sweep per batch), and the tail kernel extends its
        profiles over the whole appended window in one vectorized pass.
        Verdicts and ``on_change`` callbacks are refreshed once per
        *batch* — send batches of one for per-state granularity.

        ``states`` is a :class:`~repro.semantics.columns.Window` — what the
        serve layer builds from wire rows, taken as it is — or a sequence
        of ``State`` s and plain mappings, converted in one pass (a mapping
        becomes ``State(mapping)``).

        ``commits`` is the number of observation steps the batch stands
        for: the serve layer coalesces ``k`` back-to-back frames into one
        batch and passes ``commits=k`` so each formula's ``stable_for``
        advances exactly as ``k`` frame-at-a-time batches would have when
        the verdict does not flip inside the group.
        """
        if not states:
            return dict(self._verdicts)
        plan_state = self.plan_state
        self._prefix.extend(Window.of(states, coerce=True))
        before = plan_state.stats.dispatch_calls
        plan_state.note_append()
        self._refresh_verdicts(weight=commits)
        self.last_step_cost = plan_state.stats.dispatch_calls - before
        return dict(self._verdicts)

    def observe_trace(self, trace: Trace) -> Dict[str, MonitorVerdict]:
        """Feed every state of an existing trace through the monitor.

        One observation per state, so ``stable_for`` counts states and
        ``on_change`` fires at the state that flipped a verdict.  Each is
        a one-state slice of one window over the trace's own rows
        (:meth:`~repro.semantics.trace.Trace.window`): no ``State`` is
        built.
        """
        result: Dict[str, MonitorVerdict] = dict(self._verdicts)
        rows = trace.window()
        for index in range(len(rows)):
            result = self.observe_batch(rows[index:index + 1])
        return result

    @property
    def verdicts(self) -> Dict[str, MonitorVerdict]:
        return dict(self._verdicts)

    @property
    def prefix_length(self) -> int:
        return self._prefix.length

    def close(self) -> None:
        """Release the monitor: drop its ``on_change`` hook and break its
        plan state's reference cycles, so that reference counting frees
        both with the monitor's last holder.  Its verdicts stay readable;
        it observes no further state.
        """
        self._on_change = None
        if self._state is not None:
            self._state.close()

    def failing(self) -> List[str]:
        """Names of formulas currently evaluating to False."""
        return [name for name, v in self._verdicts.items() if v.holds is False]


class SpecificationMonitor(Monitor):
    """A monitor built directly from a :class:`Specification`."""

    def __init__(
        self,
        specification: Specification,
        domain: Optional[Mapping[str, Iterable[object]]] = None,
        **options: Any,
    ) -> None:
        formulas = {
            clause.name: clause.interpreted_formula()
            for clause in specification.clauses
        }
        super().__init__(formulas, domain, **options)
        self.specification = specification
