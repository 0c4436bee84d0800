"""Reproduction of "An Interval Logic for Higher-Level Temporal Reasoning".

Schwartz, Melliar-Smith, Vogt, Plaisted — SRI International / NASA CR-172262,
1983 (PODC 1983).

**Front door.**  :mod:`repro.api` is the package's unified checking façade:
a :class:`~repro.api.session.Session` holds traces, domains and shared
caches; :meth:`~repro.api.session.Session.check` answers one
:class:`~repro.api.request.CheckRequest` (formula + mode + options) with a
:class:`~repro.api.result.CheckResult` (verdict, witness/counterexample,
statistics, wall time); :meth:`~repro.api.session.Session.check_many`
batches campaigns and can fan them out over worker processes.  Five
pluggable engines — ``trace``, ``bounded``, ``tableau``, ``lll``,
``monitor`` — wrap the subsystems below, with auto-dispatch on the formula
fragment.  The historical per-subsystem entry points keep working at their
defining modules.

The package is organised as:

* :mod:`repro.api` — the unified checking façade (Session / CheckRequest /
  CheckResult, engine registry, batching and parallel fan-out);
* :mod:`repro.syntax` — formulas, interval terms, event terms, parser, printer;
* :mod:`repro.semantics` — states, traces, the construction function ``F`` and
  the Chapter 3 satisfaction relation, Appendix A reductions;
* :mod:`repro.core` — parameterized operations, Init/Axioms specifications,
  the Chapter 4 valid-formula catalogue, bounded validity checking, proof
  support for Chapter 8;
* :mod:`repro.ltl` — the propositional linear-time temporal logic substrate
  with the Appendix B tableau decision procedures (Algorithms A and B);
* :mod:`repro.theories` — the specialized theory solvers combined with LTL;
* :mod:`repro.lll` — the Appendix C low-level language and its graph-based
  decision procedure;
* :mod:`repro.systems` — discrete-event simulators for the paper's case
  studies (queues, self-timed arbiter, Alternating Bit protocol, distributed
  mutual exclusion);
* :mod:`repro.specs` — the paper's specifications written against the API;
* :mod:`repro.checking` — trace monitors and conformance campaigns (the
  conformance runner is a thin wrapper over ``Session.check_many``).
"""

from . import errors
from .api import CheckRequest, CheckResult, Session, check, check_many
from .semantics import (
    BOTTOM,
    Evaluator,
    Interval,
    State,
    Trace,
    boolean_trace,
    make_trace,
    satisfies,
)
from .syntax import parse_formula, parse_term, to_ascii, to_unicode

__version__ = "1.1.0"

__all__ = [
    "errors",
    "Session",
    "CheckRequest",
    "CheckResult",
    "check",
    "check_many",
    "BOTTOM",
    "Evaluator",
    "Interval",
    "State",
    "Trace",
    "boolean_trace",
    "make_trace",
    "satisfies",
    "parse_formula",
    "parse_term",
    "to_ascii",
    "to_unicode",
    "__version__",
]
