"""The unified checking façade — the package's front door.

Three nouns cover every checking question of the reproduction:

* :class:`Session` — holds traces, quantification domains, the compiled-plan
  cache and the engine registry; answers requests through
  :meth:`~Session.check` and batches through :meth:`~Session.check_many`;
* :class:`CheckRequest` — one formula (string, AST, builder expression, LTL
  or LLL object — see :func:`coerce_formula`) plus mode and options;
* :class:`CheckResult` — one verdict with witness/counterexample, per-engine
  statistics and wall time, whatever engine produced it.

Six pluggable engines wrap the underlying subsystems: ``trace`` (Chapter 3
satisfaction), ``compiled`` (the same satisfaction relation through the
:mod:`repro.compile` plan pipeline — normalized, hash-consed, plan-cached),
``bounded`` (small-scope validity), ``tableau`` (Appendix B / Algorithm A),
``lll`` (Appendix C) and ``monitor`` (incremental prefixes).
``Session.check`` auto-dispatches on the formula fragment when no mode is
given.  The historical per-subsystem entry points (``satisfies``,
``is_bounded_valid``, ``TableauDecider``, ...) keep working at their
defining modules.

Quickstart::

    from repro.api import Session

    session = Session().add_trace("run", [{"x": 1}, {"x": 2}])
    session.check("<> x == 2", trace="run").holds        # -> True
    session.check("[] (p -> <> q) /\\ <> p -> <> q")     # tableau: valid
"""

from .coerce import CheckRequestError, coerce_formula, coerce_trace
from .engines import (
    BoundedEngine,
    CompiledEngine,
    Engine,
    EngineCapabilities,
    EngineRegistry,
    LLLEngine,
    MonitorEngine,
    TableauEngine,
    TraceEngine,
    default_registry,
)
from .request import QUERY_SATISFIABILITY, QUERY_VALIDITY, CheckRequest
from .result import CheckResult
from .session import Session, check, check_many

__all__ = [
    "Session",
    "CheckRequest",
    "CheckResult",
    "check",
    "check_many",
    "coerce_formula",
    "coerce_trace",
    "CheckRequestError",
    "Engine",
    "EngineCapabilities",
    "EngineRegistry",
    "TraceEngine",
    "CompiledEngine",
    "BoundedEngine",
    "TableauEngine",
    "LLLEngine",
    "MonitorEngine",
    "default_registry",
    "QUERY_VALIDITY",
    "QUERY_SATISFIABILITY",
]
