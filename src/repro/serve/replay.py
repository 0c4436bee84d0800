"""Differential replay: the regression corpus through the wire protocol.

The serve path is a fourth way to evaluate a formula on a computation —
parse → plan-cache → incremental multi-root plan fed by batched ``append``
frames — so it enrolls in the same differential discipline as the
engines: every trace-backed corpus case is replayed *through the protocol
codec* (each frame encoded to its wire line and decoded back, exactly
what a socket would carry) into a :class:`~repro.serve.streams.
StreamRegistry`, and the stream's final verdicts must match a one-shot
check of the same clauses on the same trace through the session's
compiled path — plus the corpus's own pinned expectations.

Two case populations ride:

* ``kind="trace"`` — one clause per case, including every fault-injected
  run whose ``False`` verdict the corpus pins: a serve-side regression
  that stops *detecting* a violation fails replay as loudly as one that
  breaks a passing clause.
* ``kind="spec"`` — all clauses of a specification as one stream, so the
  multi-root plan behind ``append`` is exercised with genuine sharing.

Lasso (infinite, eventually-periodic) traces are skipped: the monitor
convention is finite computations under stutter extension, and a loop is
not expressible as a prefix of appends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..api.session import Session
from ..gen.corpus import DEFAULT_CORPUS_DIR, corpus_files, load_corpus
from .protocol import decode_frame, encode_frame, trace_to_rows
from .streams import StreamRegistry

__all__ = ["ServeDisagreement", "ServeReplayReport", "replay_case", "replay_corpus"]


@dataclass
class ServeDisagreement:
    """One case where the serve path and the one-shot check differ."""

    case_id: str
    clause: str
    served: Optional[bool]
    expected: Optional[bool]
    source: str  # "one-shot" or "pinned"
    detail: str = ""

    def describe(self) -> str:
        return (
            f"{self.case_id} clause {self.clause!r}: serve={self.served} "
            f"vs {self.source}={self.expected}"
            + (f" ({self.detail})" if self.detail else "")
        )


@dataclass
class ServeReplayReport:
    """What a corpus replay through the protocol established."""

    cases: int = 0
    streams: int = 0
    states: int = 0
    clauses: int = 0
    skipped_kind: int = 0
    skipped_lasso: int = 0
    alerts: int = 0
    disagreements: List[ServeDisagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        status = (
            "OK" if self.ok else f"{len(self.disagreements)} DISAGREEMENT(S)"
        )
        return (
            f"{status}: {self.streams} streams replayed "
            f"({self.clauses} clauses, {self.states} states, "
            f"{self.alerts} alerts) from {self.cases} cases; "
            f"skipped {self.skipped_kind} non-trace, "
            f"{self.skipped_lasso} lasso"
        )


def _roundtrip(frame: Dict[str, Any]) -> Dict[str, Any]:
    """Through the codec both ways — replay must exercise the wire format."""
    return decode_frame(encode_frame(frame).rstrip(b"\n"))


def _drive(
    registry: StreamRegistry, frame: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One request frame through codec → registry → codec."""
    responses = registry.handle(_roundtrip(frame))
    return [_roundtrip(response) for response in responses]


def replay_case(
    case,
    registry: StreamRegistry,
    session: Session,
    stream: str,
    batch: int = 16,
) -> List[ServeDisagreement]:
    """Replay one corpus case as one stream; returns its disagreements.

    The caller has already built (and vetted) the trace; this drives the
    frames and compares final verdicts against (a) a fresh one-shot
    compiled check per clause and (b) the case's pinned ``compiled``
    expectations where present.
    """
    trace = case.built_trace()
    clause_texts = (
        {f"clause-{i}": text for i, text in enumerate(case.clauses)}
        if case.kind == "spec"
        else {"formula": case.formula}
    )
    open_frame: Dict[str, Any] = {
        "op": "open",
        "stream": stream,
        "formulas": clause_texts,
    }
    if case.domain is not None:
        open_frame["domain"] = case.domain
    (opened,) = _drive(registry, open_frame)
    if "error" in opened:
        return [
            ServeDisagreement(
                case_id=case.id,
                clause="*",
                served=None,
                expected=None,
                source="one-shot",
                detail=f"open failed: {opened}",
            )
        ]

    rows = trace_to_rows(trace)
    final: Optional[Dict[str, Any]] = None
    for start in range(0, len(rows), batch):
        responses = _drive(
            registry,
            {
                "op": "append",
                "stream": stream,
                "states": rows[start : start + batch],
            },
        )
        final = responses[-1]
        if "error" in final:
            return [
                ServeDisagreement(
                    case_id=case.id,
                    clause="*",
                    served=None,
                    expected=None,
                    source="one-shot",
                    detail=f"append failed: {final}",
                )
            ]
    (closed,) = _drive(registry, {"op": "close", "stream": stream})
    served_verdicts: Dict[str, Optional[bool]] = closed["verdicts"]

    disagreements: List[ServeDisagreement] = []
    expect = case.expect or {}
    for index, (clause, text) in enumerate(clause_texts.items()):
        served = served_verdicts.get(clause)
        one_shot = session.check(
            text,
            trace=trace,
            domain=case.domain,
            mode="compiled",
            capture_errors=True,
        )
        if served != one_shot.verdict:
            disagreements.append(
                ServeDisagreement(
                    case_id=case.id,
                    clause=clause,
                    served=served,
                    expected=one_shot.verdict,
                    source="one-shot",
                    detail=one_shot.error or "",
                )
            )
        pinned_key = f"compiled[{index}]" if case.kind == "spec" else "compiled"
        if pinned_key in expect and served != expect[pinned_key]:
            disagreements.append(
                ServeDisagreement(
                    case_id=case.id,
                    clause=clause,
                    served=served,
                    expected=expect[pinned_key],
                    source="pinned",
                )
            )
    return disagreements


def replay_corpus(
    paths: Optional[Sequence[str]] = None,
    session: Optional[Session] = None,
    registry: Optional[StreamRegistry] = None,
    batch: int = 16,
) -> ServeReplayReport:
    """Replay every trace-backed corpus case through the serve protocol.

    ``paths`` are corpus files or directories (the built-in corpus by
    default).  One registry (one session, one warm plan cache) serves the
    whole run — exactly the serving shape — while the one-shot comparisons
    run on a separate session so nothing about serve state can leak into
    the expected side.
    """
    session = session if session is not None else Session()
    if registry is None:
        registry = StreamRegistry(session=Session())
    report = ServeReplayReport()
    cases = []
    for path in corpus_files(list(paths) if paths else [DEFAULT_CORPUS_DIR]):
        cases.extend(load_corpus(path))
    report.cases = len(cases)
    for index, case in enumerate(cases):
        if case.kind not in ("trace", "spec") or case.trace is None:
            report.skipped_kind += 1
            continue
        trace = case.built_trace()
        if not trace.is_stutter_extended:
            report.skipped_lasso += 1
            continue
        stream = f"replay-{index:05d}"
        disagreements = replay_case(
            case, registry, session, stream=stream, batch=batch
        )
        report.streams += 1
        report.states += trace.length
        report.clauses += len(case.clauses) if case.kind == "spec" else 1
        report.disagreements.extend(disagreements)
    report.alerts = registry.service_snapshot()["alerts"]
    return report
