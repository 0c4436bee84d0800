"""Chapter 7: the Alternating Bit protocol over an unreliable medium.

Run with ``python examples/ab_protocol.py``.

Simulates the protocol of Figure 7-2 under different loss rates and checks
the sender (Figure 7-3), receiver (Figure 7-4) and service-provided (§7.4)
specifications through one façade :class:`~repro.api.session.Session` —
every specification compiles once and serves every trace, and the
faulty-sender sweep goes through ``check_specification`` (experiment E4).
"""

from repro.api import Session
from repro.checking import format_table
from repro.specs import receiver_spec, sender_spec, service_provided_spec
from repro.systems import ABProtocolConfig, ab_protocol_faulty_trace, ab_protocol_trace


def main() -> None:
    session = Session()

    print("== Correct protocol runs under increasing loss ==")
    rows = []
    for loss in (0.0, 0.3, 0.6):
        config = ABProtocolConfig(messages=("m1", "m2", "m3"), packet_loss=loss,
                                  ack_loss=loss, seed=11)
        trace = ab_protocol_trace(config)
        rows.append({
            "loss": loss,
            "trace length": trace.length,
            "sender spec": session.check_specification(sender_spec(), trace).holds,
            "receiver spec": session.check_specification(receiver_spec(), trace).holds,
            "service (FIFO exactly once)":
                session.check_specification(service_provided_spec(), trace).holds,
        })
    print(format_table(rows, ["loss", "trace length", "sender spec",
                              "receiver spec", "service (FIFO exactly once)"]))
    print()

    print("== Faulty senders ==")
    rows = []
    for fault in ("no_alternation", "transmit_during_dq", "skip_ack_wait"):
        trace = ab_protocol_faulty_trace(fault=fault)
        result = session.check_specification(sender_spec(), trace)
        rows.append({
            "fault": fault,
            "sender spec": result.holds,
            "violated clauses": ", ".join(v.clause.name for v in result.failures),
        })
    print(format_table(rows, ["fault", "sender spec", "violated clauses"]))


if __name__ == "__main__":
    main()
