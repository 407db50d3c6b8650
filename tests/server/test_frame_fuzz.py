"""Malformed frames: the decoder refuses each one, and a live server survives them.

A seeded corpus of broken bodies — truncated envelopes and buffers,
descriptor counts that do not match the buffers, trailing bytes, bad
lengths, dtypes the wire does not carry, bad JSON; for the binary layouts
truncated heads, binding or value counts that disagree with the body,
names / cache levels / column counts running past the end — plus seeded
random mutations of one valid columnar, one bound-execute and one result
body.  :func:`decode_frame` raises
:class:`ProtocolError` for every broken body; on a live server the
offending connection gets a ``ProtocolError`` frame and is closed while a
concurrent connection keeps answering (and ``tests/conftest.py`` checks
that no thread outlives the test).
"""

from __future__ import annotations

import asyncio
import json
import struct

import numpy as np
import pytest

import repro.aio
from repro.server import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ReproServer,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)

SEED = 20_260_517
SQL = "select objid from p where ra between ? and ?"


def _columnar(envelope: bytes | dict, buffers: bytes = b"", *, length: int | None = None) -> bytes:
    """A columnar body from an envelope (text or object) and raw buffer bytes."""
    if isinstance(envelope, dict):
        envelope = json.dumps(envelope, separators=(",", ":")).encode()
    size = len(envelope) if length is None else length
    return struct.pack(">BI", 1, size) + envelope + buffers


def _descriptor(code, n) -> dict:
    return {"$buf": code, "n": n}


#: One valid columnar body: two buffers of different dtypes after an envelope.
VALID = encode_frame(
    {"type": "admin", "id": 2, "op": "insert", "args": {
        "table": "p", "data": {"objid": np.arange(4, dtype=np.int64),
                               "ra": np.ones(4, dtype="<f4")}}}
)[4:]
_ENVELOPE_END = 5 + struct.unpack(">I", VALID[1:5])[0]
_I8 = np.arange(4, dtype="<i8").tobytes()

CORPUS: dict[str, bytes] = {
    "empty": b"",
    "short-header": VALID[:3],
    "truncated-envelope": VALID[:_ENVELOPE_END - 4],
    "envelope-length-too-short": _columnar(VALID[5:_ENVELOPE_END], length=_ENVELOPE_END - 9),
    "envelope-length-past-end": VALID[:1] + struct.pack(">I", 10**6) + VALID[5:],
    "truncated-buffer": VALID[:-1],
    "trailing-bytes": VALID + b"\x00",
    "one-descriptor-too-many": _columnar(
        {"type": "r", "a": _descriptor("<i8", 4), "b": _descriptor("<i8", 4)}, _I8),
    "one-descriptor-too-few": _columnar({"type": "r", "a": _descriptor("<i8", 4)}, _I8 * 2),
    "no-descriptor": _columnar({"type": "r"}, _I8),
    "n-negative": _columnar({"type": "r", "a": _descriptor("<i8", -1)}, _I8),
    "n-past-the-end": _columnar({"type": "r", "a": _descriptor("<i8", 5)}, _I8),
    "n-huge": _columnar({"type": "r", "a": _descriptor("<i8", 2**62)}, _I8),
    "n-float": _columnar({"type": "r", "a": _descriptor("<i8", 4.0)}, _I8),
    "n-bool": _columnar({"type": "r", "a": _descriptor("|b1", True)}, b"\x01"),
    "n-string": _columnar({"type": "r", "a": _descriptor("<i8", "4")}, _I8),
    "n-missing": _columnar({"type": "r", "a": {"$buf": "<i8"}}, _I8),
    "descriptor-extra-key": _columnar(
        {"type": "r", "a": {"$buf": "<i8", "n": 4, "x": 0}}, _I8),
    "dtype-object": _columnar({"type": "r", "a": _descriptor("|O", 4)}, _I8),
    "dtype-unicode": _columnar({"type": "r", "a": _descriptor("<U2", 4)}, _I8),
    "dtype-void": _columnar({"type": "r", "a": _descriptor("|V8", 4)}, _I8),
    "dtype-complex": _columnar({"type": "r", "a": _descriptor("<c8", 4)}, _I8),
    "dtype-datetime": _columnar({"type": "r", "a": _descriptor("<M8[s]", 4)}, _I8),
    "dtype-native-order": _columnar({"type": "r", "a": _descriptor("=i8", 4)}, _I8),
    "dtype-garbage": _columnar({"type": "r", "a": _descriptor("\x00zz", 4)}, _I8),
    "dtype-not-a-string": _columnar({"type": "r", "a": _descriptor(8, 4)}, _I8),
    "dtype-a-list": _columnar({"type": "r", "a": _descriptor(["<i8"], 4)}, _I8),
    "descriptor-as-root": _columnar(_descriptor("<i8", 4), _I8),
    "reserved-key-on-root": _columnar({"type": "r", "$buf": "<i8", "n": 4}, _I8),
    "envelope-not-an-object": _columnar(b"[1,2]", _I8),
    "envelope-without-type": _columnar({"a": _descriptor("<i8", 4)}, _I8),
    "envelope-bad-json": _columnar(b'{"type":"r","a":{"$buf":"<i8","n":4}', _I8),
    "envelope-bad-utf8": _columnar(b'{"type":"r\xff","a":{"$buf":"<i8","n":4}}', _I8),
    "envelope-too-deep": _columnar(b'{"type":"r","a":' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
    "number-too-long": _columnar(b'{"type":"r","a":{"$buf":"<i8","n":' + b"9" * 5_000 + b"}}", _I8),
    "unknown-tag": b"\x04" + VALID[1:],
    "json-bad-utf8": b'{"type":"\xff"}',
    "json-not-an-object": b"[1]",
}


def _execute(n: int, params: bytes, request_id: int = 5, statement: int = 1) -> bytes:
    """A bound-execute body declaring ``n`` bindings, followed by ``params``."""
    return struct.pack(">BqqH", 2, request_id, statement, n) + params


def _result(
    columns: list[tuple[bytes, bytes, int]], buffers: bytes, *, level: bytes = b"batched",
    level_length: int | None = None, count: int | None = None, batched: int = 1,
) -> bytes:
    """A result body: ``columns`` are ``(name, dtype code, n)``, then raw ``buffers``."""
    head = struct.pack(">BqqBB", 3, 5, 4, batched,
                       len(level) if level_length is None else level_length)
    head += level + bytes((len(columns) if count is None else count,))
    for name, code, n in columns:
        head += struct.pack(">B3sq", len(name), code, n) + name
    return head + buffers


#: One valid body of each binary layout.
VALID_EXECUTE = encode_frame(
    {"type": "execute", "statement": 1, "params": [10.0, 20.0], "id": 5})[4:]
VALID_RESULT = encode_frame(
    {"type": "result", "id": 5, "rowcount": 4, "cache_level": "batched", "batched": True,
     "columns": {"objid": np.arange(4, dtype=np.int64), "ra": np.ones(4, dtype="<f4")}})[4:]
_F8 = struct.pack(">2d", 10.0, 20.0)
_F4 = np.ones(4, dtype="<f4").tobytes()
_TWO = [(b"objid", b"<i8", 4), (b"ra", b"<f4", 4)]

CORPUS.update({
    "execute-tag-only": b"\x02",
    "execute-truncated-head": VALID_EXECUTE[:12],
    "execute-head-only-missing-a-byte": VALID_EXECUTE[:18],
    "execute-n-past-the-end": _execute(3, _F8),
    "execute-n-short-of-the-end": _execute(1, _F8),
    "execute-trailing-bytes": VALID_EXECUTE + b"\x00",
    "execute-truncated-binding": VALID_EXECUTE[:-1],
    "result-tag-only": b"\x03",
    "result-truncated-head": VALID_RESULT[:10],
    "result-batched-flag-2": _result(_TWO, _I8 + _F4, batched=2),
    "result-level-past-the-end": _result([], b"", level=b"bat", level_length=200),
    "result-level-ends-the-frame": VALID_RESULT[:19 + len(b"batched")],
    "result-level-bad-utf8": _result(_TWO, _I8 + _F4, level=b"\xffx"),
    "result-no-column": _result([], b""),
    "result-count-past-the-end": _result(_TWO, b"", count=3),
    "result-column-head-truncated": _result(_TWO, b"")[:-9],
    "result-name-past-the-end": _result([(b"objid", b"<i8", 4)], b"")[:-2],
    "result-name-bad-utf8": _result([(b"\xfe", b"<i8", 4)], _I8),
    "result-duplicate-column": _result([(b"a", b"<i8", 4), (b"a", b"<i8", 4)], _I8 * 2),
    "result-dtype-complex": _result([(b"a", b"<c8", 4)], _I8),
    "result-dtype-object": _result([(b"a", b"|O8", 4)], _I8),
    "result-dtype-native-order": _result([(b"a", b"=i8", 4)], _I8),
    "result-dtype-garbage": _result([(b"a", b"\x00zz", 4)], _I8),
    "result-n-negative": _result([(b"a", b"<i8", -1)], _I8),
    "result-n-past-the-end": _result([(b"a", b"<i8", 5)], _I8),
    "result-n-short-of-the-end": _result([(b"a", b"<i8", 3)], _I8),
    "result-n-huge": _result([(b"a", b"<i8", 2**62)], _I8),
    "result-trailing-bytes": VALID_RESULT + b"\x00",
    "result-truncated-buffer": VALID_RESULT[:-1],
})


def _mutants(count: int, valid: bytes = VALID) -> list[bytes]:
    """Seeded random truncations, flips and insertions of one valid body."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(count):
        body = bytearray(valid)
        kind = rng.integers(3)
        at = int(rng.integers(len(body)))
        if kind == 0:
            del body[at:]
        elif kind == 1:
            body[at] ^= int(rng.integers(1, 256))
        else:
            body[at:at] = rng.integers(0, 256, int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
        out.append(bytes(body))
    return out


class TestDecoderRefusesBrokenBodies:
    def test_the_valid_body_decodes(self):
        data = decode_frame(VALID)["args"]["data"]
        assert data["objid"].tolist() == [0, 1, 2, 3]
        assert data["ra"].dtype.str == "<f4"

    def test_the_valid_binary_bodies_decode(self):
        assert decode_frame(VALID_EXECUTE)["params"] == [10.0, 20.0]
        columns = decode_frame(VALID_RESULT)["columns"]
        assert columns["objid"].tolist() == [0, 1, 2, 3]
        assert columns["ra"].dtype.str == "<f4"
        # The corpus helpers build the same bytes the encoder does.
        assert _execute(2, _F8) == VALID_EXECUTE
        assert _result(_TWO, _I8 + _F4) == VALID_RESULT

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_body_raises_protocol_error(self, name):
        with pytest.raises(ProtocolError):
            decode_frame(CORPUS[name])

    def test_random_mutants_decode_or_raise_protocol_error(self):
        refused = 0
        for body in _mutants(600):
            try:
                payload = decode_frame(body)
            except ProtocolError:
                refused += 1
                continue
            assert isinstance(payload, dict) and "type" in payload
        # Most mutants break the frame; a flip inside a buffer does not.
        assert 300 < refused < 600

    @pytest.mark.parametrize("valid", [VALID_EXECUTE, VALID_RESULT], ids=["execute", "result"])
    def test_binary_mutants_decode_or_raise_protocol_error(self, valid):
        refused = 0
        for body in _mutants(600, valid):
            try:
                payload = decode_frame(body)
            except ProtocolError:
                refused += 1
                continue
            assert isinstance(payload, dict) and "type" in payload
        # Most truncations and insertions break the frame; most flips do not.
        assert 200 < refused < 600

    def test_length_prefix_above_the_limit_is_refused_before_the_body(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", MAX_FRAME_BYTES + 1) + VALID)
            reader.feed_eof()
            return await read_frame(reader)

        with pytest.raises(ProtocolError, match="exceeds"):
            asyncio.run(go())


def _live_cases() -> dict[str, bytes]:
    """Every corpus body as a whole frame, the oversize prefix, and refused mutants."""
    cases = {name: struct.pack(">I", len(body)) + body for name, body in CORPUS.items()}
    cases["length-prefix-above-limit"] = struct.pack(">I", MAX_FRAME_BYTES + 1) + VALID
    for label, valid in (("mutant", VALID), ("execute-mutant", VALID_EXECUTE),
                         ("result-mutant", VALID_RESULT)):
        refused = []
        for body in _mutants(200, valid):
            try:
                decode_frame(body)
            except ProtocolError:
                refused.append(body)
        for index, body in enumerate(refused[:20]):
            cases[f"{label}-{index}"] = struct.pack(">I", len(body)) + body
    return cases


class TestLiveServerSurvivesBrokenFrames:
    def test_each_broken_frame_closes_only_its_connection(self):
        rng = np.random.default_rng(SEED)
        ra = rng.uniform(0.0, 360.0, 2_000)

        async def offend(address, frame: bytes, handshake: bool):
            reader, writer = await asyncio.open_connection(*address)
            try:
                if handshake:
                    write_frame(writer, {"type": "hello", "id": 1, "protocol": PROTOCOL_VERSION})
                    await writer.drain()
                    assert (await read_frame(reader))["type"] == "hello"
                writer.write(frame)
                await writer.drain()
                reply = await asyncio.wait_for(read_frame(reader), 10)
                trailer = await asyncio.wait_for(reader.read(), 10)
                return reply, trailer
            finally:
                writer.close()

        async def go():
            async with ReproServer(port=0, batch_window_us=200.0) as server:
                good = await repro.aio.connect(*server.address, request_timeout=10)
                await good.admin.create_table("p", {"objid": "int64", "ra": "float64"})
                await good.admin.bulk_load("p", {"objid": np.arange(2_000), "ra": ra})
                statement = await good.prepare(SQL)
                expected = int(((ra >= 10.0) & (ra <= 20.0)).sum())
                outcomes = {}
                for index, (name, frame) in enumerate(sorted(_live_cases().items())):
                    # Half the offenders break the handshake, half a live session.
                    offence = offend(server.address, frame, handshake=index % 2 == 0)
                    (reply, trailer), answer = await asyncio.gather(
                        offence, statement.execute((10.0, 20.0))
                    )
                    outcomes[name] = (reply, trailer, answer.row_count)
                for _ in range(100):  # the offenders' connections wind down
                    if len(server._connections) == 1:
                        break
                    await asyncio.sleep(0.01)
                open_connections = len(server._connections)
                names = await good.admin.table_names()
                await good.close()
                return outcomes, expected, open_connections, names

        outcomes, expected, open_connections, names = asyncio.run(go())
        for name, (reply, trailer, rows) in outcomes.items():
            assert reply["type"] == "error" and reply["error"] == "ProtocolError", name
            assert trailer == b"", name  # closed after the error frame
            assert rows == expected, name
        assert open_connections == 1
        assert names == ["p"]
