"""The length-prefixed wire protocol: framing, limits, EOF semantics, the four body layouts."""

from __future__ import annotations

import asyncio
import struct

import numpy as np
import pytest

from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_frame,
)


def _read(data: bytes):
    """Drive ``read_frame`` over an in-memory stream fed with ``data``."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestEncodeDecode:
    def test_roundtrip(self):
        payload = {"type": "execute", "id": 7, "sql": "select 1", "params": [1.0, 2.5]}
        frame = encode_frame(payload)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert decode_frame(frame[4:]) == payload

    def test_numpy_scalars_coerce_to_json(self):
        payload = {
            "type": "result",
            "id": np.int64(3),
            "value": np.float64(1.5),
        }
        decoded = decode_frame(encode_frame(payload)[4:])
        assert decoded == {"type": "result", "id": 3, "value": 1.5}
        assert isinstance(decoded["id"], int)

    def test_unserializable_payload_raises(self):
        with pytest.raises(TypeError):
            encode_frame({"type": "x", "value": object()})

    def test_invalid_json_body_raises(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_frame(b"{nope")

    def test_non_object_payload_raises(self):
        with pytest.raises(ProtocolError, match="'type' field"):
            decode_frame(b"[1,2,3]")

    def test_object_without_type_raises(self):
        with pytest.raises(ProtocolError, match="'type' field"):
            decode_frame(b'{"id": 1}')

    def test_protocol_version_is_pinned(self):
        # Bumping the version is an intentional wire break; this test makes
        # the bump show up in a diff somewhere other than the module itself.
        assert PROTOCOL_VERSION == 3


class TestReadFrame:
    def test_reads_one_frame(self):
        frame = _read(encode_frame({"type": "hello", "id": 1}))
        assert frame == {"type": "hello", "id": 1}

    def test_clean_eof_returns_none(self):
        assert _read(b"") is None

    def test_eof_inside_header_raises(self):
        with pytest.raises(ProtocolError, match="frame header"):
            _read(b"\x00\x00")

    def test_eof_inside_body_raises(self):
        whole = encode_frame({"type": "hello"})
        with pytest.raises(ProtocolError, match="frame body"):
            _read(whole[:-2])

    def test_oversize_declared_length_raises_before_reading_body(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            _read(header)

    def test_frames_read_back_to_back(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(
                encode_frame({"type": "a"}) + encode_frame({"type": "b"})
            )
            reader.feed_eof()
            return [
                await read_frame(reader),
                await read_frame(reader),
                await read_frame(reader),
            ]

        first, second, third = asyncio.run(go())
        assert (first["type"], second["type"]) == ("a", "b")
        assert third is None


#: Every dtype a buffer may carry (``dtype.str``), both byte orders.
WIRE_DTYPES = [
    np.dtype(order + code)
    for order in "<>"
    for code in ("b1", "i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8", "f2", "f4", "f8")
]


def _roundtrip(payload):
    return decode_frame(encode_frame(payload)[4:])


def _assert_wire_array(decoded, sent):
    assert isinstance(decoded, np.ndarray)
    assert decoded.dtype == sent.dtype and decoded.dtype.str == sent.dtype.str
    assert decoded.flags.writeable and decoded.flags.owndata
    np.testing.assert_array_equal(decoded, sent)


class TestColumnarCodec:
    @pytest.mark.parametrize("dtype", WIRE_DTYPES, ids=lambda d: d.str)
    def test_every_wire_dtype_roundtrips(self, dtype):
        values = (np.arange(-5, 6) % 4 if dtype.kind in "bu" else np.arange(-5, 6))
        sent = values.astype(dtype)
        decoded = _roundtrip({"type": "result", "columns": {"v": sent}})
        _assert_wire_array(decoded["columns"]["v"], sent)

    def test_big_endian_keeps_its_byte_order(self):
        sent = (np.arange(7) * 1_000_003).astype(">i8")
        decoded = _roundtrip({"type": "result", "v": sent})["v"]
        assert decoded.dtype.str == ">i8"
        assert decoded.tolist() == sent.tolist()

    def test_columnar_body_layout(self):
        sent = np.arange(3, dtype="<i4")
        frame = encode_frame({"type": "result", "v": sent})
        body = frame[4:]
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(body)
        tag, envelope_length = struct.unpack(">BI", body[:5])
        envelope = body[5:5 + envelope_length]
        assert tag == 1
        assert envelope == b'{"type":"result","v":{"$buf":"<i4","n":3}}'
        assert body[5 + envelope_length:] == sent.tobytes()

    def test_a_payload_without_arrays_stays_plain_json(self):
        frame = encode_frame({"type": "hello", "protocol": PROTOCOL_VERSION})
        assert frame[4:5] == b"{"

    def test_empty_arrays_and_many_buffers(self):
        sent = {
            "a": np.empty(0, dtype=np.float64),
            "b": np.arange(5, dtype=np.int32),
            "c": np.empty(0, dtype=">u2"),
            "d": np.array([True, False, True]),
        }
        decoded = _roundtrip({"type": "result", **sent})
        for name, array in sent.items():
            _assert_wire_array(decoded[name], array)

    def test_non_contiguous_slices_cross_as_their_values(self):
        base = np.arange(40, dtype=np.float64).reshape(8, 5)
        for sent in (base[:, 2], base[::-1, 0], np.arange(30, dtype=np.int16)[::3]):
            assert not sent.flags.c_contiguous
            _assert_wire_array(_roundtrip({"type": "result", "v": sent})["v"], sent)

    def test_arrays_nested_in_executemany_results(self):
        results = [
            {"rowcount": n, "columns": {"objid": np.arange(n, dtype=np.int64) * k,
                                        "ra": np.linspace(0.0, 1.0, n)}}
            for k, n in enumerate((3, 0, 5, 1))
        ]
        payload = {"type": "result", "id": 9, "results": results,
                   "nested": [[np.arange(2, dtype=np.uint8)], {"x": [np.ones(2)]}]}
        decoded = _roundtrip(payload)
        assert decoded["id"] == 9
        for got, sent in zip(decoded["results"], results):
            assert got["rowcount"] == sent["rowcount"]
            for name in ("objid", "ra"):
                _assert_wire_array(got["columns"][name], sent["columns"][name])
        _assert_wire_array(decoded["nested"][0][0], payload["nested"][0][0])
        _assert_wire_array(decoded["nested"][1]["x"][0], payload["nested"][1]["x"][0])

    def test_decoded_arrays_do_not_share_the_frame(self):
        frame = encode_frame({"type": "result", "a": np.arange(4), "b": np.arange(4)})
        decoded = decode_frame(frame[4:])
        decoded["a"][:] = -1
        assert decoded["b"].tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "value",
        [
            np.array(["a", "b"]),
            np.array([object(), 1], dtype=object),
            np.zeros(2, dtype=np.complex128),
            np.zeros(2, dtype="datetime64[s]"),
            np.zeros((2, 2)),
            np.array(3.0),
        ],
        ids=["unicode", "object", "complex", "datetime", "2-D", "0-D"],
    )
    def test_arrays_the_wire_cannot_carry_are_refused(self, value):
        with pytest.raises(TypeError, match="cannot cross the wire"):
            encode_frame({"type": "result", "v": value})

    @pytest.mark.parametrize(
        "payload",
        [
            {"type": "x", "$buf": "<i8", "n": 0},
            {"type": "x", "v": {"$buf": "<i8", "n": 2}},
            {"type": "x", "v": {"n": 2, "$buf": "<i8"}, "w": np.arange(2)},
            {"type": "x", "w": np.arange(2), "v": [{"$buf": 1}]},
        ],
        ids=["top-level", "fake-descriptor", "second-key", "beside-an-array"],
    )
    def test_the_reserved_key_is_refused(self, payload):
        with pytest.raises(ValueError, match=r"reserved key '\$buf'"):
            encode_frame(payload)

    def test_the_reserved_word_as_a_value_or_inside_a_key_is_fine(self):
        payload = {"type": "x", "sql": "$buf", "a$buf": '"$buf":', "v": np.arange(2)}
        decoded = _roundtrip(payload)
        assert decoded["sql"] == "$buf" and decoded["a$buf"] == '"$buf":'
        assert decoded["v"].tolist() == [0, 1]


def _assert_same(decoded, sent):
    """Equal, and of the same type all the way down (arrays: same dtype and values)."""
    assert type(decoded) is type(sent), (decoded, sent)
    if isinstance(sent, dict):
        assert set(decoded) == set(sent)
        for key, value in sent.items():
            _assert_same(decoded[key], value)
    elif isinstance(sent, list):
        assert len(decoded) == len(sent)
        for got, value in zip(decoded, sent):
            _assert_same(got, value)
    elif isinstance(sent, np.ndarray):
        _assert_wire_array(decoded, sent)
    else:
        assert decoded == sent


def _bound_execute(**changes):
    return {"type": "execute", "statement": 4, "params": [10.25, -3.5], "id": 17, **changes}


def _one_result(**changes):
    columns = {"objid": np.arange(5, dtype=np.int64) * 7919, "ra": np.linspace(0.0, 1.0, 5)}
    return {"type": "result", "id": 17, "rowcount": 5, "cache_level": "batched",
            "batched": True, "columns": columns, **changes}


class TestBinaryLayouts:
    """A bound EXECUTE takes ``0x02``, a one-query RESULT ``0x03``; every other shape
    keeps JSON or columnar, and every payload round-trips with its types."""

    @pytest.mark.parametrize(
        "payload",
        [
            _bound_execute(),
            _bound_execute(params=[]),
            _bound_execute(params=[float("inf"), -0.0, 1e-300]),
            _bound_execute(id=2**63 - 1, statement=-(2**63)),
            _bound_execute(params=[0.5] * 0xFFFF),
        ],
        ids=["two", "none", "specials", "int64-edges", "u16-most"],
    )
    def test_a_bound_execute_takes_the_0x02_layout(self, payload):
        frame = encode_frame(payload)
        assert frame[4:5] == b"\x02"
        _assert_same(decode_frame(frame[4:]), payload)

    def test_the_bound_execute_byte_map(self):
        frame = encode_frame(_bound_execute())
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4 == 1 + 8 + 8 + 2 + 2 * 8
        assert struct.unpack(">BqqH2d", frame[4:]) == (2, 17, 4, 2, 10.25, -3.5)

    def test_a_nan_binding_crosses_the_binary_layout(self):
        decoded = decode_frame(encode_frame(_bound_execute(params=[float("nan")]))[4:])
        assert np.isnan(decoded["params"][0])

    @pytest.mark.parametrize(
        "payload",
        [
            _one_result(),
            _one_result(batched=False, cache_level="prepared", rowcount=0,
                        columns={"objid": np.empty(0, dtype=np.int64)}),
            _one_result(columns={dtype.str + str(k): (np.arange(3) % 2).astype(dtype)
                                 for k, dtype in enumerate(WIRE_DTYPES)}),
            _one_result(id=-(2**63), rowcount=2**63 - 1, cache_level="é" * 127),
            _one_result(columns={"ünï": np.arange(3, dtype=">u2")[::-1]}),
        ],
        ids=["two-columns", "empty", "every-dtype", "edges", "utf8-strided"],
    )
    def test_a_one_query_result_takes_the_0x03_layout(self, payload):
        frame = encode_frame(payload)
        assert frame[4:5] == b"\x03"
        _assert_same(decode_frame(frame[4:]), payload)

    def test_the_result_byte_map(self):
        objid = np.arange(3, dtype="<i8")
        frame = encode_frame(_one_result(rowcount=3, columns={"objid": objid}))
        body = frame[4:]
        assert struct.unpack(">I", frame[:4])[0] == len(body)
        assert struct.unpack_from(">BqqBB", body) == (3, 17, 3, 1, len("batched"))
        at = 19
        assert body[at:at + 7] == b"batched" and body[at + 7] == 1
        at += 8
        assert struct.unpack_from(">B3sq", body, at) == (5, b"<i8", 3)
        at += 12
        assert body[at:at + 5] == b"objid"
        assert body[at + 5:] == objid.tobytes()

    @pytest.mark.parametrize(
        "payload",
        [
            _bound_execute(params=[1, 2]),
            _bound_execute(params=[1.0, 2]),
            _bound_execute(params=[True, 2.0]),
            _bound_execute(params={"low": 1.0, "high": 2.0}),
            _bound_execute(params=[None]),
            _bound_execute(statement=True),
            _bound_execute(statement=1.0),
            _bound_execute(id=2**63),
            _bound_execute(id=-(2**63) - 1),
            _bound_execute(id=None),
            _bound_execute(id="a"),
            _bound_execute(params=[0.5] * 0x10000),
            _bound_execute(extra=1),
            {"type": "execute", "sql": "select 1", "params": [1.0, 2.0], "id": 3},
            {"type": "execute", "sql": "select v from t where v between 1 and 2", "id": 3},
            {"type": "execute", "statement": 4, "params": [1.0], "sql": "x", "id": 3},
            {"type": "executemany", "statement": 4, "params": [[1.0, 2.0]], "id": 3},
        ],
        ids=["int-params", "mixed-params", "bool-param", "named-params", "null-param",
             "bool-statement", "float-statement", "id-past-int64", "id-below-int64",
             "id-null", "id-string", "too-many-params", "extra-key", "sql-bound",
             "literal", "sql-and-statement", "executemany"],
    )
    def test_other_requests_keep_json(self, payload):
        frame = encode_frame(payload)
        assert frame[4:5] == b"{"
        _assert_same(decode_frame(frame[4:]), payload)

    @pytest.mark.parametrize(
        "payload, tag",
        [
            ({"type": "result", "id": 3, "rowcount": 1, "cache_level": "batched",
              "batched": False, "scalars": {"count(*)": 4.0}, "columns": {}}, b"{"),
            ({"type": "result", "id": 3, "results": [_one_result()]}, b"\x01"),
            ({"type": "error", "id": 3, "error": "ProgrammingError", "message": "m"}, b"{"),
            ({"type": "result", "id": 3, "value": {"a": [1, 2]}}, b"{"),
            (_one_result(columns={}), b"{"),
            (_one_result(id=2**63), b"\x01"),
            (_one_result(id=None), b"\x01"),
            (_one_result(rowcount=5.0), b"\x01"),
            (_one_result(batched=1), b"\x01"),
            (_one_result(cache_level=None), b"\x01"),
            (_one_result(cache_level="x" * 256), b"\x01"),
            (_one_result(cache_level="\ud800"), b"\x01"),
            (_one_result(columns={"x" * 256: np.arange(2)}), b"\x01"),
            (_one_result(columns={f"c{k}": np.arange(2) for k in range(256)}), b"\x01"),
            (_one_result(columns={"objid": [1, 2]}), b"{"),
            (_one_result(columns={"objid": np.arange(2), "n": 3}), b"\x01"),
            (_one_result(extra=1), b"\x01"),
            ({k: v for k, v in _one_result().items() if k != "batched"}, b"\x01"),
        ],
        ids=["scalars", "executemany", "error", "admin-value", "no-columns",
             "id-past-int64", "id-null", "float-rowcount", "int-batched", "null-level",
             "long-level", "surrogate-level", "long-name", "256-columns", "list-column",
             "scalar-column", "extra-key", "missing-key"],
    )
    def test_other_replies_keep_json_or_columnar(self, payload, tag):
        frame = encode_frame(payload)
        assert frame[4:5] == tag
        _assert_same(decode_frame(frame[4:]), payload)

    def test_a_protocol_2_hello_is_refused(self):
        from repro.server import ReproServer

        async def go():
            async with ReproServer(port=0) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(encode_frame({"type": "hello", "id": 1, "protocol": 2}))
                await writer.drain()
                reply = await read_frame(reader)
                trailer = await read_frame(reader)
                writer.close()
                return reply, trailer

        reply, trailer = asyncio.run(go())
        assert reply["type"] == "error" and reply["error"] == "ProgrammingError"
        assert reply["message"] == "protocol 2 not supported (server speaks 3)"
        assert trailer is None
