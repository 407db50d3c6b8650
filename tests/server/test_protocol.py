"""The length-prefixed JSON wire protocol: framing, limits, EOF semantics."""

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
        assert PROTOCOL_VERSION == 2


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
