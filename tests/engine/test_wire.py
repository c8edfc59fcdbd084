"""Round-trip tests for the pickle-free wire codec."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.wire import WireError, decode, encode


def roundtrip(obj):
    return decode(encode(obj))


class TestScalars:
    @pytest.mark.parametrize("obj", [
        None, True, False, 0, -1, 7, 2**62, -(2**62), 0.0, -3.25,
        float("inf"), 1e-300, "", "héllo ∆", b"", b"\x00\xff", "a" * 10_000,
    ])
    def test_roundtrip_identity(self, obj):
        out = roundtrip(obj)
        assert out == obj and type(out) is type(obj)

    def test_nan(self):
        out = roundtrip(float("nan"))
        assert isinstance(out, float) and np.isnan(out)

    def test_bigint_beyond_int64(self):
        for obj in (2**64, -(2**100), 2**63, -(2**63) - 1):
            assert roundtrip(obj) == obj

    def test_bool_is_not_int(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1 and roundtrip(1) is not True


class TestContainers:
    def test_tuple_vs_list_kind_preserved(self):
        assert roundtrip((1, 2)) == (1, 2)
        assert roundtrip([1, 2]) == [1, 2]
        assert type(roundtrip((1, [2, (3,)]))[1][1]) is tuple

    def test_dict_order_preserved(self):
        d = {"b": 1, "a": [2, None], 3: (True,)}
        out = roundtrip(d)
        assert out == d and list(out) == list(d)

    def test_sets(self):
        assert roundtrip({1, 2, 3}) == {1, 2, 3}
        out = roundtrip(frozenset({4, 5}))
        assert out == frozenset({4, 5}) and isinstance(out, frozenset)

    def test_set_encoding_is_canonical(self):
        # identical sets built in different orders → identical bytes
        a = set([3, 1, 2]); b = set([2, 3, 1])
        assert encode(a) == encode(b)

    def test_deep_nesting(self):
        obj = {"xs": [(i, {"w": float(i)}) for i in range(50)],
               "meta": {"tags": {1, 2}, "name": "band"}}
        assert roundtrip(obj) == obj


class TestNumpy:
    @pytest.mark.parametrize("dtype", ["<i8", "<i4", "<f8", "<f4", "|b1",
                                       "<u2"])
    def test_array_dtype_shape_values(self, dtype):
        arr = np.arange(24).reshape(2, 3, 4).astype(dtype)
        out = roundtrip(arr)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_empty_and_zero_d(self):
        assert roundtrip(np.empty(0, dtype=np.int64)).shape == (0,)
        z = roundtrip(np.array(5.0))
        assert z.shape == () and z == 5.0

    def test_decoded_array_owns_its_memory(self):
        out = roundtrip(np.arange(10))
        out[0] = 99  # would raise if still a view on the receive buffer
        assert out[0] == 99

    def test_non_contiguous_input(self):
        arr = np.arange(20).reshape(4, 5)[:, ::2]
        assert np.array_equal(roundtrip(arr), arr)

    def test_numpy_scalars(self):
        for s in (np.int64(-7), np.float32(1.5), np.bool_(True),
                  np.uint8(255)):
            out = roundtrip(s)
            assert out == s and out.dtype == s.dtype

    def test_arrays_inside_containers(self):
        obj = [(0, np.arange(4)), {"part": np.zeros(3, dtype=np.int32)}]
        out = roundtrip(obj)
        assert np.array_equal(out[0][1], np.arange(4))
        assert out[1]["part"].dtype == np.int32


class TestErrors:
    def test_unsupported_type(self):
        with pytest.raises(WireError):
            encode(object())
        with pytest.raises(WireError):
            encode({"fn": lambda: 0})

    def test_truncated_payload(self):
        data = encode([1, 2, 3])
        with pytest.raises(WireError):
            decode(data[:-3])

    def test_trailing_garbage(self):
        with pytest.raises(WireError):
            decode(encode(1) + b"x")

    def test_unknown_tag(self):
        with pytest.raises(WireError):
            decode(b"\x7f")


def _q(n):
    return struct.pack("<q", n)


def _array_frame(dtype, shape, body):
    """Hand-built ndarray frame: tag, dtype, ndim, dims, body."""
    return (b"a" + _q(len(dtype)) + dtype + _q(len(shape))
            + b"".join(_q(d) for d in shape) + _q(len(body)) + body)


class TestMalformedFrames:
    """Every malformed frame raises WireError — the process engine and
    the checkpoint loader catch exactly that."""

    def test_shape_disagrees_with_body(self):
        with pytest.raises(WireError):
            decode(_array_frame(b"<i8", (3,), bytes(16)))

    def test_object_dtype(self):
        with pytest.raises(WireError):
            decode(_array_frame(b"|O", (1,), bytes(8)))

    def test_unparseable_dtype(self):
        with pytest.raises(WireError):
            decode(_array_frame(b"<zz", (1,), bytes(8)))

    def test_empty_numpy_scalar_body(self):
        with pytest.raises(WireError):
            decode(b"n" + _q(3) + b"<i8" + _q(0))

    def test_negative_dimension(self):
        with pytest.raises(WireError):
            decode(_array_frame(b"<i8", (-1,), bytes(16)))

    def test_negative_length(self):
        with pytest.raises(WireError):
            decode(b"l" + _q(-2))
        with pytest.raises(WireError):
            decode(b"s" + _q(-1) + b"x")

    def test_invalid_utf8(self):
        with pytest.raises(WireError):
            decode(b"s" + _q(2) + b"\xff\xfe")

    def test_unhashable_set_member_and_dict_key(self):
        with pytest.raises(WireError):
            decode(b"S" + _q(1) + encode([1]))
        with pytest.raises(WireError):
            decode(b"d" + _q(1) + encode([1]) + encode(2))

    def test_deep_nesting(self):
        with pytest.raises(WireError):
            decode((b"l" + _q(1)) * 100_000 + encode(None))

    def test_well_formed_arrays_still_decode(self):
        assert decode(_array_frame(b"<i8", (2, 0), b"")).shape == (2, 0)
        assert decode(_array_frame(b"<i4", (2,), bytes(8))).tolist() == [0, 0]


json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20) | st.binary(max_size=20),
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=25,
)


@given(json_like)
@settings(max_examples=120, deadline=None)
def test_property_roundtrip(obj):
    assert roundtrip(obj) == obj


payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=20) | st.binary(max_size=20)
    | st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
    | st.builds(np.arange, st.integers(0, 6)),
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.frozensets(st.integers() | st.text(max_size=5), max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=25,
)


def _decodes_or_wire_error(data):
    try:
        decode(data)
    except WireError:
        pass


@given(payloads, st.data())
@settings(max_examples=200, deadline=None)
def test_property_truncation_or_flip_raises_only_wire_error(obj, data):
    """A truncated frame or one with a single byte flipped either decodes
    or raises WireError — never any other exception."""
    buf = encode(obj)
    cut = data.draw(st.integers(0, len(buf) - 1), label="cut")
    _decodes_or_wire_error(buf[:cut])
    pos = data.draw(st.integers(0, len(buf) - 1), label="pos")
    byte = data.draw(st.integers(0, 255), label="byte")
    _decodes_or_wire_error(buf[:pos] + bytes([byte]) + buf[pos + 1:])
