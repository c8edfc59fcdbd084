"""Pickle-free wire format for inter-PE messages.

The :class:`~repro.engine.process.ProcessEngine` moves every message
through OS pipes, so payloads must be serialised.  ``pickle`` would work
but (a) it is slow for the numpy-array payloads that dominate the band
exchange, and (b) unpickling executes arbitrary constructors, which is an
unnecessary liability for what is structurally plain data.  This codec
instead supports exactly the closed set of types SPMD phases send —
``None``, booleans, integers, floats, strings, bytes, tuples, lists,
dicts, sets and C-contiguous numpy arrays/scalars — and round-trips them
bit-identically: numpy arrays come back with the same dtype and shape
backed by their raw buffer, and container kinds (tuple vs list) are
preserved so downstream algorithmic decisions cannot diverge between
engines.

Format: one type-tag byte, then a fixed-width ``struct`` payload or a
length-prefixed body; containers recurse.  Integers outside int64 fall
back to a length-prefixed big-int encoding.

:func:`decode` reads untrusted bytes (pipes, checkpoint files), so every
malformed frame — truncated, negative lengths, an array whose shape
disagrees with its body, object or unparseable dtypes, invalid UTF-8,
unhashable set members or dict keys — raises :class:`WireError` and
nothing else.
"""

from __future__ import annotations

import math
import re
import struct
from typing import Any, List

import numpy as np

__all__ = ["encode", "decode", "WireError"]


class WireError(TypeError):
    """Payload contains a type the wire format does not support, or a
    frame being decoded is malformed."""


_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"      # int64, struct <q
_T_BIGINT = b"I"   # length-prefixed signed big-endian
_T_FLOAT = b"f"    # struct <d
_T_STR = b"s"
_T_BYTES = b"b"
_T_TUPLE = b"t"
_T_LIST = b"l"
_T_DICT = b"d"
_T_SET = b"S"
_T_FROZENSET = b"Z"
_T_NDARRAY = b"a"
_T_NPSCALAR = b"n"

_Q = struct.Struct("<q")
_D = struct.Struct("<d")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: shape of every ``dtype.str`` the encoder emits (byte order, kind,
#: item size, optional datetime unit); anything else is malformed
_DTYPE_STR = re.compile(rb"[<>|=][a-zA-Z][0-9]+(\[[0-9a-zA-Z]+\])?")


def _encode_into(obj: Any, out: List[bytes]) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif obj is True:
        out.append(_T_TRUE)
    elif obj is False:
        out.append(_T_FALSE)
    elif type(obj) is int:
        if _INT64_MIN <= obj <= _INT64_MAX:
            out.append(_T_INT)
            out.append(_Q.pack(obj))
        else:
            body = obj.to_bytes((obj.bit_length() + 8) // 8 + 1,
                                "big", signed=True)
            out.append(_T_BIGINT)
            out.append(_Q.pack(len(body)))
            out.append(body)
    elif type(obj) is float:
        out.append(_T_FLOAT)
        out.append(_D.pack(obj))
    elif type(obj) is str:
        body = obj.encode("utf-8")
        out.append(_T_STR)
        out.append(_Q.pack(len(body)))
        out.append(body)
    elif type(obj) is bytes:
        out.append(_T_BYTES)
        out.append(_Q.pack(len(obj)))
        out.append(obj)
    elif type(obj) is tuple or type(obj) is list:
        out.append(_T_TUPLE if type(obj) is tuple else _T_LIST)
        out.append(_Q.pack(len(obj)))
        for item in obj:
            _encode_into(item, out)
    elif type(obj) is dict:
        out.append(_T_DICT)
        out.append(_Q.pack(len(obj)))
        for key, value in obj.items():
            _encode_into(key, out)
            _encode_into(value, out)
    elif type(obj) is set or type(obj) is frozenset:
        out.append(_T_SET if type(obj) is set else _T_FROZENSET)
        out.append(_Q.pack(len(obj)))
        # sets are unordered; serialise in a canonical order so identical
        # sets produce identical bytes on every PE
        for item in sorted(obj, key=repr):
            _encode_into(item, out)
    elif isinstance(obj, np.ndarray):
        # ascontiguousarray would promote 0-d to 1-d; keep the shape
        arr = obj if obj.flags.c_contiguous else np.ascontiguousarray(obj)
        dtype = arr.dtype.str.encode("ascii")
        out.append(_T_NDARRAY)
        out.append(_Q.pack(len(dtype)))
        out.append(dtype)
        out.append(_Q.pack(arr.ndim))
        for dim in arr.shape:
            out.append(_Q.pack(dim))
        body = arr.tobytes()
        out.append(_Q.pack(len(body)))
        out.append(body)
    elif isinstance(obj, (np.integer, np.floating, np.bool_)):
        dtype = obj.dtype.str.encode("ascii")
        body = obj.tobytes()
        out.append(_T_NPSCALAR)
        out.append(_Q.pack(len(dtype)))
        out.append(dtype)
        out.append(_Q.pack(len(body)))
        out.append(body)
    else:
        raise WireError(
            f"cannot serialise {type(obj).__name__!r} without pickle; "
            "SPMD messages must be built from None/bool/int/float/str/"
            "bytes/tuple/list/dict/set and numpy arrays"
        )


def encode(obj: Any) -> bytes:
    """Serialise ``obj`` to bytes (raises :class:`WireError` on
    unsupported types)."""
    out: List[bytes] = []
    _encode_into(obj, out)
    return b"".join(out)


class _Reader:
    __slots__ = ("buf", "pos")

    def __init__(self, buf: bytes) -> None:
        self.buf = memoryview(buf)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        end = self.pos + n
        if end > len(self.buf):
            raise WireError("truncated wire payload")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def take_int(self) -> int:
        return _Q.unpack(self.take(8))[0]

    def take_len(self) -> int:
        """A length, count or dimension: a non-negative int64."""
        n = self.take_int()
        if n < 0:
            raise WireError(f"negative length {n} in wire payload")
        return n

    def take_dtype(self) -> np.dtype:
        raw = bytes(self.take(self.take_len()))
        if _DTYPE_STR.fullmatch(raw) is None:
            raise WireError(f"malformed dtype {raw!r} in wire payload")
        try:
            dtype = np.dtype(raw.decode("ascii"))
        except (TypeError, ValueError):
            raise WireError(
                f"unknown dtype {raw!r} in wire payload") from None
        if dtype.hasobject or dtype.itemsize == 0:
            raise WireError(f"dtype {dtype} cannot cross the wire")
        return dtype


def _decode_from(r: _Reader) -> Any:
    tag = bytes(r.take(1))
    if tag == _T_NONE:
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    if tag == _T_INT:
        return r.take_int()
    if tag == _T_BIGINT:
        return int.from_bytes(r.take(r.take_len()), "big", signed=True)
    if tag == _T_FLOAT:
        return _D.unpack(r.take(8))[0]
    if tag == _T_STR:
        try:
            return str(r.take(r.take_len()), "utf-8")
        except UnicodeDecodeError:
            raise WireError("invalid UTF-8 in wire string") from None
    if tag == _T_BYTES:
        return bytes(r.take(r.take_len()))
    if tag in (_T_TUPLE, _T_LIST):
        items = [_decode_from(r) for _ in range(r.take_len())]
        return tuple(items) if tag == _T_TUPLE else items
    if tag == _T_DICT:
        pairs = [(_decode_from(r), _decode_from(r))
                 for _ in range(r.take_len())]
        return _hashed(dict, pairs)
    if tag in (_T_SET, _T_FROZENSET):
        items = [_decode_from(r) for _ in range(r.take_len())]
        return _hashed(set if tag == _T_SET else frozenset, items)
    if tag == _T_NDARRAY:
        dtype = r.take_dtype()
        shape = tuple(r.take_len() for _ in range(r.take_len()))
        body = r.take(r.take_len())
        if math.prod(shape) * dtype.itemsize != len(body):
            raise WireError(f"array body of {len(body)} bytes does not "
                            f"hold shape {shape} of {dtype}")
        try:
            arr = np.frombuffer(body, dtype=dtype).reshape(shape)
        except ValueError as exc:  # e.g. more dims than numpy supports
            raise WireError(f"bad array frame: {exc}") from None
        # copy out of the receive buffer so the array owns its memory
        return arr.copy()
    if tag == _T_NPSCALAR:
        dtype = r.take_dtype()
        body = r.take(r.take_len())
        if len(body) != dtype.itemsize:
            raise WireError(f"scalar body of {len(body)} bytes for {dtype}")
        return np.frombuffer(body, dtype=dtype)[0]
    raise WireError(f"unknown wire tag {tag!r}")


def _hashed(kind, items: list) -> Any:
    """Build a dict/set from decoded ``items``; a malformed frame can
    decode an unhashable key or member."""
    try:
        return kind(items)
    except TypeError as exc:
        raise WireError(f"unhashable entry in wire payload: {exc}") from None


def decode(buf: bytes) -> Any:
    """Inverse of :func:`encode`; raises :class:`WireError` on any
    malformed frame."""
    r = _Reader(buf)
    try:
        obj = _decode_from(r)
    except RecursionError:
        raise WireError("wire payload nested too deeply") from None
    if r.pos != len(r.buf):
        raise WireError("trailing bytes after wire payload")
    return obj
