"""Bit-packing primitives (pure NumPy, vectorized — no per-value Python loop).

Layout is *chunked bit-plane major*: values are processed in chunks of
``CHUNK`` (multiple of 8); within a chunk, plane b holds bit b of every
value, planes concatenated then packed little-endian with ``np.packbits``.
Every array op is contiguous, and the per-chunk scratch buffers are cached
at module level — allocated and pre-faulted on first use in each worker
process, so the cost of first-touch page faults (pathological on this
kernel for ~100MB buffers) is paid once, not per block. ``width == 0``
encodes a constant-zero array in zero bytes.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 20  # values per packing chunk (multiple of 8)

_scratch_bits: np.ndarray | None = None
_scratch_tmp: np.ndarray | None = None


def _prefaulted(shape, dtype) -> np.ndarray:
    a = np.empty(shape, dtype=dtype)
    # pre-fault every page now: first-touch page faults are pathologically
    # slow on this kernel, so pay them once per process, off the hot path
    a.fill(0)
    return a


def _bits_scratch(width: int) -> np.ndarray:
    global _scratch_bits
    if _scratch_bits is None or _scratch_bits.shape[0] < width:
        _scratch_bits = _prefaulted((max(width, 24), CHUNK), np.uint8)
    return _scratch_bits


def _tmp_scratch(n: int) -> np.ndarray:
    """A uint64 buffer of at least ``min(n, CHUNK)`` values. Sized by the
    largest chunk seen, and apart from the packing planes, so a process
    that only decodes small blocks holds a small buffer."""
    global _scratch_tmp
    n = min(n, CHUNK)
    if _scratch_tmp is None or _scratch_tmp.shape[0] < n:
        _scratch_tmp = _prefaulted(n, np.uint64)
    return _scratch_tmp


def bit_width(max_val: int) -> int:
    """Number of bits needed to represent ``max_val`` (>= 0)."""
    if max_val < 0:
        raise ValueError("bit_width requires non-negative input")
    return int(max_val).bit_length()


def pack_bits(vals: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into ``width`` bits each."""
    if width == 0:
        return b""
    if width > 64:
        raise ValueError(f"width {width} > 64")
    v = np.ascontiguousarray(vals, dtype=np.uint64)
    n = v.size
    if n == 0:
        return b""
    bits, tmp = _bits_scratch(width), _tmp_scratch(n)
    parts: list[bytes] = []
    for s in range(0, n, CHUNK):
        c = min(CHUNK, n - s)
        vc = v[s:s + c]
        tc = tmp[:c]
        for b in range(width):
            # NB: plain-int scalar operands — numpy uint64-scalar operands
            # take a ~20x slower buffered path
            np.right_shift(vc, b, out=tc)
            np.bitwise_and(tc, 1, out=tc)
            bits[b, :c] = tc
        block = bits[:width, :c]
        flat = block.reshape(-1) if c == CHUNK else np.ascontiguousarray(block).reshape(-1)
        parts.append(np.packbits(flat, bitorder="little").tobytes())
    return b"".join(parts)


def unpack_bits(buf: bytes | memoryview, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`; returns uint64 array of length ``n``."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    raw = np.frombuffer(buf, dtype=np.uint8)
    out = np.empty(n, dtype=np.uint64)
    tmp = _tmp_scratch(n)
    pos = 0
    for s in range(0, n, CHUNK):
        c = min(CHUNK, n - s)
        nbytes = (width * c + 7) // 8
        planes = np.unpackbits(raw[pos:pos + nbytes], count=width * c,
                               bitorder="little").reshape(width, c)
        pos += nbytes
        oc = out[s:s + c]
        oc[:] = 0
        tc = tmp[:c]
        for b in range(width):
            np.left_shift(planes[b].astype(np.uint64), b, out=tc)
            np.bitwise_or(oc, tc, out=oc)
    return out
