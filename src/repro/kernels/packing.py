"""b-bit band-key packing (Li & König's b-bit minwise hashing).

Signatures stay full 64-bit in memory and on disk — the containment
estimator and the persistence format are untouched.  What b-bit packing
changes is the *bucket keys*: instead of storing each depth-``r`` band
prefix as ``r`` uint64 lanes (8 bytes each), only the low ``b`` bits of
each hash value are kept, so a key shrinks 8x (``bbit=8``) or 4x
(``bbit=16``).  At 10M-domain scale the bucket-key bytes dominate the
probe path's memory traffic, so this is a direct bandwidth cut.

The trade-off is more hash collisions per bucket key: packed buckets can
only *gain* members relative to unpacked ones, so recall never drops
(the recall-parity harness in ``tests/kernels/`` pins this against the
Figure 4–7 eval metrics) while precision may dip slightly.  ``bbit`` is
recorded in the v2 snapshot header; absent means unpacked, which keeps
every pre-existing snapshot loadable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BBIT_CHOICES", "band_dtype", "validate_bbit", "pack_row",
           "pack_block", "lanes_from_bytes"]

#: Supported packings: None keeps full uint64 lanes.
BBIT_CHOICES = (None, 8, 16)

_DTYPES = {None: np.dtype(np.uint64), 8: np.dtype(np.uint8),
           16: np.dtype(np.uint16)}


def validate_bbit(bbit) -> int | None:
    """Normalise/validate a ``bbit`` setting (None, 8 or 16)."""
    if bbit is None:
        return None
    bbit = int(bbit)
    if bbit not in _DTYPES:
        raise ValueError(
            "bbit must be one of %s, got %r"
            % (sorted(b for b in BBIT_CHOICES if b), bbit))
    return bbit


def band_dtype(bbit) -> np.dtype:
    """The band-key lane dtype for a ``bbit`` setting."""
    return _DTYPES[validate_bbit(bbit)]


def pack_row(hashvalues: np.ndarray, start: int, stop: int,
             dtype: np.dtype) -> bytes:
    """One signature's packed band key for columns ``[start, stop)``.

    With ``dtype`` uint64 this equals ``LeanMinHash.band``; narrower
    dtypes truncate each hash to its low bits (C-cast semantics).
    """
    band = hashvalues[start:stop]
    if dtype.itemsize != 8:
        band = band.astype(dtype)
    return np.ascontiguousarray(band).tobytes()


def pack_block(matrix: np.ndarray, start: int, stop: int,
               dtype: np.dtype) -> bytes:
    """Packed band keys for every row of a signature matrix, as one
    concatenated buffer of ``(stop - start) * dtype.itemsize``-byte
    keys (``pack_row`` of every row, back to back)."""
    block = matrix[:, start:stop]
    if dtype.itemsize != 8:
        block = block.astype(dtype)
    return np.ascontiguousarray(block).tobytes()


def lanes_from_bytes(buf: bytes | memoryview, n: int,
                     stride: int) -> np.ndarray:
    """The uint64 hash lanes of ``n`` packed ``stride``-byte keys.

    8-byte-aligned keys are viewed directly; b-bit packed keys (stride
    not a multiple of 8) are widened byte-wise, so one FNV kernel can
    hash keys of either layout.
    """
    if stride % 8 == 0:
        return np.frombuffer(buf, dtype=np.uint64).reshape(n, stride // 8)
    return np.frombuffer(buf, dtype=np.uint8).reshape(
        n, stride).astype(np.uint64)
