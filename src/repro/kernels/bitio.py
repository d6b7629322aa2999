"""Vectorised bit-stream packing/unpacking helpers.

Every codec in :mod:`repro.kernels` works on whole arrays at a time, never
value-by-value, following the data-parallel formulation of the GPU kernels
they model.  This module provides the shared primitives:

* :func:`pack_varlen` / :func:`unpack_windows` — pack per-symbol variable
  length codes into a byte stream (the core of the Huffman encoder) and read
  a fixed-width window at *every* bit offset of a stream (the core of the
  segmented Huffman decoder).  Both work in word lanes, not bits:
  ``pack_varlen`` places each code at its bit offset inside the 64-bit
  big-endian word it starts in, ORs the codes that start in the same word
  together with one ``bitwise_or.reduceat``, and ORs the spill of each
  word's last code into the next word; ``unpack_windows`` builds one
  32-bit big-endian word per *byte* and shifts it eight ways, one per bit
  phase.  Neither materialises an array with one element per bit.
* :func:`pack_fixed` / :func:`unpack_fixed` — pack ``n`` values of a uniform
  bit width (cuSZp2-style fixed-length blocks).

All functions operate on little-endian *bit order within a byte being MSB
first* (``np.packbits`` convention), which keeps round-trips exact.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError


def pack_varlen(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length codes into a packed byte string.

    Parameters
    ----------
    codes:
        ``uint32`` array; element ``i`` holds the code value for symbol ``i``
        right-aligned (only the low ``lengths[i]`` bits are meaningful).
    lengths:
        per-symbol bit lengths, ``1 <= lengths[i] <= 32``.

    Returns
    -------
    (payload, total_bits):
        the packed bytes (zero-padded to a byte boundary) and the exact
        number of meaningful bits.
    """
    codes = np.asarray(codes, dtype=np.uint32)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape or codes.ndim != 1:
        raise CodecError("codes and lengths must be 1-D arrays of equal shape")
    if codes.size == 0:
        return b"", 0
    max_len = int(lengths.max())
    if lengths.min() < 1 or max_len > 32:
        raise CodecError("code lengths must be in [1, 32]")

    lens = lengths.astype(np.uint64)
    pos = np.cumsum(lens)
    total_bits = int(pos[-1])
    pos -= lens                            # start bit of every code
    word = pos >> np.uint64(6)
    # every code at the top of a 64-bit value, which also drops any bits
    # above its length, then down to its bit offset inside its word
    top = codes.astype(np.uint64)
    top <<= np.subtract(np.uint64(64), lens, out=lens)
    pos &= np.uint64(63)
    head = top >> pos
    # codes are in stream order, so the ones starting in the same word
    # form runs; their bits do not overlap and OR into one word per run
    run = np.flatnonzero(word[1:] != word[:-1])
    run += 1
    last = np.append(run - 1, word.size - 1)   # last code of every run
    run = np.concatenate(([0], run))
    first_word = word[run].astype(np.int64)
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    words[first_word] = np.bitwise_or.reduceat(head, run)
    # only a run's last code can spill into the next word: its bits below
    # the word end (two shifts, since a shift by 64 is undefined)
    words[first_word + 1] |= ((top[last] << (np.uint64(63) - pos[last]))
                              << np.uint64(1))
    # big-endian words are the MSB-first byte stream
    nbytes = (total_bits + 7) // 8
    return words.byteswap().view(np.uint8)[:nbytes].tobytes(), total_bits


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a 0/1 ``uint8`` bit array (MSB-first) into bytes."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def bytes_to_bits(payload: bytes, total_bits: int) -> np.ndarray:
    """Unpack bytes to a 0/1 ``uint8`` array of exactly ``total_bits``."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    if bits.size < total_bits:
        raise CodecError(f"payload holds {bits.size} bits, need {total_bits}")
    return bits[:total_bits]


def unpack_windows(payload: bytes, total_bits: int, width: int) -> np.ndarray:
    """Read a ``width``-bit big-endian window starting at *every* bit offset.

    Returns a ``uint32`` array ``w`` of length ``total_bits`` where ``w[p]``
    is the value of bits ``p .. p+width-1`` of the stream (bits past the end
    read as zero).  This is the enabling primitive for the segmented
    canonical-Huffman decoder in :mod:`repro.kernels.huffman`: a decode
    table indexed by ``w[p]`` yields the symbol and code length at offset
    ``p`` for all ``p`` simultaneously.

    One 32-bit big-endian word is built per *byte* of the stream; the
    window at bit ``8k + j`` is that word of byte ``k`` shifted right by
    ``32 - width - j``, so the result is the ``(nbytes, 8)`` array of the
    eight bit phases, flattened.
    """
    if width < 1 or width > 24:
        raise CodecError("window width must be in [1, 24]")
    if total_bits == 0:
        return np.zeros(0, dtype=np.uint32)
    nbytes = (total_bits + 7) // 8
    raw = np.frombuffer(payload, dtype=np.uint8)[:nbytes]
    # three zero bytes of padding so every word read is in bounds
    b = np.zeros(nbytes + 3, dtype=np.uint32)
    b[:raw.size] = raw
    word = b[:nbytes] << 24
    word |= b[1:nbytes + 1] << 16
    word |= b[2:nbytes + 2] << 8
    word |= b[3:nbytes + 3]
    shifts = np.arange(32 - width, 24 - width, -1, dtype=np.uint32)
    win = word[:, None] >> shifts
    win &= np.uint32((1 << width) - 1)
    return win.reshape(-1)[:total_bits]


def pack_fixed(values: np.ndarray, width: int) -> bytes:
    """Pack ``values`` (non-negative ints ``< 2**width``) at a fixed width.

    ``width`` may be 0, in which case the payload is empty (all values are
    implicitly zero) — this is the common case for cuSZp2's all-predictable
    blocks.
    """
    values = np.asarray(values)
    if width == 0:
        if values.size and int(values.max(initial=0)) != 0:
            raise CodecError("width 0 requires all-zero values")
        return b""
    if width < 0 or width > 32:
        raise CodecError("fixed width must be in [0, 32]")
    v = values.astype(np.uint32)
    if v.size and int(v.max()) >> width:
        raise CodecError(f"value does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    bits = ((v[:, None] >> shifts[None, :]) & np.uint32(1)).astype(np.uint8)
    return np.packbits(bits.reshape(-1)).tobytes()


def unpack_fixed(payload: bytes, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_fixed`: read ``count`` ``width``-bit values."""
    if width == 0:
        return np.zeros(count, dtype=np.uint32)
    total_bits = count * width
    bits = bytes_to_bits(payload, total_bits).reshape(count, width).astype(np.uint32)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint32)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint32)


def required_width(values: np.ndarray) -> int:
    """Smallest bit width able to represent every value of ``values``."""
    values = np.asarray(values)
    if values.size == 0:
        return 0
    m = int(values.max(initial=0))
    if m < 0 or int(values.min(initial=0)) < 0:
        raise CodecError("required_width expects non-negative values")
    return int(m).bit_length()
