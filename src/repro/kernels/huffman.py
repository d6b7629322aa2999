"""Canonical Huffman codec with chunked, segmented decoding.

This models cuSZ's Huffman stage faithfully in structure:

* **Length-limited optimal codebook** via the package-merge algorithm
  (max code length 16 by default), built from a histogram supplied by one
  of the :mod:`repro.kernels.histogram` modules.
* **Canonical code assignment** so the codebook serialises as one byte of
  code length per symbol.
* **Coarse-grained chunking**: symbols are encoded in independent,
  byte-aligned chunks (as cuSZ does for its GPU codec) so chunks can be
  decoded concurrently and memory stays bounded.  Codes are packed by
  :func:`repro.kernels.bitio.pack_varlen` in 64-bit word lanes.
* **Segmented self-synchronising decoder**: within a chunk, a decode
  table indexed by the ``max_len``-bit window at *every* bit offset
  yields the code length at every offset, hence ``nxt[p]``, the offset
  of the symbol after one starting at ``p``.  The chunk is cut into
  segments of a few thousand bits and one walker per segment follows
  ``nxt`` from the segment's first bit, all walkers in lockstep with one
  gather per step.  Only the first walker starts on a symbol boundary,
  but Huffman codes self-synchronise: continued past its segment,
  every walker soon lands on an offset the next walker visited, and from
  there the two walks agree, so the walks stitch into the exact boundary
  chain (see :func:`_segment_walk`).  Books whose walks never merge —
  every code of length 6, say — fall back to pointer doubling over
  ``nxt`` (``ceil(log2(n))`` vectorised gathers).  This is the NumPy
  analogue of the self-synchronising parallel Huffman decoders on GPUs.

Encoding and decoding are exact inverses for arbitrary symbol streams.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import CodecError
from ..obs.spans import span
from ..runtime.threads import active_threads, run_slabs
from .bitio import pack_varlen, unpack_windows
from .plancache import CODEBOOK_CACHE, DECODE_TABLE_CACHE, digest

#: Default maximum code length; keeps the decode table at 2**16 entries.
DEFAULT_MAX_LEN = 16

#: Default symbols per chunk (cuSZ-style coarse grains).
DEFAULT_CHUNK = 1 << 20


def _huffman_lengths_unbounded(counts: np.ndarray) -> np.ndarray:
    """Classic heap-built Huffman code lengths (no length limit).

    Used only to decide whether package-merge is needed and in tests as a
    reference; zero-count symbols get length 0.
    """
    sym = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.int64)
    if sym.size == 0:
        raise CodecError("cannot build a codebook from an empty histogram")
    if sym.size == 1:
        lengths[sym[0]] = 1
        return lengths
    heap: list[tuple[int, int, list[int]]] = [
        (int(counts[s]), int(s), [int(s)]) for s in sym]
    heapq.heapify(heap)
    tie = counts.size
    while len(heap) > 1:
        w1, _, s1 = heapq.heappop(heap)
        w2, _, s2 = heapq.heappop(heap)
        lengths[s1] += 1
        lengths[s2] += 1
        heapq.heappush(heap, (w1 + w2, tie, s1 + s2))
        tie += 1
    return lengths


def package_merge_lengths(counts: np.ndarray, max_len: int) -> np.ndarray:
    """Optimal length-limited code lengths (package-merge).

    Returns an array of code lengths (0 for zero-count symbols) satisfying
    the Kraft inequality with ``max(lengths) <= max_len``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    sym = np.flatnonzero(counts)
    n = sym.size
    if n == 0:
        raise CodecError("cannot build a codebook from an empty histogram")
    lengths = np.zeros(counts.size, dtype=np.int64)
    if n == 1:
        lengths[sym[0]] = 1
        return lengths
    if n > (1 << max_len):
        raise CodecError(f"{n} symbols cannot be coded with max length {max_len}")

    # Each item is (weight, frozenset-of-leaf-ids represented as a counter).
    # We track per-leaf multiplicity with integer arrays for speed.
    order = sym[np.argsort(counts[sym], kind="stable")]
    base_w = counts[order].astype(np.int64)

    # items at each level: list of (weight, leaf_multiplicity_vector_index)
    # To stay O(n * max_len) in memory we represent each package as an index
    # tree: (weight, left_child, right_child, leaf_id) with leaf_id >= 0 for
    # leaves.  Lengths = number of solution items containing each leaf.
    weights = list(base_w)
    lefts = [-1] * n
    rights = [-1] * n
    leaf_of = list(range(n))

    def make_package(a: int, b: int) -> int:
        weights.append(weights[a] + weights[b])
        lefts.append(a)
        rights.append(b)
        leaf_of.append(-1)
        return len(weights) - 1

    prev_level: list[int] = list(range(n))  # node ids, sorted by weight
    for _ in range(max_len - 1):
        packages = [make_package(prev_level[i], prev_level[i + 1])
                    for i in range(0, len(prev_level) - 1, 2)]
        merged = sorted(list(range(n)) + packages, key=lambda i: weights[i])
        prev_level = merged

    take = 2 * n - 2
    counts_per_leaf = np.zeros(n, dtype=np.int64)
    stack = list(prev_level[:take])
    while stack:
        node = stack.pop()
        lid = leaf_of[node]
        if lid >= 0:
            counts_per_leaf[lid] += 1
        else:
            stack.append(lefts[node])
            stack.append(rights[node])
    lengths[order] = counts_per_leaf
    if int(lengths.max()) > max_len:  # pragma: no cover - algorithmic guard
        raise CodecError("package-merge produced an over-long code")
    return lengths


@dataclass
class Codebook:
    """Canonical Huffman codebook.

    ``lengths[s] == 0`` marks symbols absent from the stream.  Codes are
    assigned canonically (sorted by ``(length, symbol)``), so the whole book
    serialises as the lengths array alone.
    """

    lengths: np.ndarray
    max_len: int = DEFAULT_MAX_LEN
    _codes: np.ndarray | None = field(default=None, repr=False)
    _table_sym: np.ndarray | None = field(default=None, repr=False)
    _table_len: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)
        if self.lengths.ndim != 1:
            raise CodecError("codebook lengths must be 1-D")
        if self.lengths.size and int(self.lengths.max()) > self.max_len:
            raise CodecError("codebook length exceeds max_len")
        # Kraft inequality check for any non-trivial book.
        nz = self.lengths[self.lengths > 0].astype(np.int64)
        if nz.size:
            kraft = float((2.0 ** (-nz.astype(np.float64))).sum())
            if kraft > 1.0 + 1e-9:
                raise CodecError(f"codebook violates Kraft inequality ({kraft})")

    @property
    def num_bins(self) -> int:
        return int(self.lengths.size)

    @property
    def codes(self) -> np.ndarray:
        """Canonical code value per symbol (``uint32``, right-aligned)."""
        if self._codes is None:
            lengths = self.lengths.astype(np.int64)
            codes = np.zeros(lengths.size, dtype=np.uint32)
            order = np.lexsort((np.arange(lengths.size), lengths))
            order = order[lengths[order] > 0]
            code = 0
            prev_len = 0
            for s in order:
                ln = int(lengths[s])
                code <<= (ln - prev_len)
                codes[s] = code
                code += 1
                prev_len = ln
            self._codes = codes
        return self._codes

    def decode_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense decode tables indexed by a ``max_len``-bit window.

        ``table_sym[w]`` is the symbol whose code prefixes window ``w``;
        ``table_len[w]`` its code length (0 for windows reachable only past
        the end of a stream).
        """
        if self._table_sym is None:
            L = self.max_len
            tsym = np.zeros(1 << L, dtype=np.uint32)
            tlen = np.zeros(1 << L, dtype=np.uint8)
            lengths = self.lengths.astype(np.int64)
            codes = self.codes
            for s in np.flatnonzero(lengths):
                ln = int(lengths[s])
                lo = int(codes[s]) << (L - ln)
                hi = lo + (1 << (L - ln))
                tsym[lo:hi] = s
                tlen[lo:hi] = ln
            self._table_sym, self._table_len = tsym, tlen
        return self._table_sym, self._table_len


def _build_codebook_uncached(counts: np.ndarray, max_len: int) -> Codebook:
    unbounded = _huffman_lengths_unbounded(counts)
    if int(unbounded.max()) <= max_len:
        lengths = unbounded
    else:
        lengths = package_merge_lengths(counts, max_len)
    return Codebook(lengths=lengths, max_len=max_len)


def build_codebook(counts: np.ndarray, max_len: int = DEFAULT_MAX_LEN, *,
                   cache: bool = True) -> Codebook:
    """Build an optimal length-limited canonical codebook from a histogram.

    Codebooks are value-objects derived purely from the histogram, so they
    are served from a content-addressed plan cache keyed by the histogram
    digest: repeated compression of fields with identical code statistics
    (the warm serving path, and every shard of a repeated sharded run)
    skips the package-merge entirely.  Pass ``cache=False`` to force a
    fresh build (the cold-path baseline the perf harness measures).
    """
    counts = np.asarray(counts, dtype=np.int64)
    with span("kernel.huffman.build_codebook", bins=int(counts.size),
              bytes_in=int(counts.nbytes)) as sp:
        if not cache:
            book = _build_codebook_uncached(counts, max_len)
        else:
            key = (digest(counts), int(max_len))
            book = CODEBOOK_CACHE.get_or_build(
                key, lambda: _build_codebook_uncached(counts, max_len),
                nbytes=lambda book: int(book.lengths.nbytes) + 64)
        sp.set(bytes_out=int(book.lengths.nbytes))
        return book


def warm_decode_book(lengths: np.ndarray, max_len: int, *,
                     cache: bool = True) -> Codebook:
    """A :class:`Codebook` with canonical codes and dense decode tables
    already materialised, served from the plan cache.

    The ``2**max_len``-entry decode tables are the dominant per-call
    setup cost of :func:`decode`; keying them by the digest of the
    serialised lengths array means every container written with the same
    codebook (all shards of a shared-codebook run, every re-read of the
    same blob) shares one table pair.
    """
    def build() -> Codebook:
        # copy so a cached book never pins a caller's blob-backed view
        book = Codebook(lengths=np.array(lengths, dtype=np.uint8),
                        max_len=max_len)
        book.codes  # noqa: B018 - materialise the canonical codes
        book.decode_tables()
        return book

    if not cache:
        return build()
    key = (digest(np.ascontiguousarray(lengths)), int(max_len))
    return DECODE_TABLE_CACHE.get_or_build(
        key, build,
        nbytes=lambda book: int(book._table_sym.nbytes
                                + book._table_len.nbytes
                                + book.codes.nbytes + book.lengths.nbytes))


@dataclass(frozen=True)
class HuffmanEncoded:
    """A Huffman-encoded symbol stream.

    Attributes
    ----------
    payload:
        concatenation of byte-aligned chunk payloads.
    chunk_symbols / chunk_bits:
        per-chunk symbol counts and meaningful bit counts (chunks start at
        byte boundaries: chunk ``i`` begins at byte
        ``sum(ceil(chunk_bits[:i] / 8))``).
    count:
        total number of symbols.
    lengths:
        codebook serialisation (code length per symbol).
    max_len:
        codebook length limit.
    """

    payload: bytes
    chunk_symbols: np.ndarray
    chunk_bits: np.ndarray
    count: int
    lengths: np.ndarray
    max_len: int

    def nbytes(self) -> int:
        """Serialised footprint (payload + tables + codebook)."""
        return (len(self.payload) + self.chunk_symbols.nbytes
                + self.chunk_bits.nbytes + self.lengths.nbytes)


def encode_empty(num_bins: int, max_len: int = DEFAULT_MAX_LEN
                 ) -> HuffmanEncoded:
    """The canonical encoding of an empty symbol stream (no codebook).

    Predictors can legitimately emit zero codes (e.g. a one-element field
    where the single value is an interpolation anchor); encoders must
    round-trip that case.
    """
    return HuffmanEncoded(payload=b"",
                          chunk_symbols=np.zeros(0, dtype=np.int64),
                          chunk_bits=np.zeros(0, dtype=np.int64),
                          count=0,
                          lengths=np.zeros(num_bins, dtype=np.uint8),
                          max_len=max_len)


def encode(symbols: np.ndarray, book: Codebook,
           chunk: int = DEFAULT_CHUNK) -> HuffmanEncoded:
    """Encode a symbol array with a canonical codebook, in chunks.

    Every call packs in full: only the codebook (a small, histogram-keyed
    plan) is shared between calls, never a previous call's output.
    """
    symbols = np.ascontiguousarray(np.asarray(symbols).reshape(-1))
    with span("kernel.huffman.encode", symbols=int(symbols.size),
              bytes_in=int(symbols.nbytes)) as sp:
        if symbols.size and int(symbols.max()) >= book.num_bins:
            raise CodecError("symbol out of codebook range")
        lengths_lut = book.lengths.astype(np.int64)
        if symbols.size and bool((lengths_lut[symbols] == 0).any()):
            raise CodecError(
                "stream contains a symbol absent from the histogram")
        codes_lut = book.codes
        starts = [s for s in range(0, max(symbols.size, 1), chunk)
                  if symbols[s:s + chunk].size]

        def pack_chunk(start: int) -> tuple[bytes, int, int]:
            part = symbols[start:start + chunk]
            payload, nbits = pack_varlen(codes_lut[part], lengths_lut[part])
            return payload, part.size, nbits

        # chunks are independent by format (byte-aligned, own bit counts):
        # under a thread budget they pack concurrently on the slab pool and
        # are spliced in chunk order — byte-identical to the serial loop
        budget = active_threads()
        if budget > 1 and len(starts) > 1:
            packed = run_slabs(pack_chunk, starts, threads=budget)
        else:
            packed = [pack_chunk(start) for start in starts]
        enc = HuffmanEncoded(
            payload=b"".join(p for p, _, _ in packed),
            chunk_symbols=np.asarray([n for _, n, _ in packed],
                                     dtype=np.int64),
            chunk_bits=np.asarray([b for _, _, b in packed], dtype=np.int64),
            count=int(symbols.size),
            lengths=book.lengths.copy(),
            max_len=book.max_len)
        sp.set(bytes_out=len(enc.payload))
        return enc


#: Bits per lockstep walker of the segmented decoder.  Chunks shorter
#: than ``_MIN_WALKERS`` segments use shorter segments, down to
#: ``_MIN_SEGMENT_BITS``, so a small chunk is not one long serial walk.
#: Segment lengths are multiples of 64, so in a book whose codes all
#: share one power-of-two length every walker starts on a boundary.
_SEGMENT_BITS = 4096
_MIN_SEGMENT_BITS = 512
_MIN_WALKERS = 64

#: Windows per decode-table lookup block.
_LOOKUP_BLOCK = 1 << 16


def _segment_bits(nbits: int) -> int:
    """Segment length the decoder uses for a chunk of ``nbits`` bits."""
    return max(_MIN_SEGMENT_BITS,
               min(_SEGMENT_BITS, nbits // _MIN_WALKERS // 64 * 64))


def _segment_walk(nxt: np.ndarray, nbits: int,
                  min_len: int) -> np.ndarray | None:
    """Symbol start offsets of a chunk, found by walking its segments in
    lockstep; ``None`` if some walker fails to resynchronise.

    ``nxt[p]`` is the offset of the symbol after one starting at ``p``
    (parked at ``nbits``), at least ``min_len`` bits on.  One walker
    starts at the first bit of each segment and steps through it, one
    gather per step for all walkers.  Only walker 0 starts on a symbol
    boundary, but Huffman codes self-synchronise: walker k, continued
    past its segment end, soon lands on an offset walker k+1 visited, and
    from that merge point on the two walks are the same.  The true
    boundaries are therefore walker 0's offsets, plus every later
    walker's offsets from its merge point on, plus the bridge offsets
    each walker took before merging — exact by induction over the
    segments.  A walker that does not merge within one further segment
    returns ``None`` (some books never resynchronise, e.g. one where
    every code has length 6).
    """
    seg = _segment_bits(nbits)
    nseg = max(1, nbits // seg)
    starts = np.arange(nseg, dtype=nxt.dtype) * seg
    ends = starts + seg
    ends[-1] = nbits                      # the last segment takes the rest
    # each step moves a walker >= min_len bits (or parks it at nbits), so
    # the longest segment bounds the steps; only written rows are committed
    rows = -(-int(ends[-1] - starts[-1]) // min_len) + 17
    trace = np.empty((rows, nseg), dtype=nxt.dtype)
    trace[0] = starts
    step = 0
    while True:
        np.take(nxt, trace[step], out=trace[step + 1])
        step += 1
        if step % 16 == 0 and not (trace[step] < ends).any():
            break
    trace = trace[:step + 1]
    inside = trace < ends
    on_chain = np.zeros(nbits + 1, dtype=bool)
    on_chain[trace[inside]] = True
    if nseg == 1:
        return np.flatnonzero(on_chain[:nbits])
    # continue walker k from its first offset past its segment until it
    # lands on an offset walker k+1 visited inside segment k+1
    walker = np.arange(nseg - 1)
    pos = trace[inside.sum(axis=0)[:-1], walker]
    limit = ends[1:]
    merge = np.empty(nseg - 1, dtype=nxt.dtype)
    bridges = []
    while walker.size:
        if (pos >= limit).any():
            return None
        hit = on_chain[pos]
        merge[walker[hit]] = pos[hit]
        walker, pos, limit = walker[~hit], pos[~hit], limit[~hit]
        bridges.append(pos)
        pos = nxt[pos]
    # drop each walker's offsets before its merge point, add the bridges
    first = np.concatenate((np.zeros(1, dtype=nxt.dtype), merge))
    on_chain[trace[inside & (trace < first)]] = False
    on_chain[np.concatenate(bridges)] = True
    return np.flatnonzero(on_chain[:nbits])


def _doubling_walk(nxt: np.ndarray, nsyms: int) -> np.ndarray:
    """The first ``nsyms`` offsets of the chain from offset 0, by pointer
    doubling (``nxt`` squared each round) — the decoder's fallback for
    books that never resynchronise."""
    positions = np.empty(nsyms, dtype=nxt.dtype)
    positions[0] = 0
    known = 1
    jump = nxt
    while known < nsyms:
        take = min(known, nsyms - known)
        positions[known:known + take] = jump[positions[:take]]
        known += take
        if known < nsyms:
            jump = jump[jump]  # next^(2k)
    return positions


def _decode_chunk(payload: bytes, nbits: int, nsyms: int,
                  tsym: np.ndarray, tlen: np.ndarray, max_len: int) -> np.ndarray:
    """Segmented decode of one chunk (pointer doubling as the fallback)."""
    if nsyms == 0:
        return np.zeros(0, dtype=np.uint32)
    if len(payload) < (nbits + 7) // 8:
        raise CodecError("Huffman chunk payload shorter than its bit length")
    windows = unpack_windows(payload, nbits, max_len)
    # table lookups in blocks: the index cast each lookup makes stays
    # cache-sized instead of 8 bytes per bit of the chunk
    len_at = np.empty(nbits, dtype=np.uint8)
    for lo in range(0, nbits, _LOOKUP_BLOCK):
        np.take(tlen, windows[lo:lo + _LOOKUP_BLOCK],
                out=len_at[lo:lo + _LOOKUP_BLOCK])
    min_len = int(len_at.min())
    if min_len == 0:
        raise CodecError("corrupt Huffman stream: unknown code window")
    # nxt[p] = bit offset of the following symbol; sentinel self-loop at
    # the end, which only the last max_len offsets can overrun
    nxt = np.arange(nbits + 1,
                    dtype=np.int32 if nbits < 2**31 - 64 else np.int64)
    nxt[:nbits] += len_at
    tail = nxt[max(0, nbits - max_len):]
    np.minimum(tail, nbits, out=tail)
    positions = _segment_walk(nxt, nbits, min_len)
    if positions is None:
        positions = _doubling_walk(nxt, nsyms)
        if int(positions[-1]) >= nbits:
            raise CodecError("Huffman stream too short for symbol count")
    elif positions.size < nsyms:
        raise CodecError("Huffman stream too short for symbol count")
    elif positions.size > nsyms:
        raise CodecError("Huffman chunk bit-length mismatch")
    last = int(positions[-1])
    if last + int(len_at[last]) != nbits:
        raise CodecError("Huffman chunk bit-length mismatch")
    return tsym[windows[positions]]


def _chunk_entries(enc: HuffmanEncoded) -> list[tuple[int, int, int, int]]:
    """``(byte offset, bytes, bits, symbols)`` per chunk, after checking
    the chunk table against the declared count and the payload size."""
    nsyms_all = [int(n) for n in np.asarray(enc.chunk_symbols).reshape(-1)]
    nbits_all = [int(n) for n in np.asarray(enc.chunk_bits).reshape(-1)]
    if len(nsyms_all) != len(nbits_all):
        raise CodecError("Huffman chunk tables differ in length")
    entries: list[tuple[int, int, int, int]] = []
    offset = 0
    for nsyms, nbits in zip(nsyms_all, nbits_all):
        # every symbol takes at least one bit
        if not 0 <= nsyms <= nbits:
            raise CodecError(f"corrupt Huffman chunk table: {nsyms} symbols "
                             f"in {nbits} bits")
        nbytes = (nbits + 7) // 8
        entries.append((offset, nbytes, nbits, nsyms))
        offset += nbytes
    if sum(nsyms_all) != enc.count:
        raise CodecError(f"Huffman chunk table holds {sum(nsyms_all)} "
                         f"symbols, stream declares {enc.count}: count "
                         "mismatch")
    if offset != len(enc.payload):
        raise CodecError(f"Huffman payload is {len(enc.payload)} bytes, its "
                         f"chunk table spans {offset}")
    return entries


def decode(enc: HuffmanEncoded) -> np.ndarray:
    """Decode a :class:`HuffmanEncoded` stream back to symbols (uint32).

    The chunk table is checked before any chunk is decoded: every chunk
    must hold ``0 <= symbols <= bits``, the symbols must add up to the
    declared count and the chunk byte spans to the payload size.  Every
    call then decodes in full, so every stream is validated against its
    own chunk tables: a payload, bit count or symbol count that disagrees
    raises :class:`CodecError`.  Only the decode tables (keyed by the
    codebook lengths) are shared between calls.
    """
    with span("kernel.huffman.decode", symbols=int(enc.count),
              bytes_in=len(enc.payload)) as sp:
        entries = _chunk_entries(enc)
        book = warm_decode_book(enc.lengths, enc.max_len)
        tsym, tlen = book.decode_tables()

        def decode_one(entry: tuple[int, int, int, int]) -> np.ndarray:
            off, nbytes, nbits, nsyms = entry
            return _decode_chunk(enc.payload[off:off + nbytes], nbits,
                                 nsyms, tsym, tlen, enc.max_len)

        # chunk boundaries are known up front (byte-aligned starts from
        # the bit-count table), so under a thread budget the chunks
        # decode concurrently; concatenation in chunk order keeps the
        # symbol stream identical to the serial loop
        budget = active_threads()
        if budget > 1 and len(entries) > 1:
            parts = run_slabs(decode_one, entries, threads=budget)
        else:
            parts = [decode_one(entry) for entry in entries]
        out = (np.concatenate(parts) if parts
               else np.zeros(0, dtype=np.uint32))
        sp.set(bytes_out=int(out.nbytes))
        return out


def decode_serial_reference(enc: HuffmanEncoded) -> np.ndarray:
    """Bit-by-bit reference decoder (tests cross-check the parallel path)."""
    book = Codebook(lengths=enc.lengths, max_len=enc.max_len)
    tsym, tlen = book.decode_tables()
    out = np.empty(enc.count, dtype=np.uint32)
    pos = 0
    offset = 0
    for nsyms, nbits in zip(enc.chunk_symbols, enc.chunk_bits):
        nbytes = (int(nbits) + 7) // 8
        windows = unpack_windows(enc.payload[offset:offset + nbytes],
                                 int(nbits), enc.max_len)
        offset += nbytes
        p = 0
        for _ in range(int(nsyms)):
            w = int(windows[p])
            out[pos] = tsym[w]
            p += int(tlen[w])
            pos += 1
    return out


def expected_bits(counts: np.ndarray, book: Codebook) -> int:
    """Exact encoded size in bits for a stream with histogram ``counts``."""
    return int((counts.astype(np.int64) * book.lengths.astype(np.int64)).sum())
