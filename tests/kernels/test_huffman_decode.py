"""Differential tests of the segmented Huffman decoder.

Every stream is decoded twice, by :func:`huffman.decode` and by the
bit-by-bit :func:`huffman.decode_serial_reference`, and both must give
back the encoded symbols.  The books cover the decoder's two paths: the
segmented lockstep walk, and the pointer-doubling fallback it takes when
a walker never resynchronises with the next one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import huffman


@pytest.fixture
def fallbacks(monkeypatch) -> list[int]:
    """Records the symbol count of every chunk decoded by the fallback."""
    calls: list[int] = []
    walk = huffman._doubling_walk

    def spy(nxt, nsyms):
        calls.append(nsyms)
        return walk(nxt, nsyms)

    monkeypatch.setattr(huffman, "_doubling_walk", spy)
    return calls


def _book(lengths) -> huffman.Codebook:
    return huffman.Codebook(lengths=np.asarray(lengths, dtype=np.uint8))


def _roundtrip(symbols, book: huffman.Codebook,
               chunk: int = huffman.DEFAULT_CHUNK) -> huffman.HuffmanEncoded:
    symbols = np.asarray(symbols, dtype=np.uint32)
    enc = huffman.encode(symbols, book, chunk=chunk)
    out = huffman.decode(enc)
    np.testing.assert_array_equal(out, huffman.decode_serial_reference(enc))
    np.testing.assert_array_equal(out, symbols)
    return enc


def _bits_of(symbols, book: huffman.Codebook) -> int:
    return int(book.lengths.astype(np.int64)[symbols].sum())


class TestSegmentedPath:
    def test_skewed_book_decodes_without_fallback(self, rng, fallbacks):
        syms = np.minimum(rng.geometric(0.3, 60_000) - 1, 255)
        book = huffman.build_codebook(np.bincount(syms, minlength=256))
        enc = _roundtrip(syms, book)
        nbits = int(enc.chunk_bits[0])
        assert nbits // huffman._segment_bits(nbits) > 1   # several walkers
        assert fallbacks == []

    @pytest.mark.parametrize("n", [5_000, 30_000, 300_000])
    def test_constant_byte_length_book_needs_no_fallback(self, rng, n,
                                                         fallbacks):
        # 256 equally likely codes, all 8 bits: every segment starts on a
        # symbol boundary because segment lengths are multiples of 64
        _roundtrip(rng.integers(0, 256, n), _book([8] * 256))
        assert fallbacks == []

    def test_sixteen_bit_codes(self, rng, fallbacks):
        # lengths 1..16 plus a second 16: a complete book whose longest
        # codes fill the whole decode window
        lengths = list(range(1, 17)) + [16]
        book = _book(lengths)
        assert int(book.lengths.max()) == huffman.DEFAULT_MAX_LEN
        syms = rng.integers(0, len(lengths), 20_000)
        _roundtrip(syms, book)

    def test_stream_shorter_than_one_segment(self, rng):
        syms = rng.integers(0, 8, 50)
        book = huffman.build_codebook(np.bincount(syms, minlength=8))
        enc = _roundtrip(syms, book)
        assert int(enc.chunk_bits[0]) < huffman._MIN_SEGMENT_BITS

    @pytest.mark.parametrize("target", [
        huffman._MIN_SEGMENT_BITS, 3 * huffman._MIN_SEGMENT_BITS,
        3 * huffman._SEGMENT_BITS, 70 * huffman._SEGMENT_BITS])
    def test_bit_count_exact_multiple_of_segment(self, rng, target):
        book = _book([1, 2, 2])
        # shape the stream so its bit count is exactly `target`
        syms = rng.integers(0, 3, target)
        syms = syms[np.cumsum(book.lengths[syms]) <= target]
        syms = np.concatenate([syms, np.zeros(target - _bits_of(syms, book),
                                              dtype=syms.dtype)])
        enc = _roundtrip(syms, book)
        assert int(enc.chunk_bits[0]) == target
        assert target % huffman._segment_bits(target) == 0

    @pytest.mark.parametrize("chunk", [100, 777, 5000])
    def test_multi_chunk_stream(self, rng, chunk):
        syms = np.minimum(rng.geometric(0.1, 30_000) - 1, 127)
        book = huffman.build_codebook(np.bincount(syms, minlength=128))
        enc = _roundtrip(syms, book, chunk=chunk)
        assert enc.chunk_symbols.size == -(-syms.size // chunk)


class TestDegenerateBooks:
    @pytest.mark.parametrize("n", [1, 7, 513, 40_000])
    def test_single_symbol_book(self, n, fallbacks):
        lengths = np.zeros(16, dtype=np.uint8)
        lengths[5] = 1
        _roundtrip(np.full(n, 5), _book(lengths))
        assert fallbacks == []

    def test_two_symbol_book(self, rng):
        _roundtrip(rng.integers(0, 2, 30_000), _book([1, 1]))


class TestFallback:
    """Books whose walkers never merge decode through pointer doubling."""

    @pytest.mark.parametrize("width", [6, 12])
    def test_constant_length_book_falls_back(self, rng, width, fallbacks):
        # a segment start at an offset that is not a multiple of the code
        # length never meets the true symbol boundaries
        syms = rng.integers(0, 1 << width, 30_000)
        assert huffman._segment_bits(syms.size * width) % width
        book = _book([width] * (1 << width))
        _roundtrip(syms, book)
        assert fallbacks == [syms.size]

    def test_fallback_on_multi_chunk_stream(self, rng, fallbacks):
        book = _book([6] * 64)
        syms = rng.integers(0, 64, 20_000)
        enc = _roundtrip(syms, book, chunk=4000)
        assert len(fallbacks) == enc.chunk_symbols.size

    @pytest.mark.parametrize("lengths", [[2, 2, 2, 4, 4, 4, 4],
                                         [2, 2] + [4] * 8])
    def test_all_even_lengths(self, rng, lengths):
        book = _book(lengths)
        assert not (book.lengths % 2).any()
        _roundtrip(rng.integers(0, len(lengths), 40_000), book)


@st.composite
def _books(draw):
    """A random complete canonical book (from a random histogram), a
    seed for the stream, and a chunk size."""
    counts = draw(st.lists(st.integers(0, 1000), min_size=1, max_size=300))
    counts[draw(st.integers(0, len(counts) - 1))] += 1
    max_len = draw(st.integers(max(1, (len(counts) - 1).bit_length()), 16))
    return (np.asarray(counts, dtype=np.int64), max_len,
            draw(st.integers(0, 2**32 - 1)),
            draw(st.sampled_from([500, 4096, huffman.DEFAULT_CHUNK])))


class TestRandomBooks:
    @given(_books())
    @settings(max_examples=40, deadline=None)
    def test_matches_serial_reference(self, case):
        counts, max_len, seed, chunk = case
        book = huffman.build_codebook(counts, max_len=max_len, cache=False)
        rng = np.random.default_rng(seed)
        present = np.flatnonzero(counts)
        syms = rng.choice(present, size=int(rng.integers(1, 12_000)),
                          p=counts[present] / counts[present].sum())
        _roundtrip(syms, book, chunk=chunk)
