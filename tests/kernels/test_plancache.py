"""The content-addressed plan cache and its Huffman tenants.

Covers the generic :class:`PlanCache` mechanics (LRU + byte-budget
eviction, counters, kill switch), the stability of the content digest,
and the two Huffman caches layered on top: codebooks and warm decode
books.  Encoded and decoded streams are never cached, so a stream's
validation must not depend on what the process decoded before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CodecError
from repro.kernels import huffman
from repro.kernels.plancache import (CODEBOOK_CACHE, DECODE_TABLE_CACHE,
                                     PlanCache, all_caches, cache_stats,
                                     caching_enabled, clear_all_caches,
                                     digest)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all_caches(reset_stats=True)
    yield
    clear_all_caches(reset_stats=True)


class TestDigest:
    def test_equal_content_equal_digest(self):
        a = np.arange(100, dtype=np.int64)
        assert digest(a) == digest(a.copy())
        assert digest(b"abc", 7, "x") == digest(b"abc", 7, "x")

    def test_dtype_and_shape_participate(self):
        a = np.zeros(8, dtype=np.int32)
        assert digest(a) != digest(a.view(np.int16))
        assert digest(a) != digest(a.reshape(2, 4))

    def test_value_sensitivity(self):
        a = np.arange(100, dtype=np.int64)
        b = a.copy()
        b[50] += 1
        assert digest(a) != digest(b)

    def test_part_boundaries(self):
        # ("ab","c") must not collide with ("a","bc")
        assert digest("ab", "c") != digest("a", "bc")

    def test_noncontiguous_array(self):
        a = np.arange(20, dtype=np.int64)
        assert digest(a[::2]) == digest(a[::2].copy())


class TestPlanCache:
    def test_hit_returns_same_object_and_counts(self):
        cache = PlanCache("test.basic")
        calls = []
        build = lambda: calls.append(1) or object()  # noqa: E731
        v1 = cache.get_or_build("k", build)
        v2 = cache.get_or_build("k", build)
        assert v1 is v2
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_by_entries(self):
        cache = PlanCache("test.lru", max_entries=2, max_bytes=0)
        a = cache.get_or_build("a", object)
        cache.get_or_build("b", object)
        cache.get_or_build("a", object)      # refresh a
        cache.get_or_build("c", object)      # evicts b (LRU)
        assert cache.evictions == 1
        assert cache.get_or_build("a", object) is a          # still cached
        rebuilt = object()
        assert cache.get_or_build("b", lambda: rebuilt) is rebuilt

    def test_eviction_by_byte_budget(self):
        cache = PlanCache("test.bytes", max_entries=100, max_bytes=100)
        cache.get_or_build("a", object, nbytes=60)
        cache.get_or_build("b", object, nbytes=60)   # 120 > 100: evicts a
        assert cache.evictions == 1
        assert len(cache) == 1
        assert cache.stats()["bytes"] == 60

    def test_oversized_single_entry_is_kept(self):
        # the loop never evicts the last entry, even over budget
        cache = PlanCache("test.huge", max_bytes=10)
        v = cache.get_or_build("a", object, nbytes=1000)
        assert cache.get_or_build("a", object) is v

    def test_clear_and_reset(self):
        cache = PlanCache("test.clear")
        cache.get_or_build("a", object, nbytes=10)
        cache.clear()
        assert len(cache) == 0 and cache.stats()["bytes"] == 0
        assert cache.misses == 1                     # counters survive clear
        cache.reset_stats()
        assert cache.misses == 0

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("FZMOD_PLAN_CACHE", "0")
        assert not caching_enabled()
        cache = PlanCache("test.disabled")
        v1 = cache.get_or_build("k", object)
        v2 = cache.get_or_build("k", object)
        assert v1 is not v2                          # nothing is served
        assert len(cache) == 0                       # nothing is stored
        assert cache.misses == 2                     # misses still counted

    def test_registry_and_stats(self):
        assert "huffman.codebook" in all_caches()
        stats = cache_stats()
        for name in ("huffman.codebook", "huffman.decode_tables",
                     "pipeline.modules", "compile.plans"):
            assert set(stats[name]) >= {"entries", "bytes", "hits",
                                        "misses", "evictions", "hit_rate"}


@pytest.fixture
def symbols() -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.integers(0, 40, size=5000).astype(np.uint32)


@pytest.fixture
def counts(symbols) -> np.ndarray:
    return np.bincount(symbols, minlength=64).astype(np.int64)


class TestHuffmanPlans:
    def test_codebook_served_from_cache(self, counts):
        b1 = huffman.build_codebook(counts)
        b2 = huffman.build_codebook(counts.copy())
        assert b1 is b2
        assert CODEBOOK_CACHE.hits == 1

    def test_codebook_cache_false_builds_fresh(self, counts):
        b1 = huffman.build_codebook(counts)
        b2 = huffman.build_codebook(counts, cache=False)
        assert b1 is not b2
        assert np.array_equal(b1.lengths, b2.lengths)

    def test_warm_decode_book_is_shared(self, counts):
        book = huffman.build_codebook(counts)
        w1 = huffman.warm_decode_book(book.lengths, book.max_len)
        w2 = huffman.warm_decode_book(book.lengths.copy(), book.max_len)
        assert w1 is w2
        assert w1._table_sym is not None            # tables pre-materialised
        assert DECODE_TABLE_CACHE.hits == 1

    def test_every_call_packs_and_decodes_in_full(self, symbols, counts):
        book = huffman.build_codebook(counts)
        e1 = huffman.encode(symbols, book)
        e2 = huffman.encode(symbols, book)
        assert e1 is not e2 and e1.payload == e2.payload
        d1 = huffman.decode(e1)
        d2 = huffman.decode(e1)
        assert d1 is not d2 and d1.flags.writeable
        assert np.array_equal(d1, symbols) and np.array_equal(d2, symbols)

    def test_corrupt_payload_is_a_miss_not_a_stale_hit(self, symbols, counts):
        enc = huffman.encode(symbols, huffman.build_codebook(counts))
        huffman.decode(enc)                          # an honest decode first
        payload = bytearray(enc.payload)
        payload[len(payload) // 2] ^= 0xFF
        bad = huffman.HuffmanEncoded(
            payload=bytes(payload), chunk_symbols=enc.chunk_symbols,
            chunk_bits=enc.chunk_bits, count=enc.count,
            lengths=enc.lengths, max_len=enc.max_len)
        try:
            out = huffman.decode(bad)
        except CodecError:
            return                                   # loud failure is fine
        # a still-decodable corruption must at least not be the honest stream
        assert not np.array_equal(out, symbols)

    def test_chunk_table_tamper_after_honest_decode_raises(self, symbols,
                                                           counts):
        # same payload, two chunk_bits entries swapped: the decode must
        # fail the same way whatever the process decoded before
        enc = huffman.encode(symbols, huffman.build_codebook(counts),
                             chunk=4096)
        assert enc.chunk_bits.size >= 2
        assert enc.chunk_bits[0] != enc.chunk_bits[1]
        assert np.array_equal(huffman.decode(enc), symbols)
        bits = enc.chunk_bits.copy()
        bits[[0, 1]] = bits[[1, 0]]
        bad = huffman.HuffmanEncoded(
            payload=enc.payload, chunk_symbols=enc.chunk_symbols,
            chunk_bits=bits, count=enc.count,
            lengths=enc.lengths, max_len=enc.max_len)
        with pytest.raises(CodecError):
            huffman.decode(bad)

    def test_kill_switch_keeps_roundtrip(self, symbols, counts, monkeypatch):
        monkeypatch.setenv("FZMOD_PLAN_CACHE", "0")
        book = huffman.build_codebook(counts)
        enc = huffman.encode(symbols, book)
        assert np.array_equal(huffman.decode(enc), symbols)
        assert len(CODEBOOK_CACHE) == 0
        assert len(DECODE_TABLE_CACHE) == 0


class TestDecodeStreamCacheKey:
    """Streams that share payload bytes must still decode to their own
    declared content: degenerate single-symbol streams pad to identical
    payload bytes for different counts, and a declared count that
    disagrees with the chunk tables raises even after an honest decode
    of the same payload.
    """

    def _encoded(self, symbols, counts):
        return huffman.encode(symbols, huffman.build_codebook(counts))

    def test_count_tamper_on_cached_payload_raises(self, symbols, counts):
        enc = self._encoded(symbols, counts)
        huffman.decode(enc)                  # decode with the honest count
        bad = huffman.HuffmanEncoded(
            payload=enc.payload, chunk_symbols=enc.chunk_symbols,
            chunk_bits=enc.chunk_bits, count=enc.count + 1,
            lengths=enc.lengths, max_len=enc.max_len)
        with pytest.raises(CodecError, match="count mismatch"):
            huffman.decode(bad)

    def test_constant_streams_of_different_sizes_do_not_collide(self):
        # a single-symbol stream packs to all-padding payload bytes, so
        # counts 7 and 8 share payload *and* lengths — only the declared
        # counts tell them apart
        a = self._encoded(np.full(7, 3, dtype=np.uint32),
                          np.bincount([3] * 7, minlength=8).astype(np.int64))
        b = self._encoded(np.full(8, 3, dtype=np.uint32),
                          np.bincount([3] * 8, minlength=8).astype(np.int64))
        assert a.payload == b.payload
        assert huffman.decode(a).size == 7
        assert huffman.decode(b).size == 8
