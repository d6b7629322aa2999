"""Fault-injection tests: corrupted containers must fail *loudly*.

An error-bounded compressor that silently returns wrong data on a
corrupted input is worse than useless in an HPC I/O stack.  The container
carries CRCs over both the header and the stored body, so every
single-byte corruption must either raise an :class:`FZModError` subclass
or (never) succeed — a successful decode of a tampered blob is a test
failure.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import get_compressor
from repro.core import decompress, fzmod_default, fzmod_speed
from repro.core.header import assemble, parse, split_sections
from repro.core.modules_std import (HuffmanEncoder, LorenzoPredictor,
                                    RelEbPreprocess, StandardHistogram)
from repro.core.pipeline import Pipeline
from repro.errors import CodecError, FZModError


@pytest.fixture(scope="module")
def blob() -> bytes:
    rng = np.random.default_rng(42)
    data = np.cumsum(rng.standard_normal((32, 40)), axis=0).astype(np.float32)
    return fzmod_default().compress(data, 1e-3).blob


class TestSingleByteCorruption:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_flip_detected(self, blob, data):
        pos = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        bad = bytearray(blob)
        bad[pos] ^= flip
        with pytest.raises(FZModError):
            decompress(bytes(bad))

    def test_truncation_at_every_region(self, blob):
        for cut in (2, 8, len(blob) // 2, len(blob) - 1):
            with pytest.raises(FZModError):
                decompress(blob[:cut])

    def test_appended_garbage_detected(self, blob):
        with pytest.raises(FZModError):
            decompress(blob + b"\x00" * 10)

    def test_empty_and_tiny_inputs(self):
        for junk in (b"", b"F", b"FZMD", b"FZMD" + b"\x00" * 6):
            with pytest.raises(FZModError):
                decompress(junk)


class TestBaselineCorruption:
    @pytest.mark.parametrize("name", ["cuszp2", "fzgpu", "pfpl", "sz3"])
    def test_baseline_blob_flip_detected(self, name, rng):
        data = np.cumsum(rng.standard_normal(2000)).astype(np.float32)
        comp = get_compressor(name)
        blob = bytearray(comp.compress(data, 1e-3).blob)
        for pos in (5, len(blob) // 2, len(blob) - 2):
            bad = bytearray(blob)
            bad[pos] ^= 0xA5
            with pytest.raises(FZModError):
                comp.decompress(bytes(bad))


class TestCrossContainerConfusion:
    def test_speed_blob_decodes_via_generic_path_only(self, rng):
        """Pipelines route by header; a wrong manual route must not
        silently produce garbage."""
        data = rng.standard_normal(500).astype(np.float32)
        blob = fzmod_speed().compress(data, 1e-2).blob
        out = decompress(blob)  # generic path: fine
        assert out.shape == data.shape
        from repro.core.stf_pipeline import StfDefaultPipeline
        with pytest.raises(FZModError):
            StfDefaultPipeline().decompress(blob)  # wrong pipeline: loud


class TestHuffmanChunkTableTamper:
    """A chunk table that lies about its chunks must raise a
    :class:`CodecError` before any chunk is decoded.

    Each mutation is applied to the Huffman sections of a real multi-chunk
    FZMD container, which is then re-sealed with fresh CRCs so the
    container checks pass and the tampered table reaches the decoder.
    """

    @pytest.fixture(scope="class")
    def chunked(self):
        rng = np.random.default_rng(11)
        data = np.cumsum(rng.standard_normal((48, 64)), axis=0)
        pipe = Pipeline(preprocess=RelEbPreprocess(),
                        predictor=LorenzoPredictor(),
                        statistics=StandardHistogram(),
                        encoder=HuffmanEncoder(chunk=300))
        blob = pipe.compress(data.astype(np.float32), 1e-3).blob
        assert parse(blob)[0].stage_meta["encoder"]["nchunks"] >= 4
        return blob

    @staticmethod
    def _reseal(blob: bytes, mutate) -> bytes:
        header, body = parse(blob)          # no secondary: body is raw
        assert header.modules["secondary"] == "none"
        sections = {k: bytes(v) for k, v in
                    split_sections(header, body).items()}
        table = {k: np.frombuffer(sections[k], dtype=np.int64).copy()
                 for k in ("enc.chunk_syms", "enc.chunk_bits")}
        payload = mutate(table["enc.chunk_syms"], table["enc.chunk_bits"],
                         sections["enc.payload"])
        sections["enc.payload"] = payload
        for k, arr in table.items():
            sections[k] = arr.tobytes()
        _, new_body = assemble(header, sections)
        header_bytes, _ = assemble(header, sections, stored_body=new_body)
        return header_bytes + new_body

    def test_untampered_reseal_decodes(self, chunked):
        resealed = self._reseal(chunked, lambda syms, bits, payload: payload)
        assert np.array_equal(decompress(resealed), decompress(chunked))

    def _negative_symbols(syms, bits, payload):
        syms[1] = -syms[1]
        return payload

    def _negative_bits(syms, bits, payload):
        bits[1] = -bits[1]
        return payload

    def _huge_symbols(syms, bits, payload):
        syms[0] = 10**12
        return payload

    def _trailing_bytes(syms, bits, payload):
        return payload + b"\x00\x00\x00"

    def _short_payload(syms, bits, payload):
        return payload[:-1]

    def _symbols_without_bits(syms, bits, payload):
        bits[-1], syms[-1] = 0, 1
        return payload

    def _count_disagrees(syms, bits, payload):
        syms[0] -= 1
        return payload

    def _symbols_moved_between_chunks(syms, bits, payload):
        syms[0] -= 1
        syms[1] += 1
        return payload

    @pytest.mark.parametrize("mutate", [
        _negative_symbols, _negative_bits, _huge_symbols, _trailing_bytes,
        _short_payload, _symbols_without_bits, _count_disagrees,
        _symbols_moved_between_chunks], ids=lambda f: f.__name__.strip("_"))
    def test_mutation_raises_codec_error(self, chunked, mutate):
        with pytest.raises(CodecError):
            decompress(self._reseal(chunked, mutate))
