"""Per-layer tracing for the benchmark, done from outside the program.

The program gets no instrumentation of its own for the benchmark: this
module wraps the public function or method at each layer boundary while
a traced operation runs, and unwraps it afterwards.  A function is
wrapped at *every* binding that holds it -- the defining module and each
``repro`` module that imported it with ``from ... import`` -- because a
call through such a binding never reaches a wrapper installed only on
the defining module (``pack_varlen`` inside ``repro.kernels.huffman``,
``fused_predict_quantize`` inside ``repro.compile.plan``, ...).

Wrappers run on slab and pool threads too, so self time is computed per
thread: each thread keeps its own stack of open wrapped calls, and a
call's self time is its duration minus the time of wrapped calls nested
in it on the same thread.  Work done inside forked worker processes is
invisible from here; in the out-of-core workload it is charged to the
engine call (``layer.stream.write`` / ``layer.stream.read``) that waits
for it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

#: Modules whose bindings are rewritten; imported before installing so
#: that every ``from ... import`` binding already exists.
_MODULES = (
    "repro.api", "repro.core.pipeline", "repro.core.header",
    "repro.core.modules_std", "repro.core.modules_extra",
    "repro.compile.plan", "repro.compile.decode", "repro.compile.fused",
    "repro.kernels.huffman", "repro.kernels.bitio", "repro.kernels.plancache",
    "repro.runtime.threads", "repro.parallel.executor",
    "repro.streaming.engine", "repro.streaming.container",
    "repro.streaming.prefetch", "repro.core.inspect",
)

#: (layer, direction whose wall its share is taken of)
COMPRESS_LAYERS = ("preprocess", "predict", "histogram", "huffman.codebook",
                   "huffman.encode", "bitio.pack", "bitshuffle.encode",
                   "secondary.encode", "container.assemble", "stream.write")
DECOMPRESS_LAYERS = ("reconstruct", "huffman.decode", "bitio.unpack",
                     "bitshuffle.decode", "secondary.decode",
                     "container.parse", "stream.read")
HOME = {**{name: "compress" for name in COMPRESS_LAYERS},
        **{name: "decompress" for name in DECOMPRESS_LAYERS}}

#: plan caches reported as per-run hit/miss deltas (metric name -> cache)
CACHES = {"codebook": "huffman.codebook",
          "decode_tables": "huffman.decode_tables",
          "encode_streams": "huffman.encode_streams",
          "decode_streams": "huffman.decode_streams",
          "compile.plans": "compile.plans"}

PREFETCH_WAIT = "stream.prefetch_wait"


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every metric a traced run reports, as (name, unit), in order."""
    names = []
    for layer in COMPRESS_LAYERS + DECOMPRESS_LAYERS:
        names += [(f"layer.{layer}.calls", "count"),
                  (f"layer.{layer}.busy_s", "s"),
                  (f"layer.{layer}.share", "fraction")]
    names.append(("layer.stream.prefetch_wait_s", "s"))
    for short in CACHES:
        names += [(f"cache.{short}.hits", "count"),
                  (f"cache.{short}.misses", "count")]
    names += [("threads.width", "count"), ("pool.reuse_rate", "fraction"),
              ("pool.pooled_bytes", "bytes"),
              ("unattributed.compress.share", "fraction"),
              ("unattributed.decompress.share", "fraction"),
              ("trace.overhead", "fraction")]
    return names


def _subclass_methods(base, method: str, skip=()):
    """Every class at or under ``base`` that defines ``method`` itself."""
    todo, seen, out = [base], set(), []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        if method in cls.__dict__ and cls.__name__ not in skip:
            out.append((cls, method))
    return sorted(out, key=lambda cm: cm[0].__qualname__)


def _targets():
    """(layer, kind, target) triples; kind is "func" or "method"."""
    from repro.compile import decode as cdecode
    from repro.compile import plan as cplan
    from repro.core import header
    from repro.core.module import (PredictorModule, PreprocessModule,
                                   SecondaryModule, StatisticsModule)
    from repro.core.modules_std import BitshuffleEncoder
    from repro.kernels import bitio, huffman
    from repro.streaming import engine
    from repro.streaming.container import ShardReader, ShardStreamWriter

    out = []

    def methods(layer, base, name, skip=()):
        out.extend((layer, "method", cm)
                   for cm in _subclass_methods(base, name, skip))

    methods("preprocess", PreprocessModule, "forward")
    out.append(("predict", "func", cplan.fused_predict_quantize))
    methods("predict", PredictorModule, "encode")
    out.append(("reconstruct", "func", cdecode.fused_decode_reconstruct))
    methods("reconstruct", PredictorModule, "decode")
    methods("histogram", StatisticsModule, "collect")
    out.append(("huffman.codebook", "func", huffman.build_codebook))
    out.append(("huffman.encode", "func", huffman.encode))
    out.append(("huffman.decode", "func", huffman.decode))
    out.append(("bitio.pack", "func", bitio.pack_varlen))
    out.append(("bitio.unpack", "func", bitio.unpack_windows))
    out.append(("bitshuffle.encode", "method", (BitshuffleEncoder, "encode")))
    out.append(("bitshuffle.decode", "method", (BitshuffleEncoder, "decode")))
    # the identity pass-through every pipeline without a secondary runs
    # does no work; only real secondaries count as the layer
    methods("secondary.encode", SecondaryModule, "encode", ("NoSecondary",))
    methods("secondary.decode", SecondaryModule, "decode", ("NoSecondary",))
    out.append(("container.assemble", "func", header.assemble))
    out.append(("container.parse", "func", header.parse))
    out.append(("container.parse", "func", header.split_sections))
    out.append(("stream.write", "func", engine.compress_stream))
    for name in ("__init__", "append", "close"):
        out.append(("stream.write", "method", (ShardStreamWriter, name)))
    out.append(("stream.read", "func", engine.decompress_stream))
    for name in ("__init__", "shard", "close"):
        out.append(("stream.read", "method", (ShardReader, name)))
    return out


def _repro_bindings():
    """(module, name, value) for every global of every loaded ``repro``
    module."""
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("repro") and mod is not None:
            for attr, value in list(vars(mod).items()):
                yield mod, attr, value


class Tracer:
    """Installs the wrappers and collects one record per wrapped call.

    A record is ``(layer, direction, thread id, start, end, self
    seconds)``.  ``direction`` is whatever :attr:`direction` held when
    the call began -- the benchmark sets it around each timed call.
    """

    def __init__(self) -> None:
        for name in _MODULES:
            importlib.import_module(name)
        self.direction = "none"
        self.records: list[tuple] = []
        self.widths: list[int] = []
        self._local = threading.local()
        self._undo: list[tuple] = []
        self._targets = _targets()

    # ------------------------------------------------------------------ #
    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            direction = tracer.direction
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                nested = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                tracer.records.append((layer, direction,
                                       threading.get_ident(), t0, t1,
                                       t1 - t0 - nested))

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _wrap_prefetch_iter(self, fn):
        """Time each wait of the consumer on the slab prefetcher."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(prefetcher):
            it = fn(prefetcher)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = time.perf_counter()
                    tracer.records.append((PREFETCH_WAIT, tracer.direction,
                                           threading.get_ident(), t0, t1,
                                           t1 - t0))
                yield item

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _wrap_resolve_threads(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = fn(*args, **kwargs)
            tracer.widths.append(n)
            return n

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _bind_everywhere(self, original, replacement) -> None:
        """Point every ``repro`` module binding of ``original`` at
        ``replacement`` (the defining module's attribute included)."""
        for mod, attr, value in _repro_bindings():
            if value is original:
                setattr(mod, attr, replacement)
                self._undo.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary (idempotent per :meth:`uninstall`)."""
        if self._undo:
            return
        self.take()
        for layer, kind, target in self._targets:
            if kind == "func":
                self._bind_everywhere(target, self._wrap(layer, target))
            else:
                cls, name = target
                original = cls.__dict__[name]
                setattr(cls, name, self._wrap(layer, original))
                self._undo.append((cls, name, original))
        from repro.runtime import threads
        from repro.streaming.prefetch import SlabPrefetcher
        original = SlabPrefetcher.__dict__["__iter__"]
        SlabPrefetcher.__iter__ = self._wrap_prefetch_iter(original)
        self._undo.append((SlabPrefetcher, "__iter__", original))
        self._bind_everywhere(threads.resolve_threads,
                              self._wrap_resolve_threads(
                                  threads.resolve_threads))

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` rewrote, and any a module
        imported while the wrappers were installed took over."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        for mod, attr, value in _repro_bindings():
            original = getattr(value, "__perfbench_original__", None)
            if original is not None:
                setattr(mod, attr, original)

    def take(self) -> tuple[list[tuple], list[int]]:
        """Hand over and clear the collected records and widths."""
        records, self.records = self.records, []
        widths, self.widths = self.widths, []
        return records, widths


def covered_seconds(records, lo: float, hi: float) -> float:
    """Wall time in [lo, hi] covered by at least one record, any thread."""
    spans = sorted((max(r[3], lo), min(r[4], hi)) for r in records
                   if r[4] > lo and r[3] < hi)
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in spans:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(records, windows: dict[str, tuple[float, float]]) -> dict:
    """One traced operation's layer totals.

    ``windows`` maps each direction to its (start, end) wall interval.
    Returns ``{"layers": {layer: {direction: [calls, self_s]}},
    "covered": {direction: seconds}}``.
    """
    layers: dict[str, dict[str, list]] = {}
    for layer, direction, _tid, _t0, _t1, self_s in records:
        slot = layers.setdefault(layer, {}).setdefault(direction, [0, 0.0])
        slot[0] += 1
        slot[1] += self_s
    covered = {d: covered_seconds([r for r in records if r[1] == d], lo, hi)
               for d, (lo, hi) in windows.items()}
    return {"layers": layers, "covered": covered}


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every reported plan cache, right now."""
    from repro.kernels.plancache import cache_stats
    stats = cache_stats()
    return {short: (int(stats.get(name, {}).get("hits", 0)),
                    int(stats.get(name, {}).get("misses", 0)))
            for short, name in CACHES.items()}


def pool_counts() -> dict:
    """The process buffer pool's counters, right now."""
    from repro.core.inspect import hotpath_stats
    pool = hotpath_stats()["buffer_pool"]
    return {"hits": int(pool["hits"]), "misses": int(pool["misses"]),
            "pooled_bytes": int(pool["pooled_bytes"])}
