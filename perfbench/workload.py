"""One workload process of the benchmark (started by ``run.py``).

It imports ``repro`` from ``src/`` of the current directory, sets up
(import + one warm-up round trip), then runs fresh-input round trips in
whole rotations over the workload's field list until ``--seconds`` have
passed.  Every field is generated from its own seed just before its
round trip, outside the timed region, and is compressed once and
decompressed once through the public facade (``repro.compress`` /
``repro.decompress``) with default settings, so no content memo can
hit.  Each event is written to stdout as one JSON line; ``run.py``
watches the lines, enforces the per-operation deadline and aggregates.

Run directly only for debugging::

    python3 perfbench/workload.py --workload snap-default --seed 1 \
        --seconds 5 --trace 0 --workdir .perfbench_work/debug
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: offset between the seed of one field and the next within a run
SEED_STRIDE = 100_003
#: warm-up fields use seeds no timed field of the run can reach
WARMUP_SEED_OFFSET = 90_000
#: every run completes this many rotations, whatever --seconds says:
#: ratio and PSNR are taken over them (so they are exact functions of
#: the seed), and a traced run needs one traced and one untraced
MIN_ROTATIONS = 2


@dataclass(frozen=True)
class FieldSpec:
    """One entry of a workload's rotation.

    ``kind`` names a :mod:`repro.data.synthetic` generator (``size`` is
    its ``scale``), or ``"grf-slabs"`` for an out-of-core field written
    slab by slab to a memmapped file (``size`` is its shape).
    ``shard_mb`` is passed to the streaming engine when set.
    """

    kind: str
    field: str
    size: object
    shard_mb: float | None = None

    @property
    def name(self) -> str:
        if self.kind == "grf-slabs":
            return "grf-slabs:" + "x".join(map(str, self.size))
        return f"{self.kind}:{self.field}"


@dataclass(frozen=True)
class Workload:
    preset: str
    eb: float
    fields: tuple[FieldSpec, ...]
    #: the tiny rotation the benchmark's own tests run (``--smoke``)
    smoke: tuple[FieldSpec, ...]
    secondary: str | None = None
    stream: bool = False
    #: fresh processes that set up per run; setup_s is their median
    setups: int = 3


# The snap fields are 8-16 MB; quality-lz's are 4-5 MB, so that a run
# of its slow decode still holds several round trips per field; the
# stream field is 96 MiB (three 32 MiB shards).  With a 105 MiB L3 the
# in-memory fields fit in cache and the stream field exceeds it by less
# than 4x, so no number here is a memory-bandwidth measurement; run.py
# records the multiple per field.
SNAP_FIELDS = (FieldSpec("nyx_like", "velocity_x", 0.25),
               FieldSpec("hurricane_like", "U", 0.5),
               FieldSpec("miranda_like", "density", 0.4))
SNAP_SMOKE = (FieldSpec("nyx_like", "velocity_x", 0.0625),
              FieldSpec("hurricane_like", "U", 0.1),
              FieldSpec("miranda_like", "density", 0.1))

WORKLOADS: dict[str, Workload] = {
    # paper default pipeline: the compiled Lorenzo pass and Huffman
    # pack/decode do almost all the work
    "snap-default": Workload("fzmod-default", 1e-3, SNAP_FIELDS, SNAP_SMOKE),
    # bitshuffle + dictionary, no histogram and no Huffman: a
    # Huffman-only change must read "no change" here
    "snap-speed": Workload("fzmod-speed", 1e-3, SNAP_FIELDS, SNAP_SMOKE),
    # the only workload running G-Interp, the top-k histogram, the LZ
    # secondary and the pipeline interpreter (Quality never compiles)
    "quality-lz": Workload(
        "fzmod-quality", 1e-4,
        (FieldSpec("cesm_like", "T", 0.15),
         FieldSpec("hurricane_like", "U", 0.35)),
        (FieldSpec("cesm_like", "T", 0.05),
         FieldSpec("hurricane_like", "U", 0.1)),
        secondary="zstd-like"),
    # the only workload running the streaming engine, the process pool,
    # FZMS file I/O and the decode overlap.  The smoke rotation's first
    # field has shards too small for slab-parallel decode, the second
    # shards big enough for it, as the full field's 32 MiB shards are:
    # so a smoke run completes traced round trips and then meets the
    # known hang of a compress_stream after a slab-parallel decode.
    "stream-fzms": Workload(
        "fzmod-default", 1e-3,
        (FieldSpec("grf-slabs", "", (96, 512, 512)),),
        (FieldSpec("grf-slabs", "", (32, 256, 256), shard_mb=2.0),
         FieldSpec("grf-slabs", "", (64, 256, 256), shard_mb=8.0)),
        stream=True, setups=1),
}


def emit(kind: str, **fields) -> None:
    print(json.dumps({"kind": kind, **fields}), flush=True)


def _peak_rss_reset() -> None:
    # "5" resets VmHWM to the current RSS (Linux >= 4.0)
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def field_seed(run_seed: int, index: int) -> int:
    return run_seed * SEED_STRIDE + index


def generate(spec: FieldSpec, seed: int, workdir: Path):
    """A fresh field: an in-memory array, or a read-only memmap."""
    import numpy as np
    from repro.data import synthetic
    if spec.kind != "grf-slabs":
        return getattr(synthetic, spec.kind)(spec.field, spec.size, seed)
    shape = tuple(spec.size)
    path = workdir / f"in-{seed}.f32"
    mm = np.memmap(path, dtype=np.float32, mode="w+", shape=shape)
    depth = 16
    for k, z in enumerate(range(0, shape[0], depth)):
        planes = min(depth, shape[0] - z)
        grf = synthetic.gaussian_random_field(
            (planes,) + shape[1:], slope=3.0, seed=seed * 1000 + k, modes=40)
        mm[z:z + planes] = (280.0 + 15.0 * grf).astype(np.float32)
    mm.flush()
    del mm
    return np.memmap(path, dtype=np.float32, mode="r", shape=shape)


def round_trip(wl: Workload, spec: FieldSpec, x, seed: int, workdir: Path,
               tracer=None) -> dict:
    """Compress ``x`` once and decompress its container once.

    Returns timings, sizes, the container digest and the checks.  Only
    the two facade calls are timed.
    """
    import numpy as np
    import repro
    from repro.core.presets import get_preset
    from repro.metrics import verify_error_bound
    from repro.metrics.quality import psnr

    preset = (get_preset(wl.preset, secondary=wl.secondary)
              if wl.secondary else wl.preset)

    def timed(direction, fn, *args, **kwargs):
        if tracer:
            tracer.direction = direction
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, (t0, time.perf_counter())

    out = {"in_bytes": int(x.nbytes)}
    _peak_rss_reset()
    if wl.stream:
        cpath = workdir / f"c-{seed}.fzms"
        opath = workdir / f"out-{seed}.f32"
        kwargs = {} if spec.shard_mb is None else {"shard_mb": spec.shard_mb}
        res, cwin = timed("compress", repro.compress, x, preset, wl.eb,
                          stream=True, out=cpath, **kwargs)
        dst = np.memmap(opath, dtype=x.dtype, mode="w+", shape=x.shape)
        y, dwin = timed("decompress", repro.decompress, str(cpath), out=dst)
        blob = cpath.read_bytes()
        out["engine"] = f"{res.backend}x{res.workers}/{res.shard_count}"
    else:
        res, cwin = timed("compress", repro.compress, x, preset, wl.eb)
        y, dwin = timed("decompress", repro.decompress, res.blob)
        blob = res.blob
    if tracer:
        tracer.direction = "none"
    out.update(rss_mb=_peak_rss_mb(), out_bytes=len(blob),
               digest=hashlib.sha256(blob).hexdigest(),
               c_s=cwin[1] - cwin[0], d_s=dwin[1] - dwin[0],
               windows={"compress": cwin, "decompress": dwin})
    out["ok"] = bool(verify_error_bound(x, y, res.stats.eb_abs))
    out["psnr"] = float(psnr(x, y))
    if wl.stream:
        del y, dst
        cpath.unlink()
        opath.unlink()
    return out


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _l3_bytes() -> int | None:
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale \
        else int(text)


def environment(root: Path) -> dict:
    import subprocess

    import numpy as np
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None   # the benchmark checkout need not be a git repo
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "python": sys.version.split()[0],
            "l3_bytes": _l3_bytes(), "commit": commit,
            "source_sha256": _source_digest(root)}


def _traced_round_trip(wl, spec, x, seed, workdir, tracer) -> dict:
    from layers import cache_counts, pool_counts, summarize
    caches0, pool0 = cache_counts(), pool_counts()
    rec = round_trip(wl, spec, x, seed, workdir, tracer)
    caches1, pool1 = cache_counts(), pool_counts()
    records, widths = tracer.take()
    rec["trace"] = summarize(records, rec["windows"])
    rec["trace"]["caches"] = {
        k: [caches1[k][0] - caches0[k][0], caches1[k][1] - caches0[k][1]]
        for k in caches1}
    rec["trace"]["pool"] = {
        "hits": pool1["hits"] - pool0["hits"],
        "misses": pool1["misses"] - pool0["misses"],
        "pooled_bytes": pool1["pooled_bytes"]}
    rec["trace"]["width"] = max(widths, default=0)
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", type=int, default=None, metavar="K",
                    help="set up with warm-up field K, report, and exit")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--budget", type=float, default=150.0,
                    help="stop starting new round trips after this many "
                         "seconds of timed phase")
    args = ap.parse_args(argv)
    root = Path.cwd()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]
    fields = wl.smoke if args.smoke else wl.fields

    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import repro
    import_s = time.perf_counter() - t0
    if not Path(repro.__file__).resolve().is_relative_to(root / "src"):
        print(f"imported repro from {repro.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    if args.setup_only is None:
        emit("env", env=environment(root))

    probe = 0 if args.setup_only is None else args.setup_only
    warm_seed = field_seed(args.seed, WARMUP_SEED_OFFSET + probe)
    x = generate(fields[0], warm_seed, workdir)
    rec = round_trip(wl, fields[0], x, warm_seed, workdir)
    del x
    if wl.stream:
        (workdir / f"in-{warm_seed}.f32").unlink()
    roundtrip_s = rec["c_s"] + rec["d_s"]
    emit("setup", import_s=import_s, roundtrip_s=roundtrip_s,
         setup_s=import_s + roundtrip_s, ok=rec["ok"])
    if args.setup_only is not None:
        return 0

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from layers import Tracer
        tracer = Tracer()

    start = time.perf_counter()
    index, rotation = 0, 0
    done = False
    while not done:
        # trace runs alternate traced and untraced rotations, so the
        # tracing overhead is measured on the same field mix
        traced = tracer is not None and rotation % 2 == 0
        if traced:
            tracer.install()
        for spec in fields:
            seed = field_seed(args.seed, index)
            x = generate(spec, seed, workdir)
            emit("begin", i=index, t=time.perf_counter() - start,
                 field=spec.name, shape=list(x.shape), in_bytes=int(x.nbytes))
            try:
                if traced:
                    rec = _traced_round_trip(wl, spec, x, seed, workdir,
                                             tracer)
                else:
                    rec = round_trip(wl, spec, x, seed, workdir)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                if traced:
                    tracer.take()   # drop the failed call's partial records
                    tracer.direction = "none"
                emit("op", i=index, rotation=rotation, traced=traced,
                     field=spec.name, error=f"{type(exc).__name__}: {exc}")
            else:
                rec.pop("windows")
                emit("op", i=index, rotation=rotation, traced=traced,
                     field=spec.name, error=None, **rec)
            del x
            if wl.stream:
                (workdir / f"in-{seed}.f32").unlink(missing_ok=True)
            index += 1
            # the throughputs take per-field medians, so a run may end
            # mid-rotation once the rotations every run owes are done
            elapsed = time.perf_counter() - start
            if elapsed > args.budget or (elapsed >= args.seconds
                                         and rotation >= MIN_ROTATIONS):
                done = True
                break
        if traced:
            tracer.uninstall()
        rotation += 1
        done = done or (rotation >= MIN_ROTATIONS
                        and time.perf_counter() - start >= args.seconds)
    emit("end", rotations=rotation, timed_s=time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
