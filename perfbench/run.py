"""Fresh-input benchmark of the FZMod pipelines and the out-of-core engine.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload snap-default --seed 1 \
        --seconds 30 --trace 0

It starts the workload in its own process (its own session, so the
process group holds every worker it forks), watches the operation
records it prints, and gives each round trip a deadline.  An operation
that misses its deadline is counted as failed, together with every
operation the run could no longer attempt; the whole process group is
then killed and every descendant reaped.  Setup time is measured in
fresh processes, several per run, and reported as their median.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
run's record (environment, seed, fields, per-operation container
digests).  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import (COMPRESS_LAYERS, DECOMPRESS_LAYERS, HOME,  # noqa: E402
                    PREFETCH_WAIT, per_layer_metric_names)
from workload import MIN_ROTATIONS, WORKLOADS  # noqa: E402

END_TO_END = (("compress_mb_s", "MB/s"), ("decompress_mb_s", "MB/s"),
              ("ratio", "x"), ("psnr_db", "dB"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))

#: the whole run, setups included, ends within this many seconds
RUN_CAP_S = 170.0
#: a round trip gets max(floor, factor x warm-up round trip) to finish
OP_DEADLINE_FLOOR_S = 30.0
SMOKE_OP_DEADLINE_FLOOR_S = 10.0
OP_DEADLINE_FACTOR = 3.0
PR_SET_CHILD_SUBREAPER = 36


class Child:
    """One workload process and the records it printed."""

    def __init__(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdout=subprocess.PIPE, start_new_session=True)
        self.records: list[dict] = []
        self.hung: dict | None = None   # the in-flight "begin" at a kill

    def watch(self, deadline_of) -> None:
        """Read records until exit or until ``deadline_of(self)`` (a
        monotonic time) passes; then kill the process group."""
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        buf = b""
        try:
            while True:
                left = deadline_of(self) - time.monotonic()
                if left <= 0:
                    self.hung = self.in_flight() or {"i": None}
                    break
                if not sel.select(timeout=min(left, 1.0)):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    try:
                        rec = json.loads(line)
                    except ValueError:
                        continue   # not a record: stray output
                    if isinstance(rec, dict) and "kind" in rec:
                        rec["_at"] = time.monotonic()
                        self.records.append(rec)
        finally:
            sel.close()
            self.kill()

    def in_flight(self) -> dict | None:
        """The last "begin" with no "op" after it."""
        for rec in reversed(self.records):
            if rec["kind"] == "op":
                return None
            if rec["kind"] == "begin":
                return rec
        return None

    def kill(self) -> None:
        """Kill the process group (pool workers included) and reap."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        reap_orphans()

    def of(self, kind: str) -> list[dict]:
        return [r for r in self.records if r["kind"] == kind]


def reap_orphans() -> None:
    """Wait for every descendant re-parented to this process."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def become_subreaper() -> None:
    """Let orphaned grandchildren (forked pool workers) be re-parented
    here instead of to init, so :func:`reap_orphans` can wait for them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass   # the process-group kill still ends them


def _per_field_median(ops: list[dict], key: str) -> dict[str, float]:
    by_field: dict[str, list[float]] = {}
    for o in ops:
        by_field.setdefault(o["field"], []).append(o[key])
    return {f: statistics.median(v) for f, v in by_field.items()}


def _throughput(ops: list[dict], key: str) -> float | None:
    """MB/s of one rotation: every field's MB over its seconds, each the
    median of the field's round trips, so that a round trip slowed by a
    neighbour on a shared machine does not move it."""
    if not ops:
        return None
    nbytes = {o["field"]: o["in_bytes"] for o in ops}
    seconds = _per_field_median(ops, key)
    return sum(nbytes.values()) / 1e6 / sum(seconds.values())


def end_to_end_metrics(ops: list[dict], setups: list[float]) -> dict:
    done = [o for o in ops if o["error"] is None and o["ok"]]
    first = [o for o in done if o["rotation"] < MIN_ROTATIONS]
    values = {
        "compress_mb_s": _throughput(done, "c_s"),
        "decompress_mb_s": _throughput(done, "d_s"),
        # rate-distortion over the rotations every run completes, so
        # both are exact functions of the seed
        "ratio": (sum(o["in_bytes"] for o in first)
                  / sum(o["out_bytes"] for o in first) if first else None),
        "psnr_db": (statistics.fmean(o["psnr"] for o in first)
                    if first else None),
        # the heaviest field's typical round-trip peak
        "peak_rss_mb": (max(_per_field_median(done, "rss_mb").values())
                        if done else None),
        "setup_s": statistics.median(setups),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(ops: list[dict]) -> dict:
    done = [o for o in ops if o["error"] is None and o["ok"]]
    traced = [o for o in done if o["traced"]]
    plain = [o for o in done if not o["traced"]]
    wall = {"compress": sum(o["c_s"] for o in traced),
            "decompress": sum(o["d_s"] for o in traced)}
    values: dict[str, float | None] = {}
    for layer in COMPRESS_LAYERS + DECOMPRESS_LAYERS:
        home = HOME[layer]
        calls = sum(o["trace"]["layers"].get(layer, {}).get(home, [0, 0])[0]
                    for o in traced)
        busy = sum(o["trace"]["layers"].get(layer, {}).get(home, [0, 0.0])[1]
                   for o in traced)
        values[f"layer.{layer}.calls"] = calls
        values[f"layer.{layer}.busy_s"] = busy
        values[f"layer.{layer}.share"] = (busy / wall[home] if wall[home]
                                          else None)
    values["layer.stream.prefetch_wait_s"] = sum(
        slot[1] for o in traced
        for slot in o["trace"]["layers"].get(PREFETCH_WAIT, {}).values())
    for o in traced:
        for short, (hits, misses) in o["trace"]["caches"].items():
            values[f"cache.{short}.hits"] = \
                values.get(f"cache.{short}.hits", 0) + hits
            values[f"cache.{short}.misses"] = \
                values.get(f"cache.{short}.misses", 0) + misses
    values["threads.width"] = max((o["trace"]["width"] for o in traced),
                                  default=None)
    hits = sum(o["trace"]["pool"]["hits"] for o in traced)
    misses = sum(o["trace"]["pool"]["misses"] for o in traced)
    values["pool.reuse_rate"] = hits / (hits + misses) if hits + misses \
        else 0.0
    values["pool.pooled_bytes"] = (traced[-1]["trace"]["pool"]["pooled_bytes"]
                                   if traced else None)
    for direction in ("compress", "decompress"):
        covered = sum(o["trace"]["covered"][direction] for o in traced)
        values[f"unattributed.{direction}.share"] = (
            1.0 - covered / wall[direction] if wall[direction] else None)
    values["trace.overhead"] = (
        1.0 - _throughput(traced, "c_s") / _throughput(plain, "c_s")
        if traced and plain else None)
    return {name: {"value": values.get(name), "unit": unit}
            for name, unit in per_layer_metric_names()}


def layer_calls(ops: list[dict]) -> dict:
    """Calls per layer and direction over the traced operations."""
    out: dict[str, dict[str, int]] = {}
    for o in ops:
        if o["error"] is None and o.get("traced"):
            for layer, by_dir in o["trace"]["layers"].items():
                for direction, (calls, _busy) in by_dir.items():
                    slot = out.setdefault(layer, {})
                    slot[direction] = slot.get(direction, 0) + calls
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny fields, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the repository root: src/repro is missing",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    become_subreaper()
    # a terminated run still kills and reaps its workload (finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    wl = WORKLOADS[args.workload]
    workdir = root / ".perfbench_work" / str(os.getpid())
    script = str(HERE / "workload.py")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", str(workdir)] + (["--smoke"] if args.smoke else [])

    setup_records: list[dict] = []   # from the setup-only probes

    def cap(_child):
        return started + RUN_CAP_S

    try:
        # fresh processes that only import and warm up; a traced run
        # reports no setup_s, so it skips them
        for k in range(1, 1 if args.trace else wl.setups):
            probe = Child([script] + common + ["--setup-only", str(k)])
            probe.watch(cap)
            setup_records += probe.of("setup")
            if probe.proc.returncode not in (0, -signal.SIGKILL) \
                    or not probe.of("setup"):
                print(f"setup probe {k} failed", file=sys.stderr)
                return 1

        def deadline(child):
            setup = child.of("setup")
            flight = child.in_flight()
            if not setup or flight is None:
                return cap(child)
            floor = (SMOKE_OP_DEADLINE_FLOOR_S if args.smoke
                     else OP_DEADLINE_FLOOR_S)
            op_deadline = max(floor,
                              OP_DEADLINE_FACTOR * setup[0]["roundtrip_s"])
            return min(cap(child), flight["_at"] + op_deadline)

        # leave the last round trips of a slow machine room to finish
        budget = max(1.0, RUN_CAP_S - (time.monotonic() - started) - 60.0)
        child = Child([script] + common + ["--budget", f"{budget:.1f}"])
        child.watch(deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
        reap_orphans()

    setup = child.of("setup")
    if not setup:
        print("the workload process did not finish setting up",
              file=sys.stderr)
        return 1
    if child.hung is None and child.proc.returncode not in (0, -9):
        print(f"workload process exited with {child.proc.returncode}",
              file=sys.stderr)
    ops = child.of("op")
    failed = sum(1 for o in ops if o["error"] is not None or not o["ok"])
    attempted = len(ops)
    lost = 0
    if child.hung is not None or not child.of("end"):
        # the operation in flight, plus those the run could no longer
        # attempt in its remaining time at the pace it had kept
        flight = child.hung or child.in_flight() or {}
        t_hung = flight.get("t", args.seconds)
        done = [o for o in ops if o["error"] is None]
        pace = ((t_hung / len(done)) if done
                else setup[0]["roundtrip_s"])
        lost = 1 + max(0, math.ceil((args.seconds - t_hung) / pace) - 1)
    attempted += lost
    failed += lost
    setups = [r["setup_s"] for r in setup_records + setup]
    correct = (all(o["ok"] for o in ops if o["error"] is None)
               and all(r["ok"] for r in setup_records + setup))

    env = (child.of("env") or [{}])[0].get("env", {})
    l3 = env.get("l3_bytes")
    fields = {}
    for b in child.of("begin"):
        fields.setdefault(b["field"], {
            "shape": b["shape"], "mb": b["in_bytes"] / 1e6,
            "l3_multiple": b["in_bytes"] / l3 if l3 else None})
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "env": env, "fields": fields,
        "setups_s": setups,
        "digests": [[o["i"], o["digest"]] for o in ops
                    if o["error"] is None],
        "engines": sorted({o["engine"] for o in ops if "engine" in o}),
        "errors": [[o["i"], o["error"]] for o in ops if o["error"]],
        "hung_op": None if child.hung is None else child.hung.get("i"),
        "lost_ops": lost,
        "layer_calls": layer_calls(ops) if args.trace else None,
    }
    metrics = (per_layer_metrics(ops) if args.trace
               else end_to_end_metrics(ops, setups))
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
