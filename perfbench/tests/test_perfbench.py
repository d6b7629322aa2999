"""Self-tests of the benchmark, on tiny (``--smoke``) fields.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that every layer wrapper fires on the workloads that reach
its layer and never on those that cannot, that a seed fixes every
container byte, that a hung operation is bounded, counted and leaves no
process behind, and that ``BENCHMARK.json`` names exactly what the
benchmark prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from layers import COMPRESS_LAYERS, DECOMPRESS_LAYERS, HOME  # noqa: E402
from layers import PREFETCH_WAIT, per_layer_metric_names  # noqa: E402

LAYERS = set(COMPRESS_LAYERS + DECOMPRESS_LAYERS) | {PREFETCH_WAIT}
STREAM = {"stream.write", "stream.read", PREFETCH_WAIT}
HUFFMAN = {"huffman.codebook", "huffman.encode", "huffman.decode",
           "bitio.pack", "bitio.unpack"}
BITSHUFFLE = {"bitshuffle.encode", "bitshuffle.decode"}
SECONDARY = {"secondary.encode", "secondary.decode"}
CONTAINER = {"container.assemble", "container.parse"}

#: layers each workload must reach, and layers it can never reach.
#: stream-fzms compresses inside forked pool workers, where wrappers
#: cannot be seen, so only its parent-side layers are required.
EXPECT = {
    "snap-default": (
        {"predict", "reconstruct"} | HUFFMAN | CONTAINER,
        BITSHUFFLE | SECONDARY | STREAM),
    "snap-speed": (
        {"predict", "reconstruct"} | BITSHUFFLE | CONTAINER,
        HUFFMAN | SECONDARY | STREAM | {"histogram"}),
    "quality-lz": (
        {"preprocess", "predict", "histogram", "reconstruct"} | HUFFMAN
        | SECONDARY | CONTAINER,
        BITSHUFFLE | STREAM),
    "stream-fzms": (
        STREAM | {"reconstruct", "huffman.decode", "bitio.unpack",
                  "container.parse"},
        BITSHUFFLE | SECONDARY),
}


def bench(*args: str, cwd: Path = ROOT, timeout: float = 175.0):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def result(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def live_processes(needle: str) -> list[int]:
    """PIDs whose command line mentions ``needle`` (zombies excluded)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmd = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
            state = (entry / "stat").read_text().split(") ")[1][0]
        except OSError:
            continue
        if needle.encode() in cmd and state != "Z":
            pids.append(int(entry.name))
    return pids


@pytest.fixture(scope="module")
def traced():
    """One traced smoke run per workload."""
    return {name: result(bench("--workload", name, "--seed", "3",
                               "--seconds", "0.5", "--trace", "1",
                               "--smoke"))
            for name in EXPECT}


@pytest.mark.parametrize("workload", sorted(EXPECT))
def test_wrappers_fire_where_expected(traced, workload):
    record, out = traced[workload]
    calls = record["layer_calls"]
    must, never = EXPECT[workload]
    fired = {layer for layer, by_dir in calls.items()
             if sum(by_dir.values())}
    assert must <= fired, f"wrappers never fired: {sorted(must - fired)}"
    assert not fired & never, f"fired where impossible: {fired & never}"
    for layer, by_dir in calls.items():
        home = "compress" if layer == PREFETCH_WAIT else HOME[layer]
        assert set(by_dir) == {home}, (layer, by_dir)
    assert out["correct"]
    names = {name for name, _ in per_layer_metric_names()}
    assert set(out["metrics"]) == names


def test_every_layer_fires_somewhere(traced):
    fired = set()
    for record, _ in traced.values():
        fired |= set(record["layer_calls"])
    assert fired == LAYERS


def test_no_stream_cache_hits_on_fresh_input(traced):
    for name, (_, out) in traced.items():
        for cache in ("encode_streams", "decode_streams"):
            assert out["metrics"][f"cache.{cache}.hits"]["value"] in (0, None)


def test_seed_fixes_containers_and_quality():
    args = ("--workload", "snap-default", "--seconds", "0.5", "--trace", "0",
            "--smoke")
    rec_a, out_a = result(bench(*args, "--seed", "5"))
    rec_b, out_b = result(bench(*args, "--seed", "5"))
    rec_c, _ = result(bench(*args, "--seed", "6"))
    n = min(len(rec_a["digests"]), len(rec_b["digests"]))
    assert n >= 3
    assert rec_a["digests"][:n] == rec_b["digests"][:n]
    for metric in ("ratio", "psnr_db"):
        assert out_a["metrics"][metric] == out_b["metrics"][metric]
    assert rec_a["digests"][0] != rec_c["digests"][0]
    assert out_a["correct"] and out_a["failed"] == 0


def test_stream_run_is_bounded_and_leaves_no_process():
    t0 = time.monotonic()
    record, out = result(bench("--workload", "stream-fzms", "--seed", "1",
                               "--seconds", "1", "--trace", "0", "--smoke"))
    assert time.monotonic() - t0 < 175
    completed = len(record["digests"])
    assert out["attempted"] == completed + out["failed"], record
    if record["hung_op"] is not None:
        assert out["failed"] >= 1 + len(record["errors"]), record
    assert not live_processes("perfbench/workload.py")


def test_deadline_kills_and_reaps_forked_workers(tmp_path):
    script = tmp_path / "stall.py"
    script.write_text(
        "import json, os, sys, time\n"
        "print(json.dumps({'kind': 'begin', 'i': 0, 't': 0.0}), flush=True)\n"
        "if os.fork() == 0:\n"
        "    time.sleep(600)\n"
        "time.sleep(600)\n")
    run.become_subreaper()
    child = run.Child([str(script), "stall-marker"])
    t0 = time.monotonic()
    child.watch(lambda c: t0 + 2.0)
    assert time.monotonic() - t0 < 30
    assert child.hung is not None and child.hung["i"] == 0
    assert not live_processes("stall-marker")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "snap-default", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path,
                 timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_what_is_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == per_layer_metric_names()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert os.path.normpath(spec["command"][1]) == "perfbench/run.py"
