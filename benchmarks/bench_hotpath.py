"""Hot-path perf-regression bench (cold vs warmed caches/pool).

Measures the wall-clock effect of the hot-path machinery — the plan
caches, the buffer pool, shared-codebook sharding, the compiled
compress/decode plans and slab threads — via
:func:`repro.perf.regression.run_hotpath_suite`, with a new seeded field
for every timed call, and gates on
:func:`repro.perf.regression.check_regressions`: the warmed path must
never be slower than the cold path, and the compiled executors must be
identical to the interpreter (bytes out on the write side, values out
on the read side) and never slower.  The ``threaded`` section must stay
byte-identical to ``threads=1`` at every slab width on any machine, and
on runners with >= 4 cores its warm compiled compress must reach the
1.7x-vs-one-thread target; ``--strict`` additionally enforces the
fresh-input targets (``TARGET_*`` in :mod:`repro.perf.regression`).

Two entry points:

* under pytest (``pytest benchmarks/bench_hotpath.py``) it runs the quick
  suite with the session ``--warmup`` / ``--repeat`` knobs and asserts the
  no-regression gate;
* as a script (``PYTHONPATH=src python benchmarks/bench_hotpath.py``) it
  writes the JSON report — committed at the repo root as
  ``BENCH_pipeline.json`` — and exits non-zero on a regression.  CI runs
  this with ``--quick``; the committed report is regenerated with
  ``--strict`` so the tentpole speedup targets are enforced too.

Re-runs *append*: the previous report is folded into the ``"history"``
list (compact per-run records) while the latest full report stays at the
JSON root, so repeated local/CI runs build a timing series instead of
overwriting each other.  ``--fresh`` discards the accumulated history.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.perf.regression import (DEFAULT_REPEAT, DEFAULT_WARMUP,
                                   check_regressions, render_report,
                                   run_hotpath_suite, write_report)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_pipeline.json"


def test_hotpath_regression(timing):
    from _common import emit
    report = run_hotpath_suite(quick=True,
                               warmup=max(1, timing.warmup),
                               repeat=max(2, timing.repeat))
    emit("hotpath", render_report(report))
    failures = check_regressions(report)
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure cold vs warmed hot paths and write the "
                    "BENCH_pipeline.json report")
    parser.add_argument("--quick", action="store_true",
                        help="small field / fewer repeats (CI smoke)")
    parser.add_argument("--warmup", type=int, default=DEFAULT_WARMUP,
                        help="untimed calls before each measurement")
    parser.add_argument("--repeat", type=int, default=DEFAULT_REPEAT,
                        help="timed calls per measurement (median reported)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count for the sharded section")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help=f"report path (default {DEFAULT_OUT})")
    parser.add_argument("--strict", action="store_true",
                        help="also enforce the tentpole speedup targets")
    parser.add_argument("--fresh", action="store_true",
                        help="discard the report's accumulated run history "
                             "instead of appending to it")
    args = parser.parse_args(argv)

    report = run_hotpath_suite(quick=args.quick, warmup=max(0, args.warmup),
                               repeat=max(1, args.repeat),
                               workers=max(1, args.workers))
    write_report(report, args.out, fresh=args.fresh)
    print(render_report(report))
    print(f"wrote {args.out}")
    failures = check_regressions(report, strict=args.strict)
    for msg in failures:
        print(f"REGRESSION: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
