"""Null-sink observability overhead gate: serial SPMV blocks/sec.

The flight recorder's contract (``docs/observability.md``) is that
instrumentation is free when no recorder is installed: every hot site
does one ``current()`` call plus one ``.active``/``.enabled`` flag
check and nothing else. This benchmark holds the contract to a number.

It measures the serial engine on the same LP-instrumented 1024-block
SPMV that ``perf_smoke.py`` times — with the default ``NULL_RECORDER``
installed, exactly as any un-instrumented caller runs — and compares
blocks/sec against the committed ``BENCH_sim.json`` serial baseline.
``--check`` fails if throughput lands more than ``TOLERANCE`` (default
5 %) below baseline, i.e. if the disabled instrumentation costs more
than the acceptance budget.

As a sanity cross-check it also times one run with a live recorder
(MemorySink + metrics) and reports the enabled-path cost; that number
is informational, not gated — tracing is allowed to cost something.
(The telemetry sampler's cost is gated by ``perf_smoke.py``'s
``telemetry_overhead`` scenario.)

Set ``OBS_OVERHEAD_TOLERANCE`` (a float, e.g. ``0.15``) to widen the
gate on noisy shared CI runners.

Usage::

    PYTHONPATH=src python benchmarks/obs_overhead.py            # report
    PYTHONPATH=src python benchmarks/obs_overhead.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from perf_smoke import BASELINE_PATH, setup_spmv  # noqa: E402

import repro  # noqa: E402
from repro import obs  # noqa: E402

#: Overhead budget for ``--check``: fail below 95 % of baseline.
TOLERANCE = float(os.environ.get("OBS_OVERHEAD_TOLERANCE", "0.05"))

REPEATS = 5


def measure_serial(recorder: "obs.Recorder | None") -> dict:
    """Best-of-N serial SPMV blocks/sec under the given recorder."""
    previous = obs.install(recorder or obs.NULL_RECORDER)
    try:
        best = float("inf")
        n_blocks = 0
        for _ in range(REPEATS):
            device, lp_kernel, _ = setup_spmv(repro.make_engine("serial"))
            start = time.perf_counter()
            result = device.launch(lp_kernel)
            best = min(best, time.perf_counter() - start)
            n_blocks = result.n_completed
    finally:
        obs.install(previous)
    return {
        "n_blocks": n_blocks,
        "seconds": round(best, 6),
        "blocks_per_sec": round(n_blocks / best, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="gate against the committed BENCH_sim.json "
                             "serial baseline")
    args = parser.parse_args(argv)

    disabled = measure_serial(None)
    enabled = measure_serial(obs.Recorder(
        tracer=obs.Tracer(obs.MemorySink()),
        metrics=obs.MetricsRegistry(),
    ))
    ratio = enabled["blocks_per_sec"] / disabled["blocks_per_sec"]
    print(f"spmv serial, recorder off: "
          f"{disabled['blocks_per_sec']:12,.1f} blocks/sec")
    print(f"spmv serial, recorder on:  "
          f"{enabled['blocks_per_sec']:12,.1f} blocks/sec "
          f"({ratio:.2f}x, informational)")

    if not args.check:
        return 0
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; "
              "run benchmarks/perf_smoke.py first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    base = baseline["workloads"]["spmv"]["serial"]["blocks_per_sec"]
    floor = base * (1.0 - TOLERANCE)
    if disabled["blocks_per_sec"] < floor:
        print(f"OBS OVERHEAD REGRESSION: null-sink serial spmv "
              f"{disabled['blocks_per_sec']:,.1f} blocks/sec < "
              f"{floor:,.1f} (baseline {base:,.1f} - {TOLERANCE:.0%})",
              file=sys.stderr)
        return 1
    print(f"obs overhead check OK: {disabled['blocks_per_sec']:,.1f} >= "
          f"{floor:,.1f} blocks/sec "
          f"(baseline {base:,.1f} - {TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
