"""End-to-end benchmark entry point (see README.md and BENCHMARK.json).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--out FILE]

runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. Without ``--workload`` all four run in turn. ``--out``
appends each result to FILE, the input of ``compare.py``.

Everything the run writes (heaps, sockets, daemon logs, spans) lives in
``.bench_work/`` under the checkout root and is removed before exit,
also when a workload raises.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_work"

WORKLOADS = ("serve_mixed_mapped", "serve_mixed_sharded4",
             "serve_read_mapped", "crash_cycle")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def recorded_digests() -> dict:
    with open(HERE / "baseline.json") as fh:
        return json.load(fh)["sim_digest"]


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Run one workload in a scratch directory of its own."""
    import crash_cycle
    import serve

    work = WORK / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        if name == "crash_cycle":
            return crash_cycle.run(seed, seconds, trace, work)
        return serve.run(serve.SPECS[name], seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no concurrent run is using it
        except OSError:
            pass


def result_document(contract: dict, raw: dict, trace: bool) -> dict:
    """The contract's result object: declared metrics, with units."""
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    undeclared = sorted(set(raw["metrics"]) - set(units))
    if undeclared:
        raise RuntimeError("metrics measured but not declared in "
                           f"BENCHMARK.json: {undeclared}")
    # A layer that does none of this workload's work reads 0.
    metrics = {name: {"value": float(raw["metrics"].get(name, 0.0)),
                      "unit": unit} for name, unit in units.items()}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def append_result(path: str, record: dict) -> None:
    doc = {"runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].append(record)
    with open(path + ".tmp", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    os.replace(path + ".tmp", path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="default: all four, one after the other")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append the result(s) to this JSON file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import repro  # noqa: F401  (fail here, before any work, if absent)

    contract = load_contract()
    seconds = args.seconds if args.seconds is not None \
        else float(contract["run_seconds"])
    trace = bool(args.trace)
    ok = True
    for name in ([args.workload] if args.workload else WORKLOADS):
        raw = run_workload(name, args.seed, seconds, trace)
        doc = result_document(contract, raw, trace)
        ok = ok and doc["correct"]
        print(f"== {name}  seed={args.seed}  seconds={seconds:g}  "
              f"trace={int(trace)}  samples={raw['samples']}  "
              f"slowness={raw['slowness']:.3f}  "
              f"attempted={doc['attempted']}  failed={doc['failed']}")
        for metric, entry in doc["metrics"].items():
            print(f"   {metric:44s} {entry['value']:14.4f} {entry['unit']}")
        for failure in raw["failures"]:
            print(f"   FAILED: {failure}", file=sys.stderr)
        digest = raw.get("sim_digest")
        if digest is not None:
            print(f"   sim_digest {digest}")
            want = recorded_digests().get(str(args.seed))
            if want is not None and want != digest:
                print("!" * 72 + f"\n!!! SIMULATED STATISTICS CHANGED: seed "
                      f"{args.seed} digests to {digest}, baseline.json "
                      f"records {want}\n" + "!" * 72, file=sys.stderr)
        if args.out:
            append_result(args.out, {
                "workload": name, "seed": args.seed, "seconds": seconds,
                "trace": int(trace), "sim_digest": digest,
                "slowness": raw["slowness"], **doc})
        print(json.dumps(doc))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
