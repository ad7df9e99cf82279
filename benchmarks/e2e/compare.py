"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

One row per (end-to-end metric x workload): each side's median and
quartiles over its runs, the ratio CHANGE / PARENT with its base, the
metric's bound from BENCHMARK.json, and a verdict:

``worse``       the change's median is worse than the parent's by more
                than the bound;
``unresolved``  not worse by the medians, but the parent's own runs
                spread (q3 - q1, as a share of the median) wider than
                the bound, and it is not the case that every run of the
                change beats every run of the parent;
``better``      the change wins at least nine tenths of the pairs (runs
                paired in file order, ties for neither) and the medians
                differ by more than the parent's q3 - q1;
``same``        anything else.

Exits 1 on any ``worse``, on any rise of failed / attempted, and on a
``crash_cycle`` seed present on both sides whose ``sim_digest`` differs
(the simulated statistics changed, so host times no longer compare).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import quartiles  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> dict[str, list[dict]]:
    """Untraced runs of a result file, by workload, in file order."""
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1, base, q3 = quartiles(parent)
    _, new, _ = quartiles(change)
    if sign * (new - base) / base > bound:
        return "worse"
    clean_sweep = all(sign * (c - p) < 0 for c in change for p in parent)
    if (q3 - q1) / base > bound and not clean_sweep:
        return "unresolved"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(new - base) > q3 - q1 \
            and sign * (new - base) < 0:
        return "better"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    bad = False
    print(f"{'workload':22s} {'metric':16s} "
          f"{'parent q1 / median / q3':>34s} "
          f"{'change q1 / median / q3':>34s} {'change/parent':>14s} "
          f"{'bound':>6s}  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        a_runs, b_runs = parent.get(workload, []), change.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload:22s} missing on one side "
                  f"({len(a_runs)} vs {len(b_runs)} runs)")
            bad = True
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            what = verdict(a, b, metric["better"], metric["bound"])
            bad = bad or what == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"{workload:22s} {name:16s} "
                  f"{qa[0]:10.4g} /{qa[1]:10.4g} /{qa[2]:10.4g} "
                  f"{qb[0]:10.4g} /{qb[1]:10.4g} /{qb[2]:10.4g} "
                  f"{qb[1] / qa[1]:7.3f}x of {qa[1]:<.4g} {metric['unit']}"
                  f" {metric['bound']:6.2f}  {what}")
        frac_a = sum(r["failed"] for r in a_runs) \
            / sum(r["attempted"] for r in a_runs)
        frac_b = sum(r["failed"] for r in b_runs) \
            / sum(r["attempted"] for r in b_runs)
        print(f"{workload:22s} {'failed/attempted':16s} {frac_a:34.6f} "
              f"{frac_b:34.6f}" + ("  ROSE" if frac_b > frac_a else ""))
        bad = bad or frac_b > frac_a
        digests_a = {r["seed"]: r["sim_digest"] for r in a_runs}
        for run in b_runs:
            want = digests_a.get(run["seed"])
            if want is not None and want != run["sim_digest"]:
                print(f"!!! SIMULATED STATISTICS CHANGED: {workload} seed "
                      f"{run['seed']}: parent {want}, change "
                      f"{run['sim_digest']}")
                bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
