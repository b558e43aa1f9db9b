"""Compare two benchmark ledgers; refuse when their machines or inputs differ.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

``run.py --ledger FILE`` appends one JSON row per run.  For every
workload and end-to-end metric this prints each side's median and
quartiles and the change of the medians against the bound
``BENCHMARK.json`` fixes.  It refuses to compare (exit 2) when the rows'
machine fingerprints differ (CPU, nproc, python, numpy, jit leg) or when
the two sides ran different inputs: other run lengths, or other
simulation outputs for the same seed.  Exit 1 flags a metric whose
median got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    rows = [json.loads(line) for line in path.read_text().splitlines() if line]
    return [row for row in rows if not row.get("trace")]


def refusal(base: list[dict], new: list[dict]) -> str | None:
    """Why the two ledgers cannot be compared, or None."""
    prints = {json.dumps(row["fingerprint"], sort_keys=True) for row in base + new}
    if len(prints) > 1:
        return "machine fingerprints differ:\n  " + "\n  ".join(sorted(prints))
    outputs: dict = {}
    for row in base + new:
        key = (row["workload"], row["seed"])
        previous = outputs.setdefault(key, row["outputs"])
        if previous != row["outputs"]:
            return f"{key[0]} seed {key[1]} has different simulation outputs"
    for workload in {row["workload"] for row in base + new}:
        seconds = {row["seconds"] for row in base + new if row["workload"] == workload}
        if len(seconds) > 1:
            return f"{workload} ran for different lengths {sorted(seconds)}"
    return None


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g} (n=1)"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] (n={len(values)})"


def main(argv: list[str]) -> int:
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    reason = refusal(base, new)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for workload in sorted({row["workload"] for row in base} & {row["workload"] for row in new}):
        print(workload)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            old = [r["metrics"][name]["value"] for r in base if r["workload"] == workload]
            cur = [r["metrics"][name]["value"] for r in new if r["workload"] == workload]
            change = statistics.median(cur) / statistics.median(old) - 1.0
            regressed = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
            worse += regressed
            print(f"  {name:<12} base {summary(old)}  new {summary(cur)}  "
                  f"change {change:+.1%} (bound {metric['bound']:.0%})"
                  f"{'  WORSE' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
