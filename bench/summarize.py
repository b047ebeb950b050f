"""Summarize run records from .bench_results/ across seeds.

    python3 bench/summarize.py [--out summary.json] [record.json ...]

For each workload and mode (trace 0 or 1) it gives, per metric, the median
of the runs and the quartiles from ``statistics.quantiles(values, n=4)``,
with ``spread`` = (q3 - q1) / median, plus each seed's answers digest.
With no files named it reads every record in .bench_results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    groups: dict[str, list[dict]] = {}
    for r in records:
        groups.setdefault(f"{r['workload']}/trace{r['trace']}", []).append(r)
    out = {}
    for key, runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (med, med, med)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / abs(med) if med else 0.0}
        first = runs[0]
        out[key] = {
            "runs": len(runs),
            "seconds": first["seconds"],
            "commit": first["commit"],
            "source_sha256": first["source_sha256"],
            "python": first["python"],
            "nproc": first["nproc"],
            "fail_ratio": sum(r["fail_ratio"] for r in runs) / len(runs),
            "answers_digest": {str(r["seed"]): r["answers_digest"]
                               for r in runs},
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("records", nargs="*", type=Path)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    paths = args.records or sorted((ROOT / ".bench_results").glob("*.json"))
    if not paths:
        print("summarize: no run records", file=sys.stderr)
        return 2
    summary = summarize([json.loads(p.read_text()) for p in paths])
    text = json.dumps(summary, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    for key, s in summary.items():
        print(f"{key}: {s['runs']} runs, fail ratio {s['fail_ratio']}")
        for name, m in s["metrics"].items():
            print(f"  {name:42s} median {m['median']:.6g} "
                  f"spread {m['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
