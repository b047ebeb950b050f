"""The sierpack benchmark.

    python3 bench/run.py --workload map-opt --seed 1 --seconds 20 --trace 0

A run measures one workload (``map-opt``, ``exact`` or ``recognize``; see
workloads.py) for about ``--seconds`` seconds.  It launches batches one
after another, each in a fresh interpreter (worker.py) on one thread, so
every batch starts with cold caches and pays the import and input
generation a command-line call pays.  Batch ``b`` of seed ``s`` always gets
the same inputs.  At least MIN_BATCHES batches run, and no new batch starts
once the next one would end past ``--seconds`` (or past HARD_LIMIT_S).

Times are reported in reference seconds.  On a shared machine the same
work can take twice as long for tens of seconds at a time, so each query's
time t is scaled by REFERENCE_S / c, with c the time of a fixed calibration
loop run next to it (worker.py).  On an unloaded machine like the one
REFERENCE_S was taken on, reference seconds are seconds; the unscaled
values go to the run record.

End-to-end metrics (``--trace 0``), medians over the run's batches:

* ``wall_s``       time to finish one batch of queries (see batch_wall);
* ``query_p50_s``  median time of one query, over all the run's queries;
* ``query_tail_s`` the highest percentile of query time that keeps at least
                   TAIL_BEYOND queries beyond it (percentile in the metadata);
* ``peak_rss_mb``  ``ru_maxrss`` of the batch's process at its last query;
* ``setup_s``      interpreter launch to the first query: starting Python,
                   importing sierpack and generating the inputs.

Every answer is checked after the batch's last query, outside the timed
region.  Queries that raise or fail their check are counted in ``failed``;
``failed / attempted`` is the run's fail ratio.

``--trace 1`` runs each batch twice, untraced and then traced (spans.py),
and reports the per-layer metrics, medians over the traced batches (span
times in reference seconds too), plus ``trace_overhead_s``, traced minus
untraced ``wall_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the
run's metadata (commit, Python version, nproc, seed, fail ratio, failures,
answer digests, absent metrics); .bench_results/ gets the full record,
per-batch values included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("map-opt", "exact", "recognize")
MIN_BATCHES = 4          # untraced batches per run; 4 x 25 queries
MIN_TRACED_BATCHES = 2   # traced batches per --trace 1 run
TAIL_BEYOND = 10
HARD_LIMIT_S = 150.0
E2E_UNITS = {"wall_s": "s", "query_p50_s": "s", "query_tail_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def run_worker(workload: str, seed: int, batch: int, traced: bool,
               timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--batch", str(batch),
           "--trace", "1" if traced else "0"]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launched", repr(launched)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"batch {batch} ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"batch {batch} exited with {proc.returncode}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"batch {batch} printed no result") from None


def tail_percentile(queries_per_batch: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND of the queries of
    MIN_BATCHES batches beyond it."""
    n = MIN_BATCHES * queries_per_batch
    return math.floor(100 * (n - TAIL_BEYOND) / n)


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def commit_id() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over src/sierpack's Python files, naming the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sierpack").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def timeout_left(started: float) -> float:
    # the last batch may start just before HARD_LIMIT_S; it still ends
    # well within the 180 s a run may take
    return max(HARD_LIMIT_S - (time.monotonic() - started), 10.0)


def measure_run(workload: str, seed: int, seconds: float, trace: bool):
    plain, traced = [], []
    started = time.monotonic()
    need = MIN_TRACED_BATCHES if trace else MIN_BATCHES
    batch = 0
    while True:
        plain.append(run_worker(workload, seed, batch, False,
                                timeout_left(started)))
        if trace:
            traced.append(run_worker(workload, seed, batch, True,
                                     timeout_left(started)))
        batch += 1
        elapsed = time.monotonic() - started
        step = elapsed / batch
        if batch >= need and elapsed + step > seconds:
            break
        if elapsed + step > HARD_LIMIT_S:
            break
    return plain, traced


def batch_wall(batches: list[dict], key: str = "query_ref_s") -> float:
    """Time of one batch, as the sum over its query slots of each slot's
    median over the batches.  Every batch runs the same menu of slots, and
    a slot's median drops the outliers left where the machine changed speed
    in the middle of a query."""
    slots = zip(*(b[key] for b in batches))
    return sum(statistics.median(slot) for slot in slots)


def end_to_end(plain: list[dict]) -> tuple[dict, dict]:
    times = [t for b in plain for t in b["query_ref_s"]]
    pct = tail_percentile(plain[0]["attempted"])
    values = {
        "wall_s": batch_wall(plain),
        "query_p50_s": statistics.median(times),
        "query_tail_s": nearest_rank(times, pct),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in plain),
        "setup_s": statistics.median(b["setup_ref_s"] for b in plain),
    }
    raw = {"wall_s": batch_wall(plain, "query_s"),
           "setup_s": statistics.median(b["setup_s"] for b in plain)}
    return values, {"tail_percentile": pct, "query_samples": len(times),
                    "unscaled": raw}


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
    values = {}
    for name in metric_units():
        got = [b["layers"][name] for b in traced if name in b["layers"]]
        if got:
            values[name] = statistics.median(got)
    absent = sorted(set(metric_units()) - set(values))
    values["trace_overhead_s"] = batch_wall(traced) - batch_wall(plain)
    return values, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sierpack" / "__init__.py").is_file():
        print(f"bench: no sierpack source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        plain, traced = measure_run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    batches = plain + traced
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    if args.trace:
        unit = dict(metric_units(), trace_overhead_s="s")
        values, absent = per_layer(plain, traced)
        extra = {"absent": absent}
    else:
        unit = E2E_UNITS
        values, extra = end_to_end(plain)
    digests = [b["digest"] for b in plain]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit_id(), "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "batches": len(plain), "traced_batches": len(traced),
        "fail_ratio": failed / attempted,
        "failures": [f for b in batches for f in b["failures"]][:50],
        # batches 0..MIN_BATCHES-1 run on every commit, so their digests
        # compare the answers of two commits
        "answers_digest": hashlib.sha256(
            "".join(digests[:MIN_BATCHES]).encode()).hexdigest(),
        "batch_digests": digests,
        "batch_query_ref_s": [b["query_ref_s"] for b in batches],
        "batch_wall_s": [b["wall_s"] for b in batches],
        "batch_setup_s": [b["setup_s"] for b in batches],
        "batch_peak_rss_mb": [b["peak_rss_mb"] for b in batches],
        **extra,
        "metrics": values,
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items()
                      if k != "metrics" and not k.startswith("batch_")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
