"""One batch of one workload, in a fresh interpreter, so every batch starts
with cold caches.  Prints one JSON object on stdout.

    python3 bench/worker.py --workload exact --seed 1 --batch 0 --trace 0 \\
        --launched <time.monotonic() of the parent just before the launch>

The batch's queries run back to back on one thread.  Answers are checked
after the last query, outside the timed region and with tracing removed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Time of calibrate() on a 2-vCPU Intel Xeon virtual machine running at full
# speed.  On a shared machine the same work takes up to twice as long in
# phases of tens of seconds, so every measured time t is also reported as
# t * REFERENCE_S / c, with c the calibration time measured around it.
REFERENCE_S = 0.0045


def calibrate() -> float:
    """Time of a fixed loop of tuple, dict, sort, set and bit work, the mix
    the library itself runs; it never calls into sierpack."""
    t0 = time.perf_counter()
    acc = 0
    for r in range(8):
        d = {}
        for i in range(1000):
            t = (i, i * 7 % 13, i ^ r)
            d[t] = sorted(t)
            acc += (1 << (i % 40)).bit_length()
        acc += len(set(d))
    return time.perf_counter() - t0


def measure(workload, queries, tracer=None, launched=None) -> dict:
    """Run, time and then check one batch of queries.

    Each query is timed between two calibrate() calls, whose mean gives the
    machine's speed factor for it.  A query that raises, or whose answer
    fails its check, counts as failed.  ``launched`` is the monotonic time
    the interpreter was started; setup time runs from there to the first
    query.
    """
    answers, times, calib, errors = [], [], [], {}
    start = time.monotonic()
    before = first = calibrate()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        t0 = time.perf_counter()
        try:
            answers.append(workload.run(q))
        except Exception as exc:  # a failing query is counted, not fatal
            answers.append(None)
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        after = calibrate()
        calib.append((before + after) / 2)
        before = after
    wall = sum(times)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = [REFERENCE_S / c for c in calib]
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(scale)

    failures, summaries = [], []
    for i, (q, answer) in enumerate(zip(queries, answers)):
        reason = errors.get(i)
        if reason is None:
            try:
                reason = workload.check(q, answer)
                summary = workload.summary(q, answer)
            except Exception as exc:  # an unreadable answer fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"{q.label}: {reason}")
            summary = [q.label, "failed"]
        summaries.append(summary)

    setup = None if launched is None else start - launched
    return {
        "setup_s": setup,
        "setup_ref_s": None if setup is None else setup * REFERENCE_S / first,
        "wall_s": wall,
        "query_s": times,
        "query_ref_s": [t * f for t, f in zip(times, scale)],
        "peak_rss_mb": peak_kib / 1024,
        "attempted": len(queries),
        "failed": len(failures),
        "failures": failures,
        "digest": digest(summaries),
        "layers": layers,
        "absent": [] if tracer is None else tracer.absent,
    }


def digest(summaries: list) -> str:
    """SHA-256 of a batch's answers, to compare two commits' behaviour."""
    text = json.dumps(summaries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def use_checkout_source() -> None:
    """Import sierpack from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import sierpack
    if Path(sierpack.__file__).resolve().parent != ROOT / "src" / "sierpack":
        raise ImportError(f"sierpack imported from {sierpack.__file__}, "
                          f"not from {ROOT / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--batch", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, default=None)
    args = ap.parse_args(argv)

    use_checkout_source()
    import workloads
    from spans import Tracer
    workload = workloads.WORKLOADS[args.workload]
    queries = workload.make(
        workloads.batch_rng(args.workload, args.seed, args.batch))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(extra_modules=(workloads,))
    result = measure(workload, queries, tracer, args.launched)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
