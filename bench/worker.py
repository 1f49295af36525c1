"""One cold pass of one workload, in a fresh process.

Run by ``run.py`` as ``python3 bench/worker.py --workload W --seed N
[--trace] [--spans PATH]`` with ``src`` on PYTHONPATH.  It times the import of
stackzeta (set-up), prepares every request, sends them one after another
(closed loop, one client), checks every output after the stream, and prints
one JSON object on stdout.  Just before and just after the stream it times
a fixed reference job, which tells how fast the host ran during the pass.  With
``--trace`` the stream runs under the tracer, which is removed again before
the checks.
"""

import time

_T0 = time.perf_counter()

import stackzeta  # noqa: E402  (the import is what set-up time measures)
import stackzeta.cli  # noqa: E402,F401

SETUP_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402


def reference_seconds() -> float:
    """Time of a fixed pure-Python job shaped like the library's kernels:
    sparse integer polynomial products, tuple-keyed dicts and exact fractions.
    It never calls the library, so it measures only how fast the host runs
    at the time; ``run.py`` scales the pass's timings by it."""
    start = time.perf_counter()
    for _ in range(30):
        poly = {i: (i * 7919) % 97 - 48 for i in range(48)}
        acc: dict = {}
        for _ in range(15):
            for d1, c1 in poly.items():
                for d2, c2 in poly.items():
                    acc[d1 + d2] = acc.get(d1 + d2, 0) + c1 * c2
        grid: dict = {}
        for i in range(70):
            for j in range(70):
                grid[(i, j)] = grid.get((j, i), 0) + i * j
        x = Fraction(0)
        for k in range(1, 500):
            x += Fraction(k, k + 1)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file to write the spans to (with --trace)")
    args = parser.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(stackzeta.__file__).startswith(src + os.sep):
        print(f"stackzeta was imported from {stackzeta.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    stream = wl.stream(args.seed)
    prepared = [wl.prepare(stackzeta, req) for req in stream]

    reference = [reference_seconds()]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(stackzeta)

    outputs, latencies, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    try:
        for rid, item in enumerate(prepared):
            if tracer:
                tracer.begin_request(rid, wl.group(stream[rid]))
            t = clock()
            try:
                outputs.append(wl.run(stackzeta, item))
            except Exception as exc:  # a raising request counts as failed, the stream goes on
                outputs.append(None)
                errors.append((rid, f"{type(exc).__name__}: {exc}"))
            latencies.append(clock() - t)
            if tracer:
                tracer.end_request()
        wall = clock() - start
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference.append(reference_seconds())

    failed = dict(errors)
    for rid, (req, out) in enumerate(zip(stream, outputs)):
        if rid not in failed:
            err = wl.check(req, out)
            if err:
                failed[rid] = err

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "requests": len(stream),
        "failed": len(failed),
        "failures": [f"request {rid}: {msg}" for rid, msg in sorted(failed.items())[:5]],
        "setup_s": SETUP_S,
        "wall_s": wall,
        "latencies_s": latencies,
        "peak_rss_kb": peak_rss_kb,
        "reference_s": sum(reference) / 2,
    }
    if tracer:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
