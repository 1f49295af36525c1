"""stackzeta benchmark: three seeded workloads, timed cold, with a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload power-axioms --seed 1 --seconds 60 --trace 0

Each pass runs the whole request stream of the workload in a fresh Python
process (``bench/worker.py``): single thread, one client, closed loop, empty
caches.  The run repeats passes until ``--seconds`` would be exceeded (at
least one), scales each pass's timings by a reference job timed in the same
process (see ``scaled``), and reports the median pass.  With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and prints the per-layer metrics.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``bench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
#: Build products, traces and results, all inside the checkout.
OUT_DIR = ".bench_build"
#: (metric, unit) of the end-to-end metrics, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Seconds that ``worker.reference_seconds`` takes on a quiet core of a
#: two-core x86-64 host with Python 3.11.7.  Timings are scaled to a host
#: of that speed; see ``scaled``.
REFERENCE_S = 0.2
#: No run may take longer than this, builds included.
RUN_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 1


def metadata(args, requests: int, passes: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk("src")):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src.update(name.encode() + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "requests_per_pass": requests,
        "passes": passes,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_pass(args, env, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        cmd += ["--trace", "--spans", os.path.join(OUT_DIR, "traces", f"{args.workload}.spans.tsv.gz")]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("a pass did not finish within the run's time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def percentile_ms(latencies, index: int) -> float:
    return statistics.quantiles(latencies, n=10)[index] * 1000.0


def unscaled(p) -> dict:
    return {
        "setup_s": p["setup_s"],
        "throughput_rps": p["requests"] / p["wall_s"],
        "latency_p50_ms": percentile_ms(p["latencies_s"], 4),
        "latency_p90_ms": percentile_ms(p["latencies_s"], 8),
        "peak_rss_mb": p["peak_rss_kb"] / 1024.0,
    }


def scaled(p) -> dict:
    """One pass's metrics at the speed of a host on which the reference job
    takes REFERENCE_S.

    A shared host's speed drifts by a third over minutes, in spells longer
    than a run, so no choice among a run's passes removes it.  Each pass
    times the reference job in its own process just before and just after
    its stream, and its timings are divided by how much slower than
    REFERENCE_S the job ran on average.
    """
    slow = p["reference_s"] / REFERENCE_S
    out = unscaled(p)
    out["throughput_rps"] *= slow
    for name in ("setup_s", "latency_p50_ms", "latency_p90_ms"):
        out[name] /= slow
    return out


def end_to_end(passes) -> tuple[dict, dict, dict]:
    """The run's value of each end-to-end metric (the median pass), and the
    scaled and unscaled values of every pass."""
    per_pass = {name: [scaled(p)[name] for p in passes] for name, _ in END_TO_END}
    raw = {name: [unscaled(p)[name] for p in passes] for name, _ in END_TO_END}
    return {name: statistics.median(v) for name, v in per_pass.items()}, per_pass, raw


def per_layer(plain, traced) -> tuple[dict, list]:
    """Medians of the traced passes' layer metrics, and any count that differed."""
    values = [tracer.layer_metrics(p["layers"]) for p in traced]
    out, unsteady = {}, []
    for name, _, _ in tracer.PER_LAYER:
        if name == "bench.trace_overhead_frac":
            continue
        series = [v[name] for v in values]
        if name.endswith("_s"):
            out[name] = statistics.median(series)
        else:
            out[name] = series[0]
            if any(x != series[0] for x in series):
                unsteady.append(name)
    traced_wall = statistics.median(p["wall_s"] / p["reference_s"] for p in traced)
    out["bench.trace_overhead_frac"] = traced_wall / statistics.median(p["wall_s"] / p["reference_s"] for p in plain) - 1.0
    return out, unsteady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not os.path.isfile(os.path.join("src", "stackzeta", "__init__.py")):
        return fail("run from the root of a stackzeta checkout: src/stackzeta is missing")
    os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.abspath("src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.abspath(os.path.join(OUT_DIR, "pycache")),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    build = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src", HERE], env=env, capture_output=True, text=True,
        timeout=RUN_LIMIT_S,
    )
    if build.returncode != 0:
        return fail(f"compiling the sources failed: {build.stdout}{build.stderr}")

    plain, traced, rounds = [], [], []
    start = time.monotonic()
    try:
        while True:
            t = time.monotonic()
            plain.append(run_pass(args, env, False, deadline))
            if args.trace:
                traced.append(run_pass(args, env, True, deadline))
            rounds.append(time.monotonic() - t)
            if time.monotonic() + statistics.median(rounds) > start + args.seconds:
                break
    except RuntimeError as exc:
        return fail(str(exc))

    passes = plain + traced
    attempted = sum(p["requests"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    requests = plain[0]["requests"]
    meta = metadata(args, requests, len(plain))
    print(f"{args.workload} seed={args.seed}: {len(plain)} cold passes of {requests} requests"
          f" (fresh process each, closed loop, 1 client)" + (f", {len(traced)} traced" if traced else ""))
    e2e, per_pass, raw = end_to_end(plain)
    for name, unit in END_TO_END:
        note = f"  (unscaled {statistics.median(raw[name]):.4f})"
        if name.startswith("latency"):
            note += f"  ({requests} samples per pass)"
        print(f"  {name:<16} {e2e[name]:12.4f} {unit}{note}")
    print(f"  {'failed_frac':<16} {failed / attempted:12.4f} frac  ({failed} of {attempted})")
    for p in passes:
        for msg in p["failures"]:
            print(f"  FAILED {msg}")

    if args.trace:
        metrics, unsteady = per_layer(plain, traced)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        for name, _, _ in tracer.PER_LAYER:
            print(f"  {name:<44} {metrics[name]:14.6g} {units[name]}")
        if unsteady:
            print(f"  counts that differed between traced passes: {', '.join(unsteady)}")
        report = {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in tracer.PER_LAYER}
    else:
        unsteady = []
        report = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    print("meta " + json.dumps(meta))
    result = {"correct": failed == 0 and not unsteady, "attempted": attempted, "failed": failed, "metrics": report}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, "results", name), "w") as fh:
        json.dump({"meta": meta, "failed_frac": failed / attempted, "per_pass": per_pass, "per_pass_unscaled": raw,
                   "reference_s": [p["reference_s"] for p in plain], **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
