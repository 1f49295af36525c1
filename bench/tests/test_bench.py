"""Tests of the benchmark itself: its checkers, its tracer and its streams.

Run from the root of the repository with ``python3 -m pytest bench/tests``.
"""

import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import stackzeta as sz
import stackzeta.cli  # noqa: F401  (the tracer wraps the CLI module too)
import tracer
import workloads as w
from conftest import BENCH, ROOT

# -- the independent expected values agree with each other ----------------------------


def test_adams_series_matches_closed_forms():
    for t in w.POINTS:
        bgl1 = [t ** (k * k - k) / w.gl_value(k, t) for k in range(7)]
        assert w.adams_series(lambda r: 1 / w.gl_value(1, t ** r), 6) == bgl1
        twisted = w.twisted_zeta_values(2, 3, 6, t)
        assert w.adams_series(lambda r: t ** (-2 * r) / (1 - t ** (-3 * r)), 6) == twisted


def test_laurent_terms_match_tree_values():
    tree = ("-", ("*", ("GL", 3), ("Gr", 2, 5)), ("^", ("+", ("q",), ("int", 2)), 3))
    terms = w.laurent_terms(tree)
    for t in w.POINTS:
        assert sum(c * t ** d for d, c in terms.items()) == w.tree_value(tree, t)
        assert sz.parse_class(w.render(tree)).eval_rational(t) == w.tree_value(tree, t)


# -- negative controls: each checker flags a wrong answer -------------------------------


def test_zeta_deep_checker_flags_a_flipped_fraction():
    req = ("zeta", ("twisted", ((2, 1, 0, 1), (-1, 0, 2, 1))), 5)
    output = w.zeta_deep_run(sz, w.zeta_deep_prepare(sz, req))
    expected = w.zeta_deep_expected(req)
    assert w.zeta_deep_verify(req, output, expected) is None
    t = w.POINTS[1]
    expected[t] = list(expected[t])
    expected[t][3] = -expected[t][3]
    assert w.zeta_deep_verify(req, output, expected) is not None


def test_zeta_deep_checker_covers_every_kind_of_class():
    for req in [("sym", ("bgl", 1), 5), ("opposite", ("bgl", 2), 5), ("zeta", ("twisted", ((3, 2, 0, 2),)), 5)]:
        output = w.zeta_deep_run(sz, w.zeta_deep_prepare(sz, req))
        assert w.zeta_deep_check(req, output) is None
        assert w.zeta_deep_check(req[:2] + (req[2] - 1,), output) is not None


def test_power_axioms_checker_flags_the_tampered_provider():
    def tampered(sz_, ring):
        return sz.verify._tampered(w.default_provider(sz_, ring))

    flagged = {}
    for req in w.power_axioms_stream(0):
        if req[1] != "hd":
            continue
        prepared = w.power_axioms_prepare(sz, req)
        assert w.power_axioms_check(req, w.power_axioms_run(sz, prepared)) is None
        bad = w.power_axioms_check(req, w.power_axioms_run(sz, prepared, tampered)) is not None
        flagged.setdefault(req[0], []).append(bad)
    # a consistent wrong structure still satisfies some axioms; A^0 = 1 never holds
    assert all(flagged[1])
    assert sum(map(sum, flagged.values())) > len(flagged[1])


def test_cli_mix_checker_flags_a_mutated_eval_value():
    req = next(r for r in w.cli_mix_stream(0) if r[0] == "eval")
    output = w.cli_mix_run(sz, w.cli_mix_prepare(sz, req))
    expected = w.cli_mix_expected(req)
    assert w.cli_mix_verify(req, output, expected) is None
    assert w.cli_mix_verify(req, output, expected + Fraction(1, 7)) is not None


def test_cli_mix_checker_flags_a_failed_command():
    req = ("eval", ("BGL", 1), "1")  # a pole: the CLI exits with a domain error
    output = w.cli_mix_run(sz, w.cli_mix_prepare(sz, req))
    assert output[0] != 0
    assert w.cli_mix_verify(req, output, Fraction(0)) is not None


# -- tracer ---------------------------------------------------------------------------------


def _namespace_snapshot():
    """Every attribute of every stackzeta module and of the classes they define."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "stackzeta" or name.startswith("stackzeta."):
            snap[name] = dict(vars(mod))
            for attr, obj in vars(mod).items():
                if inspect.isclass(obj) and obj.__module__ == name:
                    snap[f"{name}.{attr}"] = dict(vars(obj))
    return snap


def test_tracer_wraps_lookup_sites_and_restores_originals():
    before = _namespace_snapshot()
    originals = {
        "zeta.block_distinct_sum": sz.zeta.block_distinct_sum,
        "zeta.zeta_series": sz.zeta.zeta_series,
        "cli.zeta_series": sz.cli.zeta_series,
        "cli.parse_class": sz.cli.parse_class,
        "__radd__": sz.MotivicClass.__radd__,
        "__rmul__": sz.IntLaurent.__rmul__,
    }
    t = tracer.Tracer()
    t.install(sz)
    try:
        assert sz.zeta.block_distinct_sum is not originals["zeta.block_distinct_sum"]
        assert sz.zeta.zeta_series is not originals["zeta.zeta_series"]
        assert sz.cli.zeta_series is sz.zeta.zeta_series
        assert sz.cli.parse_class is not originals["cli.parse_class"]
        assert sz.MotivicClass.__radd__ is not originals["__radd__"]
        assert sz.IntLaurent.__rmul__ is not originals["__rmul__"]
        t.begin_request(0, "test")
        provider = sz.motivic_provider()
        sz.power(sz.parse_series("1 + T", 3), sz.bgl_class(2), provider)
        1 + sz.MotivicClass.one()
        t.end_request()
    finally:
        t.uninstall()
    assert _namespace_snapshot() == before
    names = t.summary()["names"]
    # recursion and the provider's lambda look zeta_series up in the module
    assert names["zeta.zeta_series"][0] >= 3
    assert names["rfunctions.block_distinct_sum"][0] > 0
    assert names["motivic.MotivicClass.__radd__"][0] == 1
    assert names["request"][0] == 1


# -- determinism -------------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_streams_repeat_per_seed_and_differ_across_seeds(name):
    stream = w.WORKLOADS[name].stream
    assert stream(7) == stream(7)
    assert stream(7) != stream(8)
    assert len(stream(7)) >= 100


def _traced_pass(name, seed):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", name, "--seed", str(seed), "--trace"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    procs = [_traced_pass(name, 3), _traced_pass(name, 3)]
    results = []
    for proc in procs:
        out, _ = proc.communicate(timeout=170)
        assert proc.returncode == 0
        results.append(json.loads(out))
    counts = []
    for result in results:
        assert result["failed"] == 0, result["failures"]
        metrics = tracer.layer_metrics(result["layers"])
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


# -- scaling to the reference speed -------------------------------------------------------------


def test_scaling_takes_out_the_host_speed():
    latencies = [i / 1000 for i in range(1, 101)]
    p = {"setup_s": 0.05, "requests": 100, "wall_s": 2.0, "latencies_s": latencies,
         "peak_rss_kb": 2048, "reference_s": 2 * run.REFERENCE_S}
    raw, scaled = run.unscaled(p), run.scaled(p)
    assert scaled["throughput_rps"] == pytest.approx(2 * raw["throughput_rps"])
    for name in ("setup_s", "latency_p50_ms", "latency_p90_ms"):
        assert scaled[name] == pytest.approx(raw[name] / 2)
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"] == 2.0


# -- the benchmark definition matches the code -------------------------------------------------


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {x["name"] for x in spec["workloads"]} <= set(w.WORKLOADS)
