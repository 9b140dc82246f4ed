"""Tests for the benchmark's own machinery: the percentile rule, self
time from nested spans, seeded op sequences, and traced ≡ untraced."""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from perfbench import layers, workloads
from perfbench.run import traced_run, untraced_run
from perfbench.spans import SETUP, MethodProxy, Summary, Tracer, patched, self_times
from perfbench.stats import MIN_BEYOND, samples_beyond, spread, tail_percentile

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# -- percentile rule ---------------------------------------------------

@pytest.mark.parametrize("q", [50, 90, 99, 99.9])
def test_tail_percentile_needs_ten_samples_beyond(q):
    # smallest n with MIN_BEYOND samples ranked after the q-th percentile
    need = next(n for n in itertools.count(1) if samples_beyond(n, q) >= MIN_BEYOND)
    assert tail_percentile(list(range(need - 1)), q) is None
    assert tail_percentile(list(range(need)), q) == pytest.approx(
        np.percentile(np.arange(need), q)
    )


@pytest.mark.parametrize("n", [1, 7, 100, 999, 1000, 1001, 5000])
def test_samples_beyond_counts_ranks_after_the_percentile(n):
    pos = 0.99 * (n - 1)
    assert samples_beyond(n, 99) == sum(1 for i in range(n) if i > math.floor(pos))


def test_p99_support_counts_ranks_not_distinct_values():
    need = next(n for n in itertools.count(1) if samples_beyond(n, 99) >= MIN_BEYOND)
    assert tail_percentile([1.0] * (need - 1), 99) is None
    assert tail_percentile([1.0] * need, 99) == 1.0


def test_untraced_run_reports_no_tail_without_support(tiny):
    wl = workloads.make("switch-paper", tiny["switch-paper"])
    metrics, (attempted, failed), detail = untraced_run(wl, 3, 0.05, repeats=2)
    assert failed == 0 and attempted == detail["ops"] < 1000
    assert detail["op_p99_ms"] is None
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert detail["setup_samples"] == 2


def test_probe_runs_with_the_collector_off_and_restores_it(monkeypatch):
    import gc

    from perfbench import pace

    seen = []
    monkeypatch.setattr(pace, "_probe_kernel", lambda: seen.append(gc.isenabled()) or 0.02)
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            assert pace.probe() == 0.02
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
    assert seen == [False, False]


def test_every_workload_declares_its_setup_repeats():
    cat = workloads.catalog()
    assert all(w["setup_repeats"] >= 3 for w in cat["workloads"].values())


def test_lca_stream_asks_edges_only_on_the_skewed_part(tiny):
    wl = workloads.make("lca-mixed", tiny["lca-mixed"])
    state = wl.setup(1, None)
    ops = list(itertools.islice(wl.ops(state), 4000))
    edges = [u for is_edge, u, _ in ops if is_edge]
    assert 0 < len(edges) < len(ops)
    # edge queries come from the Zipf part, whose vertices are one hot set
    assert len(set(edges)) <= tiny["lca-mixed"]["hot"]


def test_spread_uses_statistics_quartiles():
    med, q1, q3, rel = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
    assert rel == pytest.approx(1.0)


# -- spans and self time -----------------------------------------------

def test_self_time_subtracts_direct_children_only():
    #   root [0, 10] ─┬─ a [1, 4] ── a1 [2, 3]
    #                 └─ b [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nests_spans_and_self_times_add_up():
    tracer = Tracer()

    def leaf():
        return sum(range(2000))

    traced_leaf = tracer.wrap(leaf, "leaf")

    def mid():
        return traced_leaf() + traced_leaf()

    traced_mid = tracer.wrap(mid, "mid")
    tracer.op = 0
    with tracer.span("op"):
        traced_mid()
        traced_leaf()
    tracer.op = SETUP
    cols = tracer.arrays()
    names = [tracer.names[i] for i in cols["name_id"]]
    assert names == ["op", "mid", "leaf", "leaf", "leaf"]
    assert cols["parent"].tolist() == [-1, 0, 1, 1, 0]
    own = self_times(cols["start"], cols["end"], cols["parent"])
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(cols["end"][0] - cols["start"][0])
    s = Summary(tracer)
    assert (s.calls("leaf"), s.calls("mid"), s.calls("nope")) == (3, 1, 0)
    assert s.calls("op", setup=True) == 0


def test_counters_ignore_setup():
    tracer = Tracer()
    tracer.count("x", 5)
    tracer.sample("y", 1)
    tracer.op = 0
    tracer.count("x", 2)
    tracer.sample("y", 3)
    assert tracer.counters == {"x": 2} and tracer.samples == {"y": [3]}


def test_patched_wraps_every_site_and_restores_it():
    import repro  # noqa: F401  (sites() imports the program)

    sites = layers.sites()
    before = [vars(owner)[attr] for owner, attr, _, _ in sites]
    tracer = Tracer()
    with patched(tracer, sites):
        assert all(vars(owner)[attr] is not raw
                   for (owner, attr, _, _), raw in zip(sites, before))
    assert all(vars(owner)[attr] is raw for (owner, attr, _, _), raw in zip(sites, before))


def test_method_proxy_exposes_the_same_methods():
    from repro.switch.schedulers import GreedyMaximalScheduler, PaperScheduler

    for inner in (PaperScheduler(4, seed=1), GreedyMaximalScheduler(4, seed=1)):
        proxy = MethodProxy(inner, Tracer(), {"schedule": "switch.schedule"})
        for attr in ("schedule", "schedule_matrix", "schedule_weighted"):
            assert hasattr(proxy, attr) == hasattr(inner, attr)


# -- seeded op sequences -------------------------------------------------

def _prefix(wl, seed, count=6):
    state = wl.setup(seed, None)
    return list(itertools.islice(wl.ops(state), count))


def test_same_seed_gives_the_same_op_sequence(tiny_workload):
    assert _prefix(tiny_workload, 11) == _prefix(tiny_workload, 11)
    assert _prefix(tiny_workload, 11) != _prefix(tiny_workload, 12)


def test_same_seed_gives_the_same_outputs(tiny_workload):
    def outputs(seed):
        state = tiny_workload.setup(seed, None)
        tiny_workload.reference(state)
        return [
            tiny_workload.check(state, i, arg, tiny_workload.summarize(
                state, i, arg, tiny_workload.run(state, arg)))
            for i, arg in enumerate(itertools.islice(tiny_workload.ops(state), 4))
        ]

    first = outputs(5)
    assert all(ok for ok, _ in first)
    assert first == outputs(5)


# -- traced ≡ untraced ---------------------------------------------------

def test_traced_outputs_equal_untraced(tiny_workload, tmp_path):
    metrics, (attempted, failed), detail = traced_run(tiny_workload, 7, 0.2, tmp_path)
    assert detail["outputs_equal"] and failed == 0 and attempted >= 1
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v) for v in metrics.values())
    spans = np.load(tmp_path / f"spans-{tiny_workload.name}-seed7.npz")
    assert spans["start"].size == detail["spans"] > 0


def test_catalog_matches_benchmark_spec():
    cat = workloads.catalog()
    assert list(cat["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    assert set(cat["workloads"]) == set(workloads.WORKLOADS)
    assert list(cat["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(cat["end_to_end"])
