"""Per-layer metrics: where the traced run wraps the program, and how
each metric is computed from the spans, counters and samples it records.

Every site is a public function or method, wrapped where its caller
looks it up: a class attribute for methods, the calling module's global
for functions imported by name.  Layers are named after the modules.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

from perfbench.spans import Summary, Tracer
from perfbench.stats import median, tail_percentile


def _count_rounds(tracer: Tracer, res) -> None:
    tracer.count("distributed.rounds", res.rounds)


def _count_lanes(tracer: Tracer, results) -> None:
    rounds = [r.rounds for r in results]
    tracer.count("distributed.lane_rounds", sum(rounds))
    tracer.count("distributed.lane_slots", len(rounds) * max(rounds, default=0))


def _count_messages(tracer: Tracer, res) -> None:
    tracer.count("distributed.messages", res.total_messages)


def sites() -> list[tuple[Any, str, str, Callable | None]]:
    """``(owner, attribute, span name, on_result)`` for every traced call."""
    # Modules by import path: a package may re-export a function under
    # its submodule's name (repro.core.weighted_mwm is also a function).
    ii, lps, bmcm, wmwm, lca = map(importlib.import_module, (
        "repro.baselines.israeli_itai", "repro.baselines.lps_mwm",
        "repro.core.bipartite_mcm", "repro.core.weighted_mwm", "repro.lca.lca",
    ))
    from repro.distributed.backends import (
        ArrayContext,
        BatchedArrayBackend,
        BatchedArrayContext,
    )
    from repro.distributed.batch_rng import LaneRngs
    from repro.distributed.kernels import ReduceatKernel
    from repro.distributed.network import Network
    from repro.graphs.graph import Graph
    from repro.lca.lca import LcaMatching
    from repro.matching.matching import Matching
    from repro.switch.traffic import ChunkedTraffic

    return [
        (Graph, "sorted_neighbors", "graphs.sorted_neighbors", None),
        (LaneRngs, "__init__", "distributed.lane_setup", None),
        (LaneRngs, "integers", "distributed.lane_draw", None),
        *[
            (ReduceatKernel, meth, "distributed.kernel", None)
            for meth in ("masked_degrees", "neighbor_max",
                         "batched_masked_degrees", "batched_neighbor_max")
        ],
        (ArrayContext, "account_groups", "distributed.account", None),
        (BatchedArrayContext, "account_groups", "distributed.account", None),
        (ii, "run_program", "distributed.run_program", _count_rounds),
        (BatchedArrayBackend, "run", "distributed.batched_run", _count_lanes),
        (Network, "run", "distributed.network", _count_messages),
        (wmwm, "derived_weights_array", "core.derived_weights", None),
        (bmcm, "aug_bipartite", "core.aug_bipartite", None),
        (ii, "matching_from_mates", "matching.assemble", None),
        (bmcm, "matching_from_mates", "matching.assemble", None),
        (lps, "matching_from_mates", "matching.assemble", None),
        (Matching, "from_mate_array", "matching.assemble", None),
        (LcaMatching, "query_mate", "lca.explore", None),
        (LcaMatching, "query_edge", "lca.explore", None),
        (lca, "edge_rank", "lca.ranks", None),
        (lca, "edge_ranks", "lca.ranks", None),
        (ChunkedTraffic, "chunk", "switch.traffic", None),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p(samples: list[float], q: float) -> float:
    """Supported percentile, else 0 (no samples: the layer did no work)."""
    if q == 50:
        return median(samples) if samples else 0.0
    value = tail_percentile(samples, q)
    return 0.0 if value is None else value


def metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metric values of one traced run of ``ops`` ops.

    Counts and times are per op (times are self time); ``graphs.build_s``
    and ``lca.ranks_*`` are per set-up, where that work happens.
    """
    s = Summary(tracer)
    c = tracer.counters
    smp = tracer.samples

    def calls(name: str) -> float:
        return s.calls(name) / ops

    def self_s(name: str) -> float:
        return s.self_s(name) / ops

    def per_op(counter: str) -> float:
        return c.get(counter, 0) / ops

    return {
        "graphs.build_s": s.self_s("graphs.build", setup=True),
        "graphs.sorted_neighbors_calls": calls("graphs.sorted_neighbors"),
        "graphs.sorted_neighbors_s": self_s("graphs.sorted_neighbors"),
        "distributed.lane_setup_s": self_s("distributed.lane_setup"),
        "distributed.lane_draw_calls": calls("distributed.lane_draw"),
        "distributed.lane_draw_s": self_s("distributed.lane_draw"),
        "distributed.kernel_calls": calls("distributed.kernel"),
        "distributed.kernel_s": self_s("distributed.kernel"),
        "distributed.account_s": self_s("distributed.account"),
        "distributed.run_program_s": self_s("distributed.run_program"),
        "distributed.rounds": per_op("distributed.rounds"),
        "distributed.batched_run_s": self_s("distributed.batched_run"),
        "distributed.lane_useful_ratio": _ratio(
            c.get("distributed.lane_rounds", 0), c.get("distributed.lane_slots", 0)
        ),
        "distributed.network_runs": calls("distributed.network"),
        "distributed.network_s": self_s("distributed.network"),
        "distributed.messages": per_op("distributed.messages"),
        "core.weighted_iterations": per_op("core.weighted_iterations"),
        "core.derived_weights_calls": calls("core.derived_weights"),
        "core.derived_weights_s": self_s("core.derived_weights"),
        "core.aug_bipartite_calls": calls("core.aug_bipartite"),
        "core.aug_bipartite_s": self_s("core.aug_bipartite"),
        "matching.assemble_calls": calls("matching.assemble"),
        "matching.assemble_s": self_s("matching.assemble"),
        "lca.cache_hit_ratio": _ratio(
            c.get("lca.cache_hits", 0),
            c.get("lca.cache_hits", 0) + c.get("lca.probes", 0),
        ),
        "lca.evictions": per_op("lca.evictions"),
        "lca.edges_probed_p50": _p(smp.get("lca.edges_probed", []), 50),
        "lca.edges_probed_p99": _p(smp.get("lca.edges_probed", []), 99),
        "lca.max_depth_p99": _p(smp.get("lca.max_depth", []), 99),
        "lca.explore_s": self_s("lca.explore"),
        "lca.ranks_calls": s.calls("lca.ranks", setup=True) + s.calls("lca.ranks"),
        "lca.ranks_s": s.self_s("lca.ranks", setup=True) + s.self_s("lca.ranks"),
        "switch.schedule_calls": calls("switch.schedule"),
        "switch.schedule_s": self_s("switch.schedule"),
        "switch.engine_self_s": self_s("op:switch-paper"),
        "switch.traffic_s": self_s("switch.traffic"),
        "switch.match_size_mean": _ratio(
            c.get("switch.match_size_sum", 0), c.get("switch.match_slots", 0)
        ),
    }
