"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next op starts when
the previous one returned.  Everything a run does is a pure function of
the workload seed — the graph, the warm-up op and the whole op sequence
— so two runs with one seed do identical work.

A workload subclasses :class:`Workload` and provides

* ``setup(seed, tracer)`` — build the inputs, construct the service,
  run one untimed warm-up op; returns the state the ops run against;
* ``ops(state)`` — the (endless) op sequence after the warm-up;
* ``run(state, arg)`` — one op, the only thing the runner times;
* ``summarize(state, index, arg, out)`` — called right after each op,
  outside its timed interval: the small record the later check needs
  (so kept outputs do not grow memory), by default the output itself;

and overrides, where it needs to, the base class's defaults:

* ``reference(state)`` — anything the checks need that is not part of
  set-up (computed after ``setup`` and outside every timed op);
* ``check(state, index, arg, summary)`` — ``(ok, digest)``: whether the
  op's output is correct, and a value that identifies it, used to
  assert that traced and untraced runs agree; by default the summary
  already is that pair;
* ``observe(state, arg, out, tracer)`` — per-op counters that need the
  op's output (traced runs only).

Input sizes live in ``catalog.json``; tests pass smaller ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from perfbench.spans import MethodProxy, Tracer

CATALOG = Path(__file__).with_name("catalog.json")


def catalog() -> dict:
    """The benchmark's workload and layer catalog."""
    return json.loads(CATALOG.read_text())


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators derived from the workload seed."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(count)]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _digest(mate: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(mate, dtype=np.int64).tobytes()).hexdigest()[:16]


def _valid_matching(g, mate: np.ndarray) -> bool:
    """Whether ``mate`` is a symmetric mate vector whose pairs are edges of ``g``."""
    mate = np.asarray(mate, dtype=np.int64)
    if mate.shape != (g.n,) or (mate < -1).any() or (mate >= g.n).any():
        return False
    v = np.flatnonzero(mate >= 0)
    u = mate[v]
    if (u == v).any() or (mate[u] != v).any():
        return False
    return bool((g.edge_ids_array(v, u) >= 0).all())


class _State:
    """Attribute bag for one set-up's state."""

    def __init__(self, **kw: Any) -> None:
        self.__dict__.update(kw)


class Workload:
    """Defaults for the optional parts of the workload protocol."""

    name = ""
    #: collect garbage before every op (outside its timed interval)
    collect_per_op = True

    def reference(self, state: _State) -> None:
        pass

    def summarize(self, state: _State, index: int, arg, out):
        return out

    def check(self, state: _State, index: int, arg, summary) -> tuple[bool, Any]:
        return summary

    def observe(self, state: _State, arg, out, tracer: Tracer) -> None:
        pass


class IsraeliItaiBA(Workload):
    """``israeli_itai_matching(g, seed=s, backend="array")`` on a BA graph."""

    name = "ii-ba"

    def __init__(self, n: int, m_attach: int) -> None:
        self.n, self.m_attach = n, m_attach

    def setup(self, seed: int, tracer: Tracer | None) -> _State:
        from repro.graphs.generators import barabasi_albert

        graph_rng, op_rng = _streams(seed, 2)
        with _build_span(tracer):
            g = barabasi_albert(self.n, self.m_attach, seed=_seed(graph_rng))
        state = _State(g=g, op_rng=op_rng, tracer=tracer)
        self.run(state, _seed(op_rng))  # warm-up
        return state

    def ops(self, state: _State) -> Iterator[int]:
        while True:
            yield _seed(state.op_rng)

    def run(self, state: _State, seed: int):
        from repro.baselines.israeli_itai import israeli_itai_matching

        return israeli_itai_matching(state.g, seed=seed, backend="array")

    def summarize(self, state: _State, index: int, seed: int, out) -> tuple[bool, Any]:
        m, res = out
        mate = m.mate_array()
        ok = _valid_matching(state.g, mate) and m.is_maximal()
        return ok, (_digest(mate), res.rounds, res.total_messages)


class WeightedSeedBatch(Workload):
    """``weighted_mwm_batched(g, seeds=<next lanes seeds>)`` on a weighted BA graph."""

    name = "mwm-seeds"

    def __init__(self, n: int, m_attach: int, lanes: int) -> None:
        self.n, self.m_attach, self.lanes = n, m_attach, lanes

    def setup(self, seed: int, tracer: Tracer | None) -> _State:
        from repro.graphs.generators import barabasi_albert
        from repro.graphs.weights import assign_uniform_weights

        graph_rng, op_rng = _streams(seed, 2)
        with _build_span(tracer):
            g = assign_uniform_weights(
                barabasi_albert(self.n, self.m_attach, seed=_seed(graph_rng)),
                seed=_seed(graph_rng),
            )
        state = _State(g=g, op_rng=op_rng, tracer=tracer)
        self.run(state, self._next_seeds(op_rng))  # warm-up
        return state

    def _next_seeds(self, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(_seed(rng) for _ in range(self.lanes))

    def ops(self, state: _State) -> Iterator[tuple[int, ...]]:
        while True:
            yield self._next_seeds(state.op_rng)

    def run(self, state: _State, seeds: tuple[int, ...]):
        from repro.core.weighted_mwm import weighted_mwm_batched

        return weighted_mwm_batched(state.g, seeds=list(seeds))

    @staticmethod
    def _lane(m, res, its) -> tuple:
        return (_digest(m.mate_array()), its, res.rounds, res.charged_rounds,
                res.total_messages, res.total_bits)

    def summarize(self, state: _State, index: int, seeds, out) -> tuple[bool, Any]:
        ok = len(out) == len(seeds) and all(
            _valid_matching(state.g, m.mate_array()) for m, _, _ in out
        )
        return ok, tuple(self._lane(*lane) for lane in out)

    def check(self, state: _State, index: int, seeds, summary) -> tuple[bool, Any]:
        from repro.core.weighted_mwm import weighted_mwm

        ok, lanes = summary
        # One lane per op, rotating, is compared against a single-seed run.
        lane = index % len(seeds)
        ref = self._lane(*weighted_mwm(state.g, seed=seeds[lane], backend="array"))
        return ok and lanes[lane] == ref, lanes

    def observe(self, state: _State, seeds, out, tracer: Tracer) -> None:
        tracer.count("core.weighted_iterations", sum(its for _, _, its in out))


class LcaMixed(Workload):
    """``mate_of(v)`` / ``edge_in_matching(u, v)`` on a ``MatchingService``.

    Each op is, with probability ``tail_share``, the repo's existing
    query mix (``mate_of`` of a uniformly chosen vertex, as in
    ``repro.analysis.lca_curves`` and ``python -m repro lca``), and
    otherwise a skewed request: a vertex drawn by a Zipf law over a
    random hot set, asked ``mate_of`` or, with probability
    ``edge_share``, ``edge_in_matching`` for a uniformly chosen incident
    edge.  Where each value comes from is recorded in ``catalog.json``.
    The stream is drawn in fixed-size chunks, so it is the same sequence
    however much of it a run consumes.
    """

    name = "lca-mixed"
    #: ops take microseconds: collect garbage once before the loop, not per op
    collect_per_op = False

    def __init__(self, n: int, m_attach: int, max_entries: int, hot: int,
                 zipf_a: float, tail_share: float, edge_share: float,
                 chunk: int) -> None:
        if max_entries > n:
            raise ValueError("the LRU must be smaller than the graph to fill it")
        self.n, self.m_attach, self.max_entries = n, m_attach, max_entries
        self.hot, self.zipf_a = hot, zipf_a
        self.tail_share, self.edge_share, self.chunk = tail_share, edge_share, chunk

    def _stream(self, g, rng: np.random.Generator) -> Iterator[tuple[bool, int, int]]:
        hot = min(self.hot, g.n)
        perm = rng.permutation(g.n)[:hot]
        p = np.arange(1, hot + 1, dtype=np.float64) ** -self.zipf_a
        p /= p.sum()
        indptr, indices, _ = g.adjacency_arrays()
        c = self.chunk
        while True:
            tail = rng.random(c) < self.tail_share
            u = np.where(tail, rng.integers(0, g.n, size=c), perm[rng.choice(hot, size=c, p=p)])
            is_edge = ~tail & (rng.random(c) < self.edge_share)
            deg = indptr[u + 1] - indptr[u]
            v = indices[indptr[u] + (rng.random(c) * deg).astype(np.int64)]
            yield from zip(is_edge.tolist(), u.tolist(), v.tolist())

    def setup(self, seed: int, tracer: Tracer | None) -> _State:
        from repro.graphs.generators import barabasi_albert
        from repro.lca import MatchingService

        graph_rng, service_rng, stream_rng = _streams(seed, 3)
        with _build_span(tracer):
            g = barabasi_albert(self.n, self.m_attach, seed=_seed(graph_rng))
        svc = MatchingService(g, _seed(service_rng), max_entries=self.max_entries)
        stream = self._stream(g, stream_rng)
        state = _State(g=g, svc=svc, stream=stream, tracer=tracer, ref=None)
        # Warm-up: the stream prefix that fills the LRU.
        while svc.cache_info()["entries"] < self.max_entries:
            self.run(state, next(stream))
        state.entries = self.max_entries
        return state

    def ops(self, state: _State) -> Iterator[tuple[bool, int, int]]:
        return state.stream

    def run(self, state: _State, arg: tuple[bool, int, int]):
        is_edge, u, v = arg
        if is_edge:
            return state.svc.edge_in_matching(u, v)
        return state.svc.mate_of(u)

    def reference(self, state: _State) -> None:
        from repro.lca import random_greedy_matching

        state.ref = random_greedy_matching(state.g, state.svc.seed).mate_array()

    def check(self, state: _State, index: int, arg, out) -> tuple[bool, Any]:
        is_edge, u, v = arg
        want = bool(state.ref[u] == v) if is_edge else int(state.ref[u])
        return type(out) is type(want) and out == want, out

    def observe(self, state: _State, arg, out, tracer: Tracer) -> None:
        st = state.svc.last_query_stats
        tracer.sample("lca.edges_probed", st.edges_probed)
        tracer.sample("lca.max_depth", st.max_depth)
        tracer.count("lca.cache_hits", st.cache_hits)
        tracer.count("lca.probes", st.edges_probed)
        # A mate query that misses the vertex LRU scans v's adjacency and
        # stores one entry; a vertex-LRU hit scans nothing.  Whatever the
        # LRU did not grow by was evicted.
        stored = int(not arg[0] and st.adjacency_scanned > 0)
        entries = state.svc.cache_info()["entries"]
        tracer.count("lca.evictions", stored - (entries - state.entries))
        state.entries = entries


class SwitchPaper(Workload):
    """``run_switch_vectorized`` with the paper's distributed scheduler."""

    name = "switch-paper"

    def __init__(self, ports: int, load: float, k: int, slots: int, warmup: int) -> None:
        self.ports, self.load, self.k = ports, load, k
        self.slots, self.warmup = slots, warmup

    def setup(self, seed: int, tracer: Tracer | None) -> _State:
        (op_rng,) = _streams(seed, 1)
        state = _State(op_rng=op_rng, tracer=tracer)
        self.run(state, _seed(op_rng))  # warm-up
        return state

    def ops(self, state: _State) -> Iterator[int]:
        while True:
            yield _seed(state.op_rng)

    def run(self, state: _State, seed: int):
        from repro.switch.engine import run_switch_vectorized
        from repro.switch.schedulers import PaperScheduler
        from repro.switch.traffic import bernoulli_uniform

        sched = PaperScheduler(self.ports, k=self.k, seed=seed, distributed=True)
        if state.tracer is not None:
            sched = MethodProxy(sched, state.tracer, {"schedule": "switch.schedule"})
        return run_switch_vectorized(
            self.ports, bernoulli_uniform(self.ports, self.load, seed=seed), sched,
            slots=self.slots, warmup=self.warmup,
        )

    def summarize(self, state: _State, index: int, seed: int, st) -> tuple[bool, Any]:
        # The backlog also holds cells that arrived during warm-up, so
        # arrivals − departures == backlog does not hold and is not checked.
        sizes = st.match_sizes
        ok = (
            len(sizes) == self.slots
            and st.departures == sum(sizes)
            and max(sizes, default=0) <= self.ports
            and st.backlog >= 0
        )
        return ok, (st.arrivals, st.departures, st.total_delay, st.backlog, tuple(sizes))

    def observe(self, state: _State, seed: int, st, tracer: Tracer) -> None:
        tracer.count("switch.match_size_sum", sum(st.match_sizes))
        tracer.count("switch.match_slots", len(st.match_sizes))


def _build_span(tracer: Tracer | None):
    return tracer.span("graphs.build") if tracer is not None else contextlib.nullcontext()


WORKLOADS = {
    cls.name: cls
    for cls in (IsraeliItaiBA, WeightedSeedBatch, LcaMixed, SwitchPaper)
}


def make(name: str, params: dict | None = None):
    """Workload ``name`` at the catalog's input size (or ``params``)."""
    if params is None:
        params = catalog()["workloads"][name]["params"]
    return WORKLOADS[name](**params)
