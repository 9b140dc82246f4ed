"""Pluggable execution backends for the round engine.

Layer 2 exposes *two* ways to execute a distributed algorithm, behind
one :class:`ExecutionBackend` protocol:

* :class:`GeneratorBackend` (= :class:`~repro.distributed.network.Network`)
  — the reference semantics.  One Python generator per vertex, resumed
  in lockstep; messages are real objects validated and delivered
  through inboxes.  Every algorithm has a generator program, and the
  generator run *defines* correct output and accounting.
* :class:`ArrayBackend` — executes **array programs**: the same
  algorithm expressed as per-round vectorized NumPy updates over
  struct-of-arrays node state (``int64``/``float64`` state columns and
  boolean active masks), with message *effects* computed by CSR-indexed
  scatter/gather instead of materialized message objects.

Both backends are constructed as ``Backend(graph, program, params=None,
seed=0, model=LOCAL)`` and driven with ``run(max_rounds)``; they differ
only in what ``program`` is.  An array program is a callable

    ``program(ctx: ArrayContext, **params) -> Sequence[Any] | None``

that owns its round loop and reports everything observable through the
context:

* ``ctx.rngs`` — per-node RNGs spawned exactly as the generator engine
  spawns them (one ``SeedSequence(seed)``, ``spawn(n)``).  For seed
  identity an array program must make the *same sequence of calls on
  the same per-node generators* as its generator twin — randomness is
  per node by construction, so this is the one part that stays a
  (cheap) Python loop while everything else vectorizes.
* ``ctx.begin_step(live)`` — start of one lockstep resume: raises the
  same budget ``RuntimeError`` the generator engine raises when live
  nodes remain past ``max_rounds``.
* ``ctx.account_groups(bits, counts)`` — account one resume's grouped
  sends.  A group is "one payload to ``count`` recipients" (what
  ``Node.send_many``/``broadcast`` queue); totals, the bit-volume dot
  product, the per-message peak, and the CONGEST bound check all match
  :meth:`Network.run` exactly.  Empty groups are dropped, as the
  generator engine drops them.
* ``ctx.end_step(yielded)`` — a round is counted iff some node yielded
  in this resume (programs that return without yielding cost zero
  rounds), after the resume's messages are flushed — the same order as
  the generator loop.

Message *routing* needs no per-message work at all: senders may only
address graph neighbors, so an array program reads "what did my
neighbors send" straight off the CSR arrays.  The port-numbering
invariant (see ``repro.graphs.graph``) makes this exact: vertex ``v``'s
half-edges occupy ``indptr[v]:indptr[v+1]`` in a stable per-vertex
order, so a value scattered to ``values[u]`` is gathered by every
neighbor ``v`` via ``values[indices[indptr[v]:indptr[v+1]]]`` — the
segment helpers below (:meth:`ArrayContext.masked_degrees`,
:meth:`ArrayContext.neighbor_max`, :meth:`ArrayContext.neighbor_any`)
are that gather fused with a per-vertex reduction.

Divergence note (documented, deliberate): error *messages* carry less
per-node context on the array side (no single offending node mid-scan).
Error-path *accounting* matches: both engines raise a CONGEST violation
before the offending resume's groups reach the counters (the generator
engine batches its per-round flush, so an exception mid-scan drops that
resume's batch too).  Everything on the success path — rounds,
messages, bits, peak, outputs — is byte-identical, pinned by
``tests/test_backend_identity.py`` against the seed-identity goldens.

**Seed-axis batching (ISSUE 4).**  A sweep repeats the same graph over
many seeds; running the seeds one at a time pays the whole Python
per-run overhead — backend construction, the O(n) RNG spawn, and one
NumPy dispatch chain per seed — once *per seed*.
:class:`BatchedArrayBackend` executes a **batched array program** over
SoA state with a leading ``(num_seeds, n)`` axis instead: one run
computes every seed's execution simultaneously, with

* per-(seed, node) RNG streams via :class:`~repro.distributed.batch_rng.
  LaneRngs` — a bit-exact, vectorized replication of the per-node
  ``Generator`` streams ``Network`` spawns, so draws for *all* lanes of
  a resume are a few array ops;
* masked per-seed termination — a seed whose nodes have all returned
  contributes no rounds, no groups, and no budget checks while the
  batch finishes the stragglers;
* batched accounting (:meth:`BatchedArrayContext.account_groups` rows
  carry a seed index) that still produces one byte-identical
  :class:`RunResult` *per seed*, pinned against the generator backend
  and the seed-identity goldens by ``tests/test_distributed/
  test_batched_backend.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.distributed.batch_rng import LaneRngs
from repro.distributed.faults import FaultPlan, FaultState, bind_many
from repro.distributed.kernels import make_kernel
from repro.distributed.metrics import RunResult
from repro.distributed.models import LOCAL, CongestViolation, Model
from repro.distributed.network import Network
from repro.graphs.graph import Graph

#: The reference backend: the generator-per-vertex engine.
GeneratorBackend = Network

#: An array program: drives its own round loop through an ArrayContext.
ArrayProgram = Callable[..., "Sequence[Any] | None"]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What layers 3/4 may assume about an engine.

    Structural: :class:`Network` conforms without inheriting.  The
    construction convention (not expressible in a Protocol) is
    ``Backend(graph, program, params=None, seed=0, model=LOCAL)``.
    """

    graph: Graph
    result: RunResult

    def run(self, max_rounds: int = 1_000_000) -> RunResult:
        """Execute to completion; raise on budget/model violations."""
        ...  # pragma: no cover - protocol

    def charge_rounds(self, extra: int) -> None:
        """Add analytically charged rounds to the result."""
        ...  # pragma: no cover - protocol


def int_payload_bits(values: np.ndarray | Sequence[int]) -> np.ndarray:
    """Vectorized ``bit_size`` for integer payloads (sign + magnitude).

    Matches :func:`repro.distributed.message.bit_size` on every int64:
    ``1 + max(1, |v|.bit_length())``.  Exact (shift-based, no floating
    log) so CONGEST checks and golden bit totals cannot drift.
    """
    v = np.abs(np.asarray(values, dtype=np.int64))
    length = np.zeros(v.shape, dtype=np.int64)
    x = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (np.int64(1) << shift)
        length[big] += shift
        x[big] >>= shift
    length += x  # remaining 0/1 bit
    return 1 + np.maximum(length, 1)


def segment_bounds(sorted_keys: np.ndarray) -> np.ndarray:
    """Run boundaries of a (stably) sorted key array.

    Returns ``bounds`` such that run ``k`` occupies
    ``sorted_keys[bounds[k]:bounds[k+1]]`` for
    ``k in range(bounds.size - 1)``; an empty input yields ``[0]`` (no
    runs).  The proposal-routing idiom shared by the Israeli–Itai and
    interleaved-LPS array programs: sort proposals by target, then walk
    the per-target runs.
    """
    if sorted_keys.size == 0:
        return np.zeros(1, dtype=np.int64)
    heads = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    return np.append(heads, sorted_keys.size)


def csr_slots(
    indptr: np.ndarray, verts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR slots of ``verts``' segments, concatenated in order.

    Returns ``(seg, slots, heads)``: ``slots`` lists
    ``indptr[v]:indptr[v+1]`` for each ``v`` of ``verts`` in turn,
    ``seg[i]`` is the position in ``verts`` of the owner of
    ``slots[i]``, and ``verts[k]``'s slots start at row ``heads[k]``.
    """
    start = indptr[verts].astype(np.int64)
    deg = indptr[verts + 1] - start
    heads = np.cumsum(deg) - deg
    seg = np.repeat(np.arange(verts.size, dtype=np.int64), deg)
    slots = np.arange(seg.size, dtype=np.int64) + (start - heads)[seg]
    return seg, slots, heads


def choose_targets(
    indptr: np.ndarray,
    snbr: np.ndarray,
    pv: np.ndarray,
    idx: np.ndarray,
    eligible: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Replay every proposer's ``choice(sorted(candidates))`` in bulk.

    The target-selection idiom shared by the Israeli–Itai and
    weight-class LPS array programs (single-seed and batched).
    ``snbr`` is the sorted CSR (:meth:`Graph._sorted_csr`), whose
    segments list each vertex's neighbors ascending.  Proposer ``k`` at
    vertex ``pv[k]`` drew ``idx[k]`` from ``[0, #candidates)`` and
    picks the ``idx[k]``-th candidate of its segment; ``eligible(seg,
    slots, nbr)`` masks the candidates among the :func:`csr_slots` rows
    (``nbr`` is the neighbor at each slot).  One rank-select: a cumsum
    ranks the candidates, and each proposer's pick is the first row
    whose rank reaches its segment's base plus ``idx[k] + 1``.  Every
    proposer must have a candidate.  Returns ``int64`` targets.
    """
    seg, slots, heads = csr_slots(indptr, pv)
    nbr = snbr[slots]
    elig = eligible(seg, slots, nbr)
    rank = np.cumsum(elig)
    base = rank[heads] - elig[heads]
    pick = rank.searchsorted(base + idx + 1)
    return nbr[pick].astype(np.int64)


def replay_acceptor_choices(
    lanes: LaneRngs,
    keys: np.ndarray,
    srcs: np.ndarray,
    skip: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay every acceptor's ``choice(sorted(proposals))`` in bulk.

    The proposal-acceptance idiom shared by the Israeli–Itai and
    weight-class LPS array programs (single-seed and batched): group
    the proposals by target, drop targets whose nodes ignore proposals
    this round, and draw each remaining target's uniform pick — one
    bulk bounded lane draw, then one gather.

    ``keys[i]`` is proposal ``i``'s target as a flat lane id
    (``seed_index * n + vertex``; plain vertex ids when single-seed),
    ``srcs[i]`` its proposer vertex, and ``skip`` a bool array indexed
    by flat lane id marking targets that ignore proposals (proposers,
    and — where the protocol allows matched targets to be addressed —
    matched nodes).  Proposals must arrive with ascending ``srcs`` per
    target (callers enumerate proposers in index order), so the stable
    per-key sort reproduces the generator program's ``sorted(
    proposals)`` candidate order.  Returns ``(acceptors, chosen)`` —
    the accepting flat lane ids (ascending) and each one's selected
    proposer.
    """
    order = np.argsort(keys, kind="stable")  # per-target, src ascending
    sorted_keys = keys[order]
    bounds = segment_bounds(sorted_keys)
    heads = bounds[:-1]
    keep = ~skip[sorted_keys[heads]]
    acceptors = sorted_keys[heads[keep]].astype(np.int64)
    if acceptors.size == 0:
        return acceptors, np.empty(0, dtype=np.int64)
    aidx = lanes.integers(0, np.diff(bounds)[keep], acceptors)
    chosen = srcs[order[heads[keep] + aidx]].astype(np.int64)
    return acceptors, chosen


def _check_fault_support(program: Callable, plan: FaultPlan) -> None:
    """Reject fault plans an array program cannot honor.

    Array programs own their round loops, so the delivery seam lives
    inside them; only ports that implement it (marked with a
    ``supports_faults = True`` attribute) may run under an active
    plan.  Bounded message delay has no array-side seam at all — a
    delayed message crosses phase boundaries, which a vectorized
    phase-structured program cannot represent — so it is
    generator-engine-only.
    """
    if plan.delay > 0:
        raise ValueError(
            "message-delay faults are generator-backend-only; "
            "run this plan with backend='generator'"
        )
    if not getattr(program, "supports_faults", False):
        name = getattr(program, "__name__", repr(program))
        raise ValueError(
            f"array program {name} has no fault seam "
            "(supports_faults is not set); use backend='generator' "
            "for this fault plan"
        )


class ArrayContext:
    """Execution context handed to an array program.

    Owns the CSR views, the lazily spawned per-node RNGs, and the
    accounting that keeps :class:`ArrayBackend` runs byte-identical to
    :class:`GeneratorBackend` runs (see module docstring).
    """

    __slots__ = (
        "graph",
        "n",
        "indptr",
        "indices",
        "model",
        "result",
        "max_rounds",
        "faults",
        "_limit",
        "_seed",
        "_rngs",
        "_lanes",
        "_kernel_name",
        "_kernel",
    )

    def __init__(
        self,
        graph: Graph,
        seed: int,
        model: Model,
        limit: int | None,
        result: RunResult,
        max_rounds: int,
        kernel: str | None = None,
        faults: "FaultState | None" = None,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.indptr, self.indices, _ = graph.adjacency_arrays()
        self.model = model
        self.result = result
        self.max_rounds = max_rounds
        #: bound fault state, or None on fault-free runs (programs that
        #: declare ``supports_faults`` branch on this).
        self.faults = faults
        self._limit = limit
        self._seed = seed
        self._rngs: list[np.random.Generator] | None = None
        self._lanes: LaneRngs | None = None
        self._kernel_name = kernel
        self._kernel = None

    @property
    def rngs(self) -> list[np.random.Generator]:
        """Per-node RNGs, spawned exactly as the generator engine's.

        Built on first access: programs that never draw (e.g. the
        flooding of Algorithm 2) skip the O(n) spawn entirely.
        """
        if self._rngs is None:
            seq = np.random.SeedSequence(self._seed)
            self._rngs = [np.random.default_rng(c) for c in seq.spawn(self.n)]
        return self._rngs

    @property
    def lanes(self) -> LaneRngs:
        """The same per-node streams as :attr:`rngs`, as bulk RNG lanes.

        A single-seed :class:`~repro.distributed.batch_rng.LaneRngs`
        whose lane ``v`` replicates ``rngs[v]`` bit for bit, so an
        array program can draw one resume's coins / choice indices for
        *all* drawing nodes in a few array ops instead of a per-node
        Python loop (the RNG-replay cost that capped Israeli–Itai's
        single-run array speedup — see ARCHITECTURE.md).  A program
        must draw each node's stream through either :attr:`rngs` or
        :attr:`lanes`, never both: the two objects do not share
        stream positions.
        """
        if self._lanes is None:
            self._lanes = LaneRngs([self._seed], self.n)
        return self._lanes

    # -- lockstep accounting ------------------------------------------

    def begin_step(self, live: int) -> None:
        """Top of one resume: the generator loop's budget check."""
        if live and self.result.rounds >= self.max_rounds:
            raise RuntimeError(
                f"{live} node(s) still running after {self.max_rounds} "
                "rounds; lockstep protocol bug or budget too small"
            )

    def account_groups(
        self,
        bits: np.ndarray | Sequence[int],
        counts: np.ndarray | Sequence[int],
    ) -> None:
        """Account one resume's grouped sends (one row per group).

        ``bits[i]`` is the payload size of group ``i`` (sized once per
        group, as ``send_many``/``broadcast`` are) and ``counts[i]``
        its recipient count.  Totals, the ``bits @ counts`` volume, the
        peak, and the CONGEST check reproduce :meth:`Network.run`.
        """
        bits = np.asarray(bits, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        nonempty = counts > 0  # the generator engine skips empty groups
        if not nonempty.all():
            bits, counts = bits[nonempty], counts[nonempty]
        if bits.size == 0:
            return
        peak = int(bits.max())
        if self._limit is not None and peak > self._limit:
            raise CongestViolation(
                f"{peak}-bit message exceeds {self.model.name} bound of "
                f"{self._limit} bits (round {self.result.rounds})"
            )
        res = self.result
        res.total_messages += int(counts.sum())
        res.total_bits += int(bits @ counts)
        if peak > res.max_message_bits:
            res.max_message_bits = peak

    def end_step(self, yielded: bool) -> None:
        """End of one resume: count a round iff some node yielded."""
        if yielded:
            self.result.rounds += 1

    def add_fault_counts(
        self,
        dropped: int = 0,
        delayed: int = 0,
        crashed: int = 0,
        links: int = 0,
    ) -> None:
        """Accumulate fault counters (mirrors the generator seam)."""
        res = self.result
        res.messages_dropped += dropped
        res.messages_delayed += delayed
        res.nodes_crashed += crashed
        res.links_failed += links

    def idle_steps(self, live: int, count: int) -> None:
        """Fast-forward ``count`` resumes in which every node yields idle.

        Equivalent to ``count`` iterations of ``begin_step(live)`` +
        ``end_step(True)`` with no groups accounted — for protocol
        stretches a program can prove are no-ops (e.g. the exhausted
        tail of a weight class in the lockstep LPS schedule): same
        budget semantics, same round count, no messages, no draws.
        """
        if count <= 0:
            return
        if live and self.result.rounds + count > self.max_rounds:
            # the iterative loop completes the resumes up to the budget
            # before its begin_step raises
            self.result.rounds = max(self.result.rounds, self.max_rounds)
            raise RuntimeError(
                f"{live} node(s) still running after {self.max_rounds} "
                "rounds; lockstep protocol bug or budget too small"
            )
        self.result.rounds += count

    # -- CSR scatter/gather helpers -----------------------------------
    #
    # Delegated to the selected segment kernel (the kernel-selection
    # seam of the scale tier): ``"reduceat"`` (the pure-NumPy reference,
    # default) or a compiled tier such as ``"sparse"`` — all registered
    # implementations are byte-identical (see repro.distributed.kernels).

    @property
    def kernel(self):
        """The selected segment kernel, instantiated on first use."""
        if self._kernel is None:
            self._kernel = make_kernel(
                self._kernel_name, self.indptr, self.indices, self.n
            )
        return self._kernel

    def masked_degrees(self, mask: np.ndarray) -> np.ndarray:
        """Per-vertex count of neighbors with ``mask`` set (``int64[n]``)."""
        return self.kernel.masked_degrees(mask)

    def neighbor_any(self, mask: np.ndarray) -> np.ndarray:
        """Per-vertex "some neighbor has ``mask`` set" (``bool[n]``)."""
        return self.kernel.masked_degrees(mask) > 0

    def neighbor_max(
        self, values: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-vertex max of ``values`` over (optionally masked) neighbors.

        Vertices with no (masked) neighbors get 0; ``values`` must be
        nonnegative (every kernel relies on 0 as the identity).
        """
        return self.kernel.neighbor_max(values, mask)


class ArrayBackend:
    """Executes an array program over SoA node state.

    Drop-in for :class:`Network` on ported algorithms: same constructor
    shape, same ``run``/``charge_rounds`` surface, byte-identical
    :class:`RunResult` from the same seed.  ``run`` is one-shot (the
    whole execution happens inside the program); calling it again
    returns the finished result, as a drained ``Network`` does.

    Parameters
    ----------
    graph:
        The communication topology (also consulted for edge weights).
    program:
        An :data:`ArrayProgram` — ``program(ctx, **params)`` owning its
        round loop and reporting through the :class:`ArrayContext`.
    params:
        Extra keyword arguments passed to the program (global
        knowledge such as n, k, ε).
    seed:
        Master seed; ``ctx.rngs`` spawns per-node streams from it
        exactly as ``Network`` does.
    model:
        ``LOCAL`` (default) or a CONGEST variant enforcing the
        per-message bit bound through :meth:`ArrayContext.account_groups`.
    kernel:
        Segment-kernel name (``repro.distributed.kernels``): ``None``
        uses the process default (``"reduceat"`` unless overridden via
        ``set_default_kernel``); every registered kernel is
        byte-identical, so this only changes the wall clock.
    faults:
        Optional :class:`~repro.distributed.faults.FaultPlan`.  Only
        programs that declare ``supports_faults = True`` may run under
        an active plan (the program owns its round loop, so the fault
        seam is inside it — see the Israeli–Itai fault core); bounded
        message *delay* is generator-engine-only and rejected here.
    """

    def __init__(
        self,
        graph: Graph,
        program: ArrayProgram,
        params: dict[str, Any] | None = None,
        seed: int = 0,
        model: Model = LOCAL,
        kernel: str | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self._limit = model.limit(graph.n, graph.max_degree())
        self._program = program
        self._params = params or {}
        self.result = RunResult()
        fstate = faults.bind(graph, seed) if faults is not None else None
        if fstate is not None:
            _check_fault_support(program, faults)
        self._ctx = ArrayContext(
            graph, seed, model, self._limit, self.result, 0, kernel=kernel,
            faults=fstate,
        )
        self._ran = False

    def prepare(self) -> "ArrayBackend":
        """Eagerly do the per-node RNG setup and return self.

        ``Network`` pays the per-node stream spawn in its constructor;
        the array context spawns lazily so programs that never draw
        skip it.  Benchmarks call ``prepare()`` to keep setup out of
        timed round-loop sections, making the two backends' ``run``
        timings directly comparable.  The lane-drawing ports (Luby,
        Israeli–Itai, the weight-class LPS box) warm the cheap
        vectorized :attr:`ArrayContext.lanes`; ports still replaying
        through real per-node Generators (``ctx.rngs``) pay that spawn
        inside ``run``, as ``Network`` pays it inside its constructor.
        """
        _ = self._ctx.lanes
        return self

    def run(self, max_rounds: int = 1_000_000) -> RunResult:
        """Execute the array program to completion (idempotent)."""
        if not self._ran:
            self._ctx.max_rounds = max_rounds
            outputs = self._program(self._ctx, **self._params)
            self.result.outputs = (
                dict.fromkeys(range(self.graph.n)) if outputs is None
                else dict(enumerate(outputs))
            )
            self._ran = True
        return self.result

    def charge_rounds(self, extra: int) -> None:
        """Add analytically charged rounds (see RunResult.charged_rounds)."""
        self.result.charged_rounds += extra


#: A batched array program: like :data:`ArrayProgram`, but state carries
#: a leading seed axis and outputs are returned per seed.
BatchedArrayProgram = Callable[..., "Sequence[Sequence[Any]] | None"]


class BatchedArrayContext:
    """Execution context for a **batched** array program.

    The same contract as :class:`ArrayContext`, lifted to a leading
    seed axis: state columns are ``(num_seeds, n)`` arrays, the three
    lockstep calls take per-seed vectors, and accounting rows carry a
    seed index.  Per-seed counters accumulate in ``int64`` arrays and
    are materialized into one :class:`RunResult` per seed by
    :meth:`finalize` — each byte-identical to the corresponding
    single-seed run.

    * ``lanes`` — per-(seed, node) RNG streams
      (:class:`~repro.distributed.batch_rng.LaneRngs`); lane
      ``s * n + v`` replicates ``Network(..., seed=seeds[s])``'s node
      ``v`` RNG bit for bit.  Built on first access, like
      :attr:`ArrayContext.rngs`.
    * ``begin_step(live)`` — ``live[s]`` is seed ``s``'s live-node
      count entering the resume; raises the budget ``RuntimeError``
      when any seed with live nodes is out of rounds.  Seeds whose
      programs have fully returned pass 0 and are never checked — the
      masked-termination rule.
    * ``account_groups(bits, counts, seed_of)`` — one row per grouped
      send, tagged with the sending seed; totals, volumes, peaks, and
      the CONGEST check land on each seed's counters exactly as the
      generator engine computes them.
    * ``end_step(yielded)`` — ``yielded[s]`` says whether some node of
      seed ``s`` yielded; only those seeds gain a round.

    The CSR helpers (:meth:`masked_degrees`, :meth:`neighbor_any`,
    :meth:`neighbor_max`) accept ``(num_seeds, n)`` inputs and reduce
    every seed's segments in one pass.
    """

    __slots__ = (
        "graph",
        "n",
        "num_seeds",
        "indptr",
        "indices",
        "model",
        "max_rounds",
        "faults",
        "_limit",
        "_seeds",
        "_lanes",
        "_rounds",
        "_messages",
        "_bits",
        "_peak",
        "_fault_counts",
        "_kernel_name",
        "_kernel",
    )

    def __init__(
        self,
        graph: Graph,
        seeds: Sequence[int],
        model: Model,
        limit: int | None,
        max_rounds: int,
        kernel: str | None = None,
        faults: "list[FaultState | None] | None" = None,
    ) -> None:
        self.graph = graph
        self.n = graph.n
        self.num_seeds = len(seeds)
        self.indptr, self.indices, _ = graph.adjacency_arrays()
        self.model = model
        self.max_rounds = max_rounds
        #: per-lane bound fault states (None on fault-free runs).
        self.faults = faults
        self._limit = limit
        self._seeds = list(seeds)
        self._lanes: LaneRngs | None = None
        self._kernel_name = kernel
        self._kernel = None
        self._rounds = np.zeros(self.num_seeds, dtype=np.int64)
        self._messages = np.zeros(self.num_seeds, dtype=np.int64)
        self._bits = np.zeros(self.num_seeds, dtype=np.int64)
        self._peak = np.zeros(self.num_seeds, dtype=np.int64)
        # rows: dropped / delayed / crashed / links, one column per seed.
        self._fault_counts = np.zeros((4, self.num_seeds), dtype=np.int64)

    @property
    def lanes(self) -> LaneRngs:
        """Per-(seed, node) RNG lanes, spawned on first access.

        Lane ``s * n + v`` is byte-identical to the RNG the generator
        engine hands node ``v`` under ``seeds[s]``; a batched program
        must make the same draws on the same lanes as its single-seed
        twin makes on ``ctx.rngs``.
        """
        if self._lanes is None:
            self._lanes = LaneRngs(self._seeds, self.n)
        return self._lanes

    @property
    def rounds(self) -> np.ndarray:
        """Per-seed rounds counted so far (read-only view)."""
        view = self._rounds.view()
        view.flags.writeable = False
        return view

    # -- lockstep accounting ------------------------------------------

    def begin_step(self, live: np.ndarray) -> None:
        """Top of one resume: the per-seed budget check."""
        live = np.asarray(live, dtype=np.int64)
        over = (live > 0) & (self._rounds >= self.max_rounds)
        if over.any():
            s = int(np.flatnonzero(over)[0])
            raise RuntimeError(
                f"{int(live[s])} node(s) still running after "
                f"{self.max_rounds} rounds; lockstep protocol bug or "
                "budget too small"
            )

    def account_groups(
        self,
        bits: np.ndarray | Sequence[int],
        counts: np.ndarray | Sequence[int],
        seed_of: np.ndarray | Sequence[int],
    ) -> None:
        """Account one resume's grouped sends across all seeds.

        Row ``i`` is one group — payload of ``bits[i]`` bits to
        ``counts[i]`` recipients — queued by a node of seed
        ``seed_of[i]``.  Per-seed totals, ``bits·counts`` volumes,
        peaks, and the CONGEST check match :meth:`Network.run`.
        """
        bits = np.asarray(bits, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        seed_of = np.asarray(seed_of, dtype=np.int64)
        nonempty = counts > 0  # the generator engine skips empty groups
        if not nonempty.all():
            bits, counts, seed_of = (
                bits[nonempty], counts[nonempty], seed_of[nonempty]
            )
        if bits.size == 0:
            return
        peak = int(bits.max())
        if self._limit is not None and peak > self._limit:
            s = int(seed_of[int(np.argmax(bits))])
            raise CongestViolation(
                f"{peak}-bit message exceeds {self.model.name} bound of "
                f"{self._limit} bits (round {int(self._rounds[s])}, "
                f"seed index {s})"
            )
        np.add.at(self._messages, seed_of, counts)
        np.add.at(self._bits, seed_of, bits * counts)
        np.maximum.at(self._peak, seed_of, bits)

    def end_step(self, yielded: np.ndarray) -> None:
        """End of one resume: seeds where some node yielded gain a round."""
        self._rounds += np.asarray(yielded, dtype=bool)

    def add_fault_counts(
        self,
        seed_index: int,
        dropped: int = 0,
        delayed: int = 0,
        crashed: int = 0,
        links: int = 0,
    ) -> None:
        """Accumulate one lane's fault counters (generator-seam mirror)."""
        col = self._fault_counts[:, seed_index]
        col[0] += dropped
        col[1] += delayed
        col[2] += crashed
        col[3] += links

    def idle_steps(self, live: np.ndarray, count: int) -> None:
        """Fast-forward ``count`` fully lockstep idle resumes.

        The batched twin of :meth:`ArrayContext.idle_steps`: every seed
        gains ``count`` rounds (the caller asserts all lanes yield in
        each skipped resume), with the same per-seed budget semantics as
        the iterative ``begin_step``/``end_step`` loop and no messages.
        """
        if count <= 0:
            return
        live = np.asarray(live, dtype=np.int64)
        over = (live > 0) & (self._rounds + count > self.max_rounds)
        if over.any():
            # replicate where the iterative loop would raise: after the
            # resumes the tightest lane's budget still admits
            deficit = np.maximum(self.max_rounds - self._rounds, 0)
            k = int(deficit[over].min())
            s = int(np.flatnonzero(over & (deficit == k))[0])
            self._rounds += k
            raise RuntimeError(
                f"{int(live[s])} node(s) still running after "
                f"{self.max_rounds} rounds; lockstep protocol bug or "
                "budget too small"
            )
        self._rounds += count

    def finalize(
        self, outputs: Sequence[Sequence[Any]] | None
    ) -> list[RunResult]:
        """Materialize one :class:`RunResult` per seed."""
        results = []
        for s in range(self.num_seeds):
            res = RunResult(
                rounds=int(self._rounds[s]),
                total_messages=int(self._messages[s]),
                total_bits=int(self._bits[s]),
                max_message_bits=int(self._peak[s]),
                messages_dropped=int(self._fault_counts[0, s]),
                messages_delayed=int(self._fault_counts[1, s]),
                nodes_crashed=int(self._fault_counts[2, s]),
                links_failed=int(self._fault_counts[3, s]),
            )
            res.outputs = (
                dict.fromkeys(range(self.n)) if outputs is None
                else dict(enumerate(outputs[s]))
            )
            results.append(res)
        return results

    # -- CSR scatter/gather helpers (seed axis leading) ---------------
    #
    # Delegated to the selected segment kernel's batched twins (same
    # seam as :class:`ArrayContext`; see repro.distributed.kernels).

    @property
    def kernel(self):
        """The selected segment kernel, instantiated on first use."""
        if self._kernel is None:
            self._kernel = make_kernel(
                self._kernel_name, self.indptr, self.indices, self.n
            )
        return self._kernel

    def masked_degrees(self, mask: np.ndarray) -> np.ndarray:
        """Per-(seed, vertex) count of neighbors with ``mask`` set.

        ``mask`` is ``bool[num_seeds, n]``.
        """
        return self.kernel.batched_masked_degrees(mask)

    def neighbor_any(self, mask: np.ndarray) -> np.ndarray:
        """Per-(seed, vertex) "some neighbor has ``mask`` set"."""
        return self.kernel.batched_masked_degrees(mask) > 0

    def neighbor_max(
        self, values: np.ndarray, mask: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-(seed, vertex) max of ``values`` over (masked) neighbors.

        ``values`` is ``(num_seeds, n)`` and must be nonnegative;
        vertices with no (masked) neighbors get 0.
        """
        return self.kernel.batched_neighbor_max(values, mask)


class BatchedArrayBackend:
    """Executes a batched array program: one run, many seeds.

    Construct with the batch's ``seeds`` list instead of a single
    ``seed``; ``run`` executes every seed's computation simultaneously
    over ``(num_seeds, n)`` SoA state and returns **one**
    :class:`RunResult` **per seed**, each byte-identical to the
    single-seed run of the same algorithm (generator or array backend)
    under that seed.

    Parameters
    ----------
    graph:
        The shared topology.  Batching is across *seeds*, so all lanes
        of the batch execute on this one graph.
    program:
        A :data:`BatchedArrayProgram` — the algorithm's seed-axis twin
        (e.g. :func:`repro.baselines.luby_mis.luby_mis_array_batched`).
    params:
        Extra keyword arguments passed to the program.
    seeds:
        One master seed per batch lane row; RNG streams per (seed,
        node) are spawned exactly as ``Network`` spawns them.
    model:
        ``LOCAL`` or a CONGEST variant; the bit bound applies to every
        seed's messages.
    """

    def __init__(
        self,
        graph: Graph,
        program: BatchedArrayProgram,
        params: dict[str, Any] | None = None,
        seeds: Sequence[int] = (0,),
        model: Model = LOCAL,
        kernel: str | None = None,
        faults: FaultPlan | None = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.seeds = list(seeds)
        self._limit = model.limit(graph.n, graph.max_degree())
        self._program = program
        self._params = params or {}
        self.results: list[RunResult] | None = None
        fstates = (
            bind_many(faults, graph, self.seeds) if faults is not None else None
        )
        if fstates is not None:
            _check_fault_support(program, faults)
        self._ctx = BatchedArrayContext(
            graph, self.seeds, model, self._limit, 0, kernel=kernel,
            faults=fstates,
        )

    def prepare(self) -> "BatchedArrayBackend":
        """Eagerly spawn the RNG lanes (see :meth:`ArrayBackend.prepare`)."""
        _ = self._ctx.lanes
        return self

    def run(self, max_rounds: int = 1_000_000) -> list[RunResult]:
        """Execute the batched program to completion (idempotent)."""
        if self.results is None:
            self._ctx.max_rounds = max_rounds
            outputs = self._program(self._ctx, **self._params)
            self.results = self._ctx.finalize(outputs)
        return self.results


def run_program_batched(
    graph: Graph,
    *,
    backend: str,
    generator_program: Callable[..., Any],
    batched_array_program: BatchedArrayProgram,
    params: dict[str, Any] | None = None,
    seeds: Sequence[int],
    model: Model = LOCAL,
    max_rounds: int = 1_000_000,
    faults: FaultPlan | None = None,
) -> list[RunResult]:
    """Run one algorithm over a batch of seeds on the chosen backend.

    The batched counterpart of :func:`run_program`: ``"array"``
    executes the whole batch as one :class:`BatchedArrayBackend` run;
    ``"generator"`` runs one :class:`Network` per seed (the reference
    semantics batching must reproduce).  Either way the return value is
    one :class:`RunResult` per seed, in ``seeds`` order.  An active
    ``faults`` plan is bound per lane seed, so every lane reproduces
    its single-seed faulted run byte for byte.
    """
    cls = resolve_backend(backend)
    if cls is GeneratorBackend:
        return [
            Network(graph, generator_program, params=params, seed=int(s),
                    model=model, faults=faults).run(max_rounds=max_rounds)
            for s in seeds
        ]
    net = BatchedArrayBackend(
        graph, batched_array_program, params=params, seeds=seeds, model=model,
        faults=faults,
    )
    return net.run(max_rounds=max_rounds)


#: Backend registry — the seam layer 4 routes ``--backend`` through.
BACKENDS: dict[str, type] = {
    "generator": GeneratorBackend,
    "array": ArrayBackend,
}


def resolve_backend(name: str) -> type:
    """Backend class for ``name``; raises ``ValueError`` on unknowns."""
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; pick from {sorted(BACKENDS)}"
        ) from None


def run_program(
    graph: Graph,
    *,
    backend: str,
    generator_program: Callable[..., Any],
    array_program: ArrayProgram,
    params: dict[str, Any] | None = None,
    seed: int = 0,
    model: Model = LOCAL,
    max_rounds: int = 1_000_000,
    faults: FaultPlan | None = None,
) -> RunResult:
    """Run an algorithm's program pair on the chosen backend.

    The layer-3 routing helper: an algorithm hands over both of its
    forms and the caller's ``backend`` string picks which executes.
    An active ``faults`` plan is injected at the chosen backend's
    delivery seam; both backends reproduce the same faulted run byte
    for byte (array programs must declare ``supports_faults``).
    """
    cls = resolve_backend(backend)
    program = generator_program if cls is GeneratorBackend else array_program
    net = cls(graph, program, params=params, seed=seed, model=model,
              faults=faults)
    return net.run(max_rounds=max_rounds)
