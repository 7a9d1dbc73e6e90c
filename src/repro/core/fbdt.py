"""Free-binary-decision-tree circuit construction (Sec. IV-D, Algorithm 2).

Shannon-expands the unknown single-output function by always cofactoring on
the most significant input (argmax of the dependency count at the node),
exploring the tree in levelized (BFS) order, until sampled constancy
declares a leaf.  Leaf cubes are collected into *both* the onset and the
offset cover, enabling trick 2 (realize whichever is smaller); timeout
flushes every undecided node as a majority-value leaf, exactly the paper's
graceful early termination.

Trick 1 (conquering small functions) lives here too: supports up to the
exhaustive threshold skip the tree entirely and are tabulated minterm by
minterm.

One engine grows the tree, a pass at a time over a *frontier* taken from
the list of pending nodes.  In levelized order a pass takes the whole
list, a BFS level; in depth-first order (``levelized=False``, the
ablation) it pops one node, a one-node frontier.  The frontier's
constant-leaf probes, subtree tabulations and split-selection sampling
blocks are fused into one ``oracle.query`` call each.  Every node draws
from its own RNG substream (``[base_key, _NODE_STREAM, node_uid]``,
mirroring ``derive_output_rng``), so results do not depend on how the
frontier is chunked and stay bit-identical at any ``--jobs`` value.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import RegressorConfig
from repro.core.sampling import (FUSED_CHUNK_ROWS, pattern_sampling,
                                 random_patterns)
from repro.logic import bitops
from repro.logic.cube import Cube
from repro.logic.minimize import quine_mccluskey
from repro.logic.sop import Sop
from repro.logic.truthtable import TruthTable
from repro.obs import context as obs
from repro.oracle.base import Oracle, QueryBudgetExceeded

LEAF_DEPTH_BOUNDARIES = (1, 2, 4, 8, 16, 32, 64)
"""Fixed histogram buckets for ``fbdt.leaf_depth`` (inclusive upper
bounds; deeper leaves land in the implicit overflow bucket).  Fixed so
histograms merge across workers and runs."""

LEVEL_WIDTH_BOUNDARIES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
"""Fixed histogram buckets for ``fbdt.level_width`` — frontier nodes
fused per pass (the batch sizes the engine achieves; always 1 in
depth-first order)."""

_NODE_STREAM = 0x51AC
"""Domain separator of per-node RNG substreams (sibling of the
``0x51AB`` per-output stream in ``repro.perf.parallel``)."""

BLOCK_ROWS_BOUNDARIES = (1, 4, 16, 64, 256, 1024, 4096, 16384)
"""Fixed histogram buckets for ``fbdt.block_rows`` — per-node block
sizes entering each fused-query site (profiler-only)."""

BANK_FRESH_FRACTION = 0.25
"""Floor on the freshly sampled share of each bank-assisted leaf probe,
so stale bank rows can never fully starve a leaf test of new
evidence."""


@dataclass
class FbdtStats:
    """Diagnostics of one tree construction."""

    nodes_expanded: int = 0
    onset_leaves: int = 0
    offset_leaves: int = 0
    forced_leaves: int = 0  # timeout / cap / unsplittable majority leaves
    max_depth: int = 0
    exhausted: bool = False  # trick-1 path taken
    timed_out: bool = False
    budget_exhausted: bool = False  # query budget died mid-construction
    bank_hits: int = 0
    """Leaf-probe rows drained from the sample bank.  Together with
    ``bank_misses`` this partitions the probe traffic: for every
    completed leaf probe, ``bank_hits + bank_misses`` equals the rows
    requested (``nodes_expanded * leaf_samples``) in either exploration
    order."""
    bank_misses: int = 0
    """Leaf-probe rows the bank could not supply (freshly queried)."""
    levels: int = 0
    """Frontier passes processed: BFS levels in levelized order, one per
    expanded node in depth-first order."""
    minimize_wall_s: float = 0.0
    """Wall seconds spent in two-level minimization for this output
    (espresso-lite cleanup + exact/QM tabulation minimization).  Paid in
    the worker under ``--jobs`` (the cleanup cache travels with the
    cover), so this is attribution, not critical-path time."""
    minimize_cubes_in: int = 0
    """Cover cubes entering espresso-lite cleanup."""
    minimize_cubes_out: int = 0
    """Cover cubes after espresso-lite cleanup (<= ``minimize_cubes_in``
    unless the minimized cover lost the literal-count comparison)."""


@dataclass
class LearnedCover:
    """A learned single-output function as an (onset, offset) cover pair.

    ``use_offset`` selects the realization: False builds the onset SOP,
    True builds the complement of the offset SOP (trick 2).
    """

    onset: Sop
    offset: Sop
    use_offset: bool
    stats: FbdtStats = field(default_factory=FbdtStats)
    cleaned: Optional[Tuple[Sop, bool]] = None
    """Cache of :func:`cleanup_cover` — computed in the worker process
    under ``--jobs`` so the (expensive, per-output) two-level
    minimization parallelizes with the learning itself."""

    def chosen_cover(self) -> Tuple[Sop, bool]:
        """(cover to instantiate, complement flag)."""
        if self.use_offset:
            return self.offset, True
        return self.onset, False

    def evaluate(self, patterns: np.ndarray) -> np.ndarray:
        cover, complemented = self.chosen_cover()
        values = cover.evaluate(patterns)
        return (~values if complemented else values).astype(np.uint8)


def cleanup_cover(cover: LearnedCover) -> Tuple[Sop, bool]:
    """Espresso-lite on the chosen cover before gate construction.

    The FBDT hands back both the onset and the offset leaves, which is
    exactly the cover pair the espresso EXPAND step wants; anything in
    neither cover (timeout gaps) is a don't-care.  Bounded to modest
    covers — large ones go straight to factoring + synthesis.  The
    result is cached on the cover (it is a pure function of it), so the
    parallel learner can pay the cost once, off the critical path.
    """
    if cover.cleaned is not None:
        return cover.cleaned
    from repro.logic.minimize import espresso_lite

    sop, complemented = cover.chosen_cover()
    other = cover.onset if complemented else cover.offset
    if sop.cubes and len(sop) <= 160 and len(other) <= 160:
        cover.stats.minimize_cubes_in += len(sop)
        start = time.perf_counter()
        try:
            minimized = espresso_lite(sop, other, max_iterations=2)
            if minimized.literal_count() < sop.literal_count():
                sop = minimized
        except RecursionError:  # pathological covers; keep the original
            pass
        cover.stats.minimize_wall_s += time.perf_counter() - start
        cover.stats.minimize_cubes_out += len(sop)
    cover.cleaned = (sop, complemented)
    return cover.cleaned


def learn_output(oracle: Oracle, output: int, support: Sequence[int],
                 config: RegressorConfig, rng: np.random.Generator,
                 deadline: Optional[float] = None,
                 bank=None) -> LearnedCover:
    """Learn one output: exhaustive path for small supports, else FBDT.

    The exhaustive path validates its result on random probes; failures
    mean ``S'`` missed a dependency (Proposition 1 is one-sided), so the
    offending inputs are hunted down with an extra PatternSampling pass
    and the support widened before retrying.

    ``bank`` is an optional :class:`~repro.perf.bank.SampleBank` the
    tree's constant-leaf probes drain before spending query budget.
    """
    support = sorted(support)
    for _ in range(3):  # widen at most twice
        if len(support) > config.exhaustive_threshold:
            break
        cover = enumerate_small_function(oracle, output, support, config)
        extra = _missing_support(oracle, output, support, cover, config,
                                 rng)
        if not extra:
            return cover
        support = sorted(set(support) | set(extra))
    else:
        return cover
    return build_decision_tree(oracle, output, support, config, rng,
                               deadline=deadline, bank=bank)


def _missing_support(oracle: Oracle, output: int, support: Sequence[int],
                     cover: LearnedCover, config: RegressorConfig,
                     rng: np.random.Generator,
                     num_probes: int = 768) -> List[int]:
    """Inputs outside ``support`` that the probes prove matter.

    Random probes first find *witnesses* — assignments where the cover
    disagrees with the oracle; candidate inputs are then flip-tested at
    the witnesses themselves (the sensitized region), which finds the
    missing dependency far more reliably than fresh random sampling.
    """
    probes = random_patterns(num_probes, oracle.num_pis, rng,
                             config.sampling_biases)
    got = cover.evaluate(probes)
    want = oracle.query(probes, validate=False)[:, output]
    mismatched = probes[got != want]
    if mismatched.shape[0] == 0:
        return []
    candidates = [i for i in range(oracle.num_pis) if i not in support]
    if not candidates:
        return []
    witnesses = np.ascontiguousarray(mismatched[:64])
    # Fused flip test at the witnesses: one call for the base block and
    # every candidate's flip block (mirrors pattern_sampling).
    w = witnesses.shape[0]
    block = np.tile(witnesses, (1 + len(candidates), 1))
    for idx, i in enumerate(candidates):
        block[(idx + 1) * w:(idx + 2) * w, i] ^= 1
    out = oracle.query(block, validate=False)[:, output]
    base_out = out[:w]
    extra = []
    for idx, i in enumerate(candidates):
        flip_out = out[(idx + 1) * w:(idx + 2) * w]
        if (flip_out != base_out).any():
            extra.append(i)
    return extra


def enumerate_small_function(oracle: Oracle, output: int,
                             support: Sequence[int],
                             config: RegressorConfig) -> LearnedCover:
    """Trick 1: tabulate all ``2^|S'|`` minterms and minimize exactly.

    Inputs outside the (approximate) support are pinned to 0; if the
    approximation missed a dependency the error shows up as test
    inaccuracy, matching the paper's semantics of ``S' subseteq S``.
    """
    support = sorted(support)
    k = len(support)
    num_pis = oracle.num_pis
    stats = FbdtStats(exhausted=True)
    obs.count("fbdt.exhaustive_tabulations")
    if k == 0:
        value = int(oracle.query(
            np.zeros((1, num_pis), dtype=np.uint8),
            validate=False)[0, output])
        onset = Sop.one(num_pis) if value else Sop.zero(num_pis)
        offset = Sop.zero(num_pis) if value else Sop.one(num_pis)
        return LearnedCover(onset, offset, use_offset=False, stats=stats)
    patterns = np.zeros((1 << k, num_pis), dtype=np.uint8)
    minterm_bits = ((np.arange(1 << k)[:, None]
                     >> np.arange(k)[None, :]) & 1).astype(np.uint8)
    patterns[:, support] = minterm_bits
    values = oracle.query(patterns, validate=False)[:, output]
    table = TruthTable(k, _pack_bits(values))
    min_start = time.perf_counter()
    onset_local = _minimize_table(table, k)
    offset_local = _minimize_table(~table, k)
    stats.minimize_wall_s += time.perf_counter() - min_start
    onset = _lift_cover(onset_local, support, num_pis)
    offset = _lift_cover(offset_local, support, num_pis)
    use_offset = (config.onset_offset_selection
                  and (len(offset), offset.literal_count())
                  < (len(onset), onset.literal_count()))
    return LearnedCover(onset, offset, use_offset=use_offset, stats=stats)


def _pack_bits(values: np.ndarray) -> np.ndarray:
    return bitops.pack_bit_vector(values)


def _minimize_table(table: TruthTable, k: int) -> Sop:
    if k <= 8:
        return quine_mccluskey(table.minterms(), k)
    return table.isop()


def _lift_cover(cover: Sop, support: Sequence[int], num_pis: int) -> Sop:
    """Re-index a support-local cover into the full PI universe."""
    cubes = []
    for cube in cover.cubes:
        cubes.append(Cube({support[v]: phase
                           for v, phase in cube.literals()}))
    return Sop(cubes, num_pis)


def build_decision_tree(oracle: Oracle, output: int,
                        support: Sequence[int], config: RegressorConfig,
                        rng: np.random.Generator,
                        deadline: Optional[float] = None,
                        bank=None) -> LearnedCover:
    """Algorithm 2 with the paper's three tricks."""
    num_pis = oracle.num_pis
    support_set = set(support)
    stats = FbdtStats()
    onset: List[Cube] = []
    offset: List[Cube] = []
    root_ratio = _grow(oracle, output, support_set, config, rng, stats,
                       onset, offset, deadline=deadline, bank=bank)

    onset_sop = Sop(onset, num_pis).merge_siblings()
    offset_sop = Sop(offset, num_pis).merge_siblings()
    use_offset = False
    if config.onset_offset_selection:
        # Trick 2: specify the smaller half of the space.  The root truth
        # ratio decides the tendency; cover sizes break near-ties.
        if root_ratio is not None and root_ratio > 0.5:
            use_offset = True
        if onset_sop.literal_count() != offset_sop.literal_count():
            use_offset = (offset_sop.literal_count()
                          < onset_sop.literal_count())
    cover = LearnedCover(onset_sop, offset_sop, use_offset=use_offset,
                         stats=stats)
    return cover


@dataclass(eq=False)
class _FrontierNode:
    """One frontier node with its private RNG substream."""

    cube: Cube
    uid: int
    rng: np.random.Generator
    candidates: List[int] = field(default_factory=list)
    ratio: float = 0.0


def _query_blocks(oracle: Oracle, blocks: List[np.ndarray],
                  num_pos: int, site: str = "fused") -> List[np.ndarray]:
    """One fused oracle call over concatenated per-node blocks.

    Chunked at ``FUSED_CHUNK_ROWS`` without ever splitting a node's
    block (a partial failure loses whole nodes, never half of one's
    evidence).  Returns the output slices in block order;
    ``QueryBudgetExceeded`` propagates to the caller.  ``site`` names
    the fusion site (``probe`` / ``tabulate`` / ``split``) on the
    profiler's per-site cost counters.
    """
    sizes = [b.shape[0] for b in blocks]
    total = sum(sizes)
    if total == 0:
        return [np.empty((0, num_pos), dtype=np.uint8) for _ in blocks]
    if obs.profiling():
        obs.pcount("fbdt.fused_rows", total, site=site)
        for size in sizes:
            if size:
                obs.pobserve("fbdt.block_rows", size,
                             BLOCK_ROWS_BOUNDARIES, site=site)
    big = np.concatenate([b for b in blocks if b.shape[0]], axis=0)
    cuts = []
    chunk = pos = 0
    for size in sizes:
        if chunk and chunk + size > FUSED_CHUNK_ROWS:
            cuts.append(pos)
            chunk = 0
        chunk += size
        pos += size
    bounds = [0] + cuts + [total]
    outs = []
    for lo, hi in zip(bounds, bounds[1:]):
        obs.count("sampling.fused_calls")
        obs.count("sampling.rows", hi - lo)
        outs.append(oracle.query(big[lo:hi], validate=False))
    out = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)
    pieces = []
    lo = 0
    for size in sizes:
        pieces.append(out[lo:lo + size])
        lo += size
    return pieces


def _grow(oracle: Oracle, output: int, support_set: set,
          config: RegressorConfig, rng: np.random.Generator,
          stats: FbdtStats, onset: List[Cube], offset: List[Cube],
          deadline: Optional[float] = None, bank=None) -> Optional[float]:
    """Algorithm 2 over a frontier: a constant number of fused
    ``oracle.query`` calls per pass instead of several per node.

    ``pending`` holds the nodes not yet expanded.  In levelized order each
    pass takes all of it (one BFS level); in depth-first order it pops the
    newest node, so the frontier is that single node.  Children go back
    onto ``pending``.  Each node owns the RNG substream
    ``[base_key, _NODE_STREAM, uid]`` (uids assigned in deterministic
    creation order), so its draws are independent of how the frontier is
    batched; ``rng`` itself is consumed exactly once for ``base_key`` plus
    any timeout flushes, keeping same-seed runs bit-identical at any
    ``--jobs`` value.  Deadline flushes, the node cap and budget death
    turn every node still pending into a majority leaf.

    Bank accounting invariant: per completed pass, drained rows
    (``bank_hits``) plus fresh rows (``bank_misses``) equal
    ``frontier_width * leaf_samples`` — the contract checked by
    ``tests/core/test_fbdt_batched.py``.
    """
    from repro.perf.bank import BankedOracle

    num_pis = oracle.num_pis
    num_pos = oracle.num_pos
    eps = config.leaf_epsilon
    base_key = int(rng.integers(0, 2 ** 63))
    pending: List[Tuple[Cube, int]] = [(Cube.empty(), 0)]
    next_uid = 1
    root_ratio: Optional[float] = None

    def still_pending() -> List[Cube]:
        return [c for c, _ in pending]

    def give_up(unresolved: List[Cube]) -> None:
        """Budget death: every unresolved cube becomes a majority leaf."""
        stats.budget_exhausted = True
        stats.timed_out = True
        guess = root_ratio if root_ratio is not None else 0.0
        for cube in unresolved + still_pending():
            _majority_leaf(cube, guess, onset, offset, stats)

    while pending:
        if deadline is not None and time.monotonic() >= deadline:
            stats.timed_out = True
            _flush_pending(oracle, output, still_pending(), onset, offset,
                           rng, config, stats, fallback_ratio=root_ratio)
            return root_ratio
        if config.levelized:
            frontier, pending = pending, []
        else:
            frontier = [pending.pop()]
        # Node cap: process only what the budget allows; the overflow is
        # flushed as majority leaves after this (final) pass.
        allowed = config.max_tree_nodes - stats.nodes_expanded
        overflow = []
        if len(frontier) > allowed:
            overflow = [c for c, _ in frontier[allowed:]]
            frontier = frontier[:allowed]
        if not frontier:
            stats.timed_out = True
            _flush_pending(oracle, output, overflow + still_pending(),
                           onset, offset, rng, config, stats,
                           fallback_ratio=root_ratio)
            return root_ratio
        stats.levels += 1
        obs.count("fbdt.level_batches")
        obs.observe("fbdt.level_width", len(frontier),
                    LEVEL_WIDTH_BOUNDARIES)
        nodes = [_FrontierNode(cube, uid, np.random.default_rng(
            [base_key, _NODE_STREAM, uid])) for cube, uid in frontier]

        # --- fused constant-leaf probe across the frontier --------------
        drained: List[np.ndarray] = []
        fresh_blocks: List[np.ndarray] = []
        for node in nodes:
            stats.nodes_expanded += 1
            obs.count("fbdt.nodes_expanded")
            stats.max_depth = max(stats.max_depth, len(node.cube))
            node.candidates = sorted(i for i in support_set
                                     if i not in node.cube)
            want = config.leaf_samples
            banked_out = np.empty((0, num_pos), dtype=np.uint8)
            if bank is not None:
                fresh_min = max(1, int(np.ceil(
                    config.leaf_samples * BANK_FRESH_FRACTION)))
                _, banked_out = bank.take(
                    node.cube, config.leaf_samples - fresh_min)
                want = config.leaf_samples - banked_out.shape[0]
            drained.append(banked_out)
            if want > 0:
                fresh_blocks.append(random_patterns(
                    want, num_pis, node.rng, config.sampling_biases,
                    node.cube))
            else:
                fresh_blocks.append(
                    np.empty((0, num_pis), dtype=np.uint8))
        try:
            fresh_out = _query_blocks(oracle, fresh_blocks, num_pos,
                                      site="probe")
        except QueryBudgetExceeded:
            give_up([n.cube for n in nodes] + overflow)
            return root_ratio
        if bank is not None:
            stats.bank_hits += sum(b.shape[0] for b in drained)
            stats.bank_misses += sum(b.shape[0] for b in fresh_blocks)
            if not isinstance(oracle, BankedOracle):
                for pats, out in zip(fresh_blocks, fresh_out):
                    if pats.shape[0]:
                        bank.stats.misses += pats.shape[0]
                        bank.record(pats, out)

        # --- classify: constant leaves, depth cap, survivors ------------
        survivors: List[_FrontierNode] = []
        for node, banked_out, out in zip(nodes, drained, fresh_out):
            values = out[:, output] if not banked_out.shape[0] else \
                np.concatenate([banked_out[:, output], out[:, output]])
            node.ratio = float(values.mean())
            if root_ratio is None and node.uid == 0:
                root_ratio = node.ratio
            if node.ratio >= 1.0 - eps or node.ratio <= eps:
                kind = "onset" if node.ratio >= 1.0 - eps else "offset"
                (onset if kind == "onset" else offset).append(node.cube)
                if kind == "onset":
                    stats.onset_leaves += 1
                else:
                    stats.offset_leaves += 1
                obs.count("fbdt.leaves", kind=kind)
                obs.observe("fbdt.leaf_depth", len(node.cube),
                            LEAF_DEPTH_BOUNDARIES)
                continue
            survivors.append(node)

        # --- fused subtree conquest (trick 1 inside the tree) -----------
        exhaust_nodes: List[_FrontierNode] = []
        splitters: List[_FrontierNode] = []
        for node in survivors:
            if (node.candidates and 0 < config.subtree_exhaustive_threshold
                    and len(node.candidates)
                    <= config.subtree_exhaustive_threshold):
                exhaust_nodes.append(node)
            else:
                splitters.append(node)
        if exhaust_nodes:
            tab_blocks: List[np.ndarray] = []
            for node in exhaust_nodes:
                k = len(node.candidates)
                patterns = np.zeros((1 << k, num_pis), dtype=np.uint8)
                node.cube.apply_to(patterns)
                patterns[:, node.candidates] = bitops.minterm_block(k)
                probes = random_patterns(32, num_pis, node.rng,
                                         config.sampling_biases,
                                         node.cube)
                tab_blocks.append(patterns)
                tab_blocks.append(probes)
            try:
                tab_out = _query_blocks(oracle, tab_blocks, num_pos,
                                        site="tabulate")
            except QueryBudgetExceeded:
                give_up([n.cube for n in exhaust_nodes + splitters]
                        + overflow)
                return root_ratio
            for i, node in enumerate(exhaust_nodes):
                if _emit_tabulated(node.cube, node.candidates,
                                   tab_out[2 * i][:, output],
                                   tab_blocks[2 * i + 1],
                                   tab_out[2 * i + 1][:, output],
                                   onset, offset, stats):
                    continue
                splitters.append(node)  # validation failed: split on

        # --- fused split selection across the frontier ------------------
        children: List[Tuple[Cube, int]] = []
        if splitters:
            r = config.r_node
            blocks = []
            for node in splitters:
                base = random_patterns(r, num_pis, node.rng,
                                       config.sampling_biases, node.cube)
                block = np.tile(base, (1 + len(node.candidates), 1))
                for idx, i in enumerate(node.candidates):
                    block[(idx + 1) * r:(idx + 2) * r, i] ^= 1
                blocks.append(block)
            try:
                split_out = _query_blocks(oracle, blocks, num_pos,
                                          site="split")
            except QueryBudgetExceeded:
                give_up([n.cube for n in splitters] + overflow)
                return root_ratio
            for i, node in enumerate(splitters):
                cand = node.candidates
                try:
                    column = split_out[i][:, output].reshape(
                        1 + len(cand), r)
                    diffs = np.count_nonzero(
                        column[1:] != column[0][None, :], axis=1)
                    best = None
                    if cand:
                        j = int(np.argmax(diffs))
                        if diffs[j] > 0:
                            best = cand[j]
                    if best is None:
                        # Support under-approximation: widen with inputs
                        # outside S' (rare; one extra per-node call).
                        extra = [i_ for i_ in range(num_pis)
                                 if i_ not in node.cube
                                 and i_ not in support_set]
                        if extra:
                            sample = pattern_sampling(
                                oracle, node.cube, r, node.rng,
                                biases=config.sampling_biases,
                                candidates=extra)
                            best = sample.most_significant(output, extra)
                            if best is not None:
                                support_set.add(best)
                except QueryBudgetExceeded:
                    give_up([n.cube for n in splitters[i:]]
                            + [c for c, _ in children] + overflow)
                    return root_ratio
                if best is None:
                    _majority_leaf(node.cube, node.ratio, onset, offset,
                                   stats)
                    continue
                children.append((node.cube.with_literal(best, 0),
                                 next_uid))
                children.append((node.cube.with_literal(best, 1),
                                 next_uid + 1))
                next_uid += 2
        if overflow:
            stats.timed_out = True
            _flush_pending(oracle, output,
                           [c for c, _ in children] + overflow
                           + still_pending(),
                           onset, offset, rng, config, stats,
                           fallback_ratio=root_ratio)
            return root_ratio
        pending.extend(children)
    return root_ratio


def _emit_tabulated(cube: Cube, candidates: List[int],
                    values: np.ndarray, probes: np.ndarray,
                    probe_out: np.ndarray, onset: List[Cube],
                    offset: List[Cube], stats: FbdtStats) -> bool:
    """Validate a tabulated subspace and emit its minimized leaves.

    ``values`` is the truth vector over ``candidates``' minterms and
    ``probes``/``probe_out`` the random validation rows; returns False —
    emitting nothing — when a non-candidate free input matters in this
    subspace (prediction/oracle disagreement), so the caller falls back
    to splitting.
    """
    k = len(candidates)
    table = TruthTable(k, _pack_bits(values))
    probe_minterms = np.zeros(probes.shape[0], dtype=np.int64)
    for i, var in enumerate(candidates):
        probe_minterms += probes[:, var].astype(np.int64) << i
    predicted = bitops.testbits(table.words, probe_minterms)
    if not np.array_equal(predicted, probe_out):
        return False
    min_start = time.perf_counter()
    local_on = _minimize_table(table, k)
    local_off = _minimize_table(~table, k)
    stats.minimize_wall_s += time.perf_counter() - min_start
    for local, collection in ((local_on, onset), (local_off, offset)):
        for local_cube in local.cubes:
            lifted = Cube({candidates[v]: phase
                           for v, phase in local_cube.literals()})
            merged = cube.conjoin(lifted)
            assert merged is not None  # disjoint variable sets
            collection.append(merged)
    stats.onset_leaves += len(local_on)
    stats.offset_leaves += len(local_off)
    obs.count("fbdt.leaves", len(local_on), kind="onset")
    obs.count("fbdt.leaves", len(local_off), kind="offset")
    obs.count("fbdt.subtrees_exhausted")
    stats.max_depth = max(stats.max_depth, len(cube) + k)
    return True


def _majority_leaf(cube: Cube, ratio: float, onset: List[Cube],
                   offset: List[Cube], stats: FbdtStats) -> None:
    if ratio > 0.5:
        onset.append(cube)
    else:
        offset.append(cube)
    stats.forced_leaves += 1
    obs.count("fbdt.leaves", kind="forced")
    obs.observe("fbdt.leaf_depth", len(cube), LEAF_DEPTH_BOUNDARIES)


def _flush_pending(oracle: Oracle, output: int, pending: List[Cube],
                   onset: List[Cube], offset: List[Cube],
                   rng: np.random.Generator, config: RegressorConfig,
                   stats: FbdtStats, probes_per_cube: int = 8,
                   fallback_ratio: Optional[float] = None) -> None:
    """Timeout path: every undecided node becomes a majority-value leaf.

    All pending cubes are probed in one batched oracle call; if that
    query cannot be served (budget exhausted), the cubes fall back to
    the ``fallback_ratio`` majority guess so a cover is still emitted.
    """
    if not pending:
        return
    num_pis = oracle.num_pis
    block = random_patterns(probes_per_cube * len(pending), num_pis, rng,
                            config.sampling_biases)
    for idx, cube in enumerate(pending):
        rows = block[idx * probes_per_cube:(idx + 1) * probes_per_cube]
        cube.apply_to(rows)
    try:
        out = oracle.query(block, validate=False)[:, output]
    except QueryBudgetExceeded:
        stats.budget_exhausted = True
        guess = fallback_ratio if fallback_ratio is not None else 0.0
        for cube in pending:
            _majority_leaf(cube, guess, onset, offset, stats)
        return
    for idx, cube in enumerate(pending):
        ratio = float(
            out[idx * probes_per_cube:(idx + 1) * probes_per_cube].mean())
        _majority_leaf(cube, ratio, onset, offset, stats)
