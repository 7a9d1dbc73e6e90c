"""The five-step circuit-learning pipeline (Fig. 1).

Steps: 1) name based grouping, 2) template matching, 3) support
identification, 4) decision-tree based circuit construction, 5) circuit
optimization.  Each output is handled independently (the problem decomposes
per output, Sec. IV), with the wall-clock budget shared across outputs and
the timeout path degrading gracefully to partial-but-accurate circuits.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.compression import CompressedOracle
from repro.core.config import RegressorConfig
from repro.core.fbdt import (FbdtStats, LearnedCover, cleanup_cover,
                             learn_output)
from repro.core.grouping import Grouping, group_names
from repro.core.sampling import random_patterns
from repro.core.support import identify_supports
from repro.core.templates.comparator import ComparatorMatch, match_comparator
from repro.core.templates.linear import LinearMatch, match_linear
from repro.logic import bitops
from repro.logic.sop import Sop
from repro.network.builder import (build_factored_sop, comparator,
                                   comparator_const, linear_combination)
from repro.network.netlist import Netlist
from repro.obs import context as obs_ctx
from repro.obs.context import Instrumentation
from repro.obs.steptrace import StepTrace
from repro.oracle.base import Oracle, QueryBudgetExceeded
from repro.perf.bank import BankedOracle, BankStats, SampleBank
from repro.perf.parallel import (OutputTask, derive_output_rng,
                                 learn_outputs)
from repro.robustness.audit import AuditingOracle, AuditPolicy
from repro.robustness.checkpoint import CheckpointEntry, CheckpointStore
from repro.robustness.deadline import Deadline, DeadlineManager
from repro.robustness.retry import RetryingOracle, RetryPolicy
from repro.robustness.verify import (VerificationReport, VerifyPolicy,
                                     verify_and_repair)
from repro.synth.scripts import optimize_netlist

PROPAGATION_TRIES = 24
"""Random context assignments tried when searching the propagation
cube of a buried comparator (Sec. IV-B1)."""


@dataclass
class OutputReport:
    """How one primary output was learned."""

    po_index: int
    po_name: str
    method: str  # linear-template | comparator-template |
    #              comparator-compressed | exhaustive | fbdt | constant
    detail: str = ""
    support_size: int = 0
    stats: Optional[FbdtStats] = None


@dataclass
class LearnResult:
    """The learned circuit plus full diagnostics."""

    netlist: Netlist
    reports: List[OutputReport]
    elapsed: float
    queries: int
    step_trace: List[str] = field(default_factory=list)
    bank_stats: Optional[BankStats] = None
    degradations: List[str] = field(default_factory=list)
    """Rendered ``degraded`` events — what the run gave up on."""

    instrumentation: Optional[Instrumentation] = None
    """The run's tracer + metrics registry (None when
    ``config.observability.enabled`` is off); feed it to
    :func:`repro.obs.report.build_run_report` or the trace exporters."""

    verification: Optional[VerificationReport] = None
    """Post-learning certificate (None when ``robustness.verify`` is
    off or verification errored): per-output Wilson-bound statuses,
    repair record, and rows spent.  Serialized into the
    ``verification`` section of ``run_report.json``."""

    engine_mode: str = "sequential"
    """How step-4 ran (``sequential`` or ``parallel xN``)."""

    engine: Dict[str, str] = field(default_factory=dict)
    """Resolved execution-engine knobs for the run: ``kernel_backend``
    (the *resolved* backend — ``auto`` never appears here) and ``mode``
    (same as :attr:`engine_mode`).  Serialized as the report's
    ``engine`` section (schema v4)."""

    supervisor: Optional[dict] = None
    """Supervised-pool statistics (crashes, hangs, redispatches,
    quarantines) when the parallel engine ran; None otherwise."""

    sample_bank: Optional[SampleBank] = None
    """The run's bank (None when disabled) — the service exports its
    rows into the cross-job cache after the run."""

    retry_stats: Optional[Dict[str, int]] = None
    """Retry-wrapper counters (:meth:`RetryingOracle.counters`) when
    retries were enabled; surfaced in the report's ``caches`` section."""

    bank_prefilled: int = 0
    """Rows seeded into the bank from the cross-job cache before the
    run (0 when no prefill was offered or it was unusable)."""

    @property
    def gate_count(self) -> int:
        return self.netlist.gate_count()

    def methods_used(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self.reports:
            out[r.method] = out.get(r.method, 0) + 1
        return out


class LogicRegressor:
    """Learn a compact circuit for a black-box IO-generator."""

    def __init__(self, config: Optional[RegressorConfig] = None):
        self.config = config or RegressorConfig()
        self.config.validate()

    # -- public API -------------------------------------------------------------

    def learn(self, oracle: Oracle, *, checkpoint: Optional[str] = None,
              resume: Optional[bool] = None,
              bank_prefill: Optional[Tuple[np.ndarray, np.ndarray]] = None
              ) -> LearnResult:
        """Run the full pipeline against ``oracle``.

        ``checkpoint``/``resume`` override the corresponding
        :class:`~repro.core.config.RobustnessConfig` fields: with a
        checkpoint path each completed output is persisted, and with
        ``resume=True`` outputs found in an existing checkpoint are
        restored verbatim instead of re-learned.

        ``bank_prefill`` seeds the sample bank with already-answered
        ``(patterns, outputs)`` rows (the service's cross-job cache)
        before any query is issued; rows with the wrong shape are
        ignored, and the prefill is a no-op when the bank is disabled.
        """
        cfg = self.config
        # The oracle handed to us is the billing meter: its query_count
        # is the run's billed-row total, and every wrapper we stack on
        # top (retry, bank) only decides what still needs asking.
        obs_ctx.mark_billing(oracle)
        obs_cfg = cfg.observability
        instr = Instrumentation(
            profile=obs_cfg.profile,
            profile_memory=obs_cfg.profile_memory) \
            if obs_cfg.enabled else None
        st = StepTrace()
        # Stage memory watermarks need tracemalloc; start it only if the
        # caller isn't already tracing, and stop only what we started.
        own_tracemalloc = (instr is not None and instr.profile_memory
                           and not tracemalloc.is_tracing())
        if own_tracemalloc:
            tracemalloc.start()
        try:
            with obs_ctx.use(instr):
                # The root span is named "run" with no parent; the report
                # builder relies on that to find top-level stage walls.
                try:
                    with obs_ctx.span("run", seed=cfg.seed,
                                      jobs=cfg.jobs):
                        result = self._learn_impl(oracle, checkpoint,
                                                  resume, st,
                                                  bank_prefill)
                except BaseException as exc:
                    # A graceful-shutdown signal (or anything else
                    # carrying an instrumentation slot) gets the partial
                    # trace so the CLI can still flush observability
                    # artifacts.
                    if hasattr(exc, "instrumentation"):
                        exc.instrumentation = instr
                    raise
        finally:
            if own_tracemalloc:
                tracemalloc.stop()
        result.instrumentation = instr
        return result

    def _learn_impl(self, oracle: Oracle, checkpoint: Optional[str],
                    resume: Optional[bool], st: StepTrace,
                    bank_prefill: Optional[Tuple[np.ndarray, np.ndarray]]
                    = None) -> LearnResult:
        cfg = self.config
        rob = cfg.robustness
        if checkpoint is None:
            checkpoint = rob.checkpoint_path
        if resume is None:
            resume = rob.resume
        # Resolve the packed-kernel backend once for the whole run; a
        # requested-but-unavailable numba degrades to numpy here rather
        # than erroring deep inside a hot loop.
        kernel_backend = bitops.set_backend(cfg.kernel_backend)
        rng = np.random.default_rng(cfg.seed)
        deadlines = DeadlineManager(cfg.time_limit)
        start_queries = oracle.query_count
        # The execution layer talks to the oracle through the retry
        # wrapper; budget metering stays on the caller's oracle.  The
        # corruption audit sits directly above the billing oracle so
        # every delivered row can be spot-checked before any cache
        # (retry memo, sample bank) gets to memorize it.
        audited: Optional[AuditingOracle] = None
        base_exec: Oracle = oracle
        if rob.audit_rate > 0.0:
            audited = AuditingOracle(
                oracle, AuditPolicy(rate=rob.audit_rate, seed=cfg.seed))
            base_exec = audited
        inner_exec: Oracle = base_exec
        if rob.max_retries > 0:
            inner_exec = RetryingOracle(
                base_exec,
                policy=RetryPolicy(max_retries=rob.max_retries,
                                   base_delay=rob.retry_base_delay,
                                   max_delay=rob.retry_max_delay),
                seed=cfg.seed)
        # The sample bank sits above the retry wrapper: rows it serves
        # from memory never reach (or bill) the underlying oracle.
        bank: Optional[SampleBank] = None
        exec_oracle: Oracle = inner_exec
        bank_prefilled = 0
        if cfg.enable_sample_bank:
            bank = SampleBank(oracle.num_pis, oracle.num_pos)
            if bank_prefill is not None:
                bank_prefilled = self._prefill_bank(bank, bank_prefill,
                                                    oracle, st)
            exec_oracle = BankedOracle(inner_exec, bank)
        if audited is not None:
            # Proven-poisoned rows must be purged wherever a stale copy
            # may hide: the retry memo cache and the sample bank.
            if isinstance(inner_exec, RetryingOracle):
                audited.add_invalidator(inner_exec.invalidate)
            if bank is not None:
                audited.add_invalidator(bank.invalidate)

        store: Optional[CheckpointStore] = None
        restored: Dict[int, CheckpointEntry] = {}
        if checkpoint:
            store = CheckpointStore(checkpoint)
            restored = store.open_for(oracle.pi_names, oracle.po_names,
                                      cfg.seed, resume=bool(resume))
            if restored:
                st.emit("checkpoint",
                        outputs=[oracle.po_names[j]
                                 for j in sorted(restored)])

        # -- step 1: name based grouping ------------------------------------
        pi_grouping = Grouping(buses=[], scalars=list(range(oracle.num_pis)))
        po_grouping = Grouping(buses=[], scalars=list(range(oracle.num_pos)))
        if cfg.enable_preprocessing:
            with obs_ctx.stage("grouping"):
                pi_grouping = group_names(oracle.pi_names)
                po_grouping = group_names(oracle.po_names)
            st.emit("grouping", pi_buses=len(pi_grouping.buses),
                    po_buses=len(po_grouping.buses))

        # -- step 2: template matching -----------------------------------------
        linear_matches: List[LinearMatch] = []
        extended_matches: List = []
        comparator_matches: Dict[int, ComparatorMatch] = {}
        done: set = set(restored)
        if cfg.enable_preprocessing:
            with obs_ctx.stage("templates"):
                linear_matches = self._shielded(
                    "linear templates", st, [],
                    lambda: self._match_linear_buses(
                        oracle=exec_oracle, pi_grouping=pi_grouping,
                        po_grouping=po_grouping, rng=rng, st=st,
                        done=done))
                if cfg.enable_extended_templates:
                    extended_matches = self._shielded(
                        "extended templates", st, [],
                        lambda: self._match_extended(
                            exec_oracle, pi_grouping, po_grouping, rng,
                            st, done))
                self._shielded(
                    "comparator templates", st, None,
                    lambda: self._match_comparators(
                        exec_oracle, pi_grouping, rng, st, done,
                        comparator_matches, deadlines.preprocessing.hard))

        # -- output dedup: identical / complemented outputs learn once ------
        remaining = [j for j in range(oracle.num_pos) if j not in done]
        aliases: Dict[int, Tuple[int, bool]] = {}
        if cfg.enable_output_sharing and len(remaining) > 1:
            with obs_ctx.stage("sharing"):
                aliases = self._shielded(
                    "output sharing", st, {},
                    lambda: self._find_output_aliases(exec_oracle,
                                                      remaining, rng))
            if aliases:
                remaining = [j for j in remaining if j not in aliases]
                st.emit("sharing", pairs=[
                    {"output": oracle.po_names[j],
                     "rep": oracle.po_names[r], "complemented": c}
                    for j, (r, c) in sorted(aliases.items())])

        # -- step 3: support identification -------------------------------------
        supports: Dict[int, List[int]] = {}
        if remaining:
            # On failure every output keeps an empty support: the learn
            # step then starts from the exhaustive path and widens the
            # support itself, so a lost step 3 degrades instead of dying.
            with obs_ctx.stage("support"):
                info = self._shielded(
                    "support identification", st, None,
                    lambda: identify_supports(exec_oracle, cfg.r_support,
                                              rng,
                                              biases=cfg.sampling_biases,
                                              outputs=remaining))
            for j in remaining:
                supports[j] = info.support_of(j) if info is not None else []
            st.emit("support",
                    sizes=[(oracle.po_names[j], len(supports[j]))
                           for j in remaining[:8]],
                    truncated=len(remaining) > 8)

        # -- step 4: FBDT / exhaustive learning -----------------------------------
        covers: Dict[int, Tuple[LearnedCover, Optional[ComparatorMatch],
                                Optional[CompressedOracle]]] = {}
        overrides: Dict[int, Tuple[str, str]] = {}
        for j, entry in restored.items():
            covers[j] = (entry.cover, None, None)
            supports[j] = list(entry.support)
            detail = f"resumed · {entry.detail}" if entry.detail \
                else "resumed"
            overrides[j] = (entry.method, detail)
        # Easiest (smallest support) outputs first: cheap wins land before
        # the budget runs out, mirroring the paper's per-output time caps.
        # Buried-comparator outputs stay in the main process (their
        # compressed-space queries seed the sample bank before the
        # fan-out); everything else goes through the parallel engine.
        order = sorted(remaining, key=lambda j: len(supports[j]))
        buried = [j for j in order
                  if comparator_matches.get(j) is not None
                  and comparator_matches[j].buried]
        buried_set = set(buried)
        plain = [j for j in order if j not in buried_set]
        total = len(order)
        with obs_ctx.stage("learn"):
            for idx, j in enumerate(buried):
                slice_deadline = deadlines.output_slice(idx, total)
                name = oracle.po_names[j]
                try:
                    with obs_ctx.output_scope(j, name):
                        covers[j] = self._learn_one(
                            exec_oracle, j, supports, comparator_matches,
                            slice_deadline, rng)
                except QueryBudgetExceeded as exc:
                    # Per-output boundary (satellite of the
                    # fault-tolerance work): an exhausted budget costs
                    # this output, not the outputs already learned or
                    # still pending.
                    covers[j] = (self._fallback_cover(
                        inner_exec, j, derive_output_rng(cfg.seed, j)),
                        None, None)
                    overrides[j] = ("budget-exhausted",
                                    "constant-majority fallback")
                    st.emit("degraded", subject=name,
                            reason="budget-exhausted", detail=str(exc))
                    continue
                except Exception as exc:  # noqa: BLE001 - isolation
                    covers[j] = (self._fallback_cover(
                        inner_exec, j, derive_output_rng(cfg.seed, j)),
                        None, None)
                    overrides[j] = ("degraded",
                                    f"{type(exc).__name__}: {exc}")
                    st.emit("degraded", subject=name, reason="failed",
                            detail=f"{type(exc).__name__}: {exc}")
                    continue
                cover, match, _ = covers[j]
                if cover.stats.budget_exhausted:
                    overrides[j] = ("budget-exhausted",
                                    "partial cover, budget died mid-tree")
                    st.emit("degraded", subject=name,
                            reason="partial-cover")
                elif slice_deadline.hard_expired():
                    st.emit("deadline", subject=name)

            extra_queries = 0
            engine_mode = "sequential"
            supervisor_stats: Optional[dict] = None
            if plain:
                if bank is not None:
                    # Frozen before the fan-out: every output (any jobs
                    # value) forks the same snapshot, so no output
                    # observes rows produced by a sibling — the
                    # determinism keystone.
                    bank.freeze()
                if isinstance(inner_exec, RetryingOracle):
                    # Same keystone for the retry memo cache: freeze in
                    # both modes so sequential outputs and worker shards
                    # see one snapshot and bill the same rows at any
                    # --jobs value.
                    inner_exec.freeze_cache()
                tasks = [OutputTask(j, supports[j]) for j in plain]
                slice_provider = None
                if cfg.jobs <= 1:
                    offset = len(buried)

                    def slice_provider(idx: int, _n: int,
                                       _offset: int = offset
                                       ) -> Tuple[float, float]:
                        d = deadlines.output_slice(_offset + idx, total)
                        return (max(0.0, d.remaining()),
                                max(0.0, d.hard_remaining()))
                else:
                    budgets = deadlines.parallel_slices(len(plain),
                                                        cfg.jobs)
                    for task, (soft, hard) in zip(tasks, budgets):
                        task.soft_seconds = soft
                        task.hard_seconds = hard

                def on_result(res) -> None:
                    if store is None or res.cover is None or res.error:
                        return
                    if res.cover.stats.budget_exhausted:
                        return
                    method, detail = self._cover_method(res.cover,
                                                        supports,
                                                        res.index)
                    store.record_output(CheckpointEntry(
                        po_index=res.index,
                        po_name=oracle.po_names[res.index], method=method,
                        detail=detail,
                        support=supports.get(res.index, []),
                        cover=res.cover))

                engine = learn_outputs(inner_exec, tasks, cfg,
                                       jobs=cfg.jobs, bank=bank,
                                       slice_provider=slice_provider,
                                       on_result=on_result)
                extra_queries = engine.extra_queries
                engine_mode = engine.mode
                supervisor_stats = engine.supervisor
                if engine.note:
                    st.emit("parallel-note", message=engine.note)
                if cfg.jobs > 1:
                    st.emit("parallel", outputs=len(plain),
                            jobs=cfg.jobs, mode=engine.mode)
                # Fold results back in `plain` order so covers / trace /
                # netlist node ids never depend on worker completion
                # order.
                for j in plain:
                    name = oracle.po_names[j]
                    res = engine.results.get(j)
                    if res is not None and res.cover is not None:
                        covers[j] = (res.cover, None, None)
                        if res.cover.stats.budget_exhausted:
                            overrides[j] = ("budget-exhausted",
                                            "partial cover, budget died "
                                            "mid-tree")
                            st.emit("degraded", subject=name,
                                    reason="partial-cover")
                        elif res.hard_overrun:
                            st.emit("deadline", subject=name)
                        continue
                    error = res.error if res is not None else "no result"
                    error_type = res.error_type if res is not None else ""
                    covers[j] = (self._fallback_cover(
                        inner_exec, j, derive_output_rng(cfg.seed, j)),
                        None, None)
                    if error_type == "QueryBudgetExceeded":
                        overrides[j] = ("budget-exhausted",
                                        "constant-majority fallback")
                        st.emit("degraded", subject=name,
                                reason="budget-exhausted", detail=error)
                    else:
                        overrides[j] = ("degraded", error)
                        st.emit("degraded", subject=name,
                                reason="failed", detail=error)
        if bank is not None:
            st.emit("bank", hits=bank.stats.hits,
                    misses=bank.stats.misses, rows_resident=len(bank),
                    kib=bank.nbytes() >> 10,
                    evicted=bank.stats.rows_evicted)

        # -- assembly ------------------------------------------------------------------
        with obs_ctx.stage("assemble"):
            net = self._assemble(oracle, linear_matches, extended_matches,
                                 comparator_matches, covers, supports,
                                 aliases)
            reports = self._reports(oracle, linear_matches,
                                    extended_matches, comparator_matches,
                                    covers, supports, aliases, overrides)

        # -- step 5: circuit optimization -----------------------------------------------
        if cfg.enable_optimization:
            with obs_ctx.stage("optimize"):
                try:
                    net, opt_report = optimize_netlist(
                        net, time_limit=deadlines.optimize_budget(),
                        rng=rng,
                        max_iterations=cfg.optimize_iterations)
                    st.emit("optimize",
                            initial_size=opt_report.initial_size,
                            final_size=opt_report.final_size,
                            scripts=opt_report.scripts_run)
                except Exception as exc:  # noqa: BLE001 - isolation
                    st.emit("degraded", subject="optimization",
                            reason="optimize-failed",
                            detail=type(exc).__name__)

        # -- verify-and-repair: the run certifies its own output ------------
        verification: Optional[VerificationReport] = None
        if rob.verify:
            with obs_ctx.stage("verify"):
                # Include worker-shard rows (invisible to this oracle's
                # meter) so the verify sample is sized identically at
                # any --jobs value.
                learn_billed = (oracle.query_count - start_queries
                                + extra_queries)
                policy = VerifyPolicy(seed=cfg.seed)
                try:
                    # Against the *billing* oracle directly — the bank
                    # and the retry cache hold exactly the rows whose
                    # trustworthiness is in question.
                    net, verification = verify_and_repair(
                        net, oracle, policy,
                        learn_billed_rows=learn_billed,
                        supports=supports, config=cfg)
                except Exception as exc:  # noqa: BLE001 - isolation
                    st.emit("degraded", subject="verification",
                            reason="verify-error",
                            detail=f"{type(exc).__name__}: {exc}")
            if verification is not None:
                st.emit("verify",
                        statuses=verification.status_counts(),
                        rows=verification.rows_spent)
                for v in verification.outputs:
                    if v.status == "verify-failed":
                        st.emit("degraded", subject=v.po_name,
                                reason="verify-failed",
                                detail=(f"lcb={v.lower_bound:.6f} "
                                        f"mismatches={v.mismatches}"))

        if audited is not None:
            st.emit("audit", **audited.counters.as_dict())

        return LearnResult(netlist=net, reports=reports,
                           elapsed=deadlines.elapsed(),
                           queries=(oracle.query_count - start_queries
                                    + extra_queries),
                           step_trace=st.lines(),
                           bank_stats=bank.stats if bank is not None
                           else None,
                           degradations=st.degradations(),
                           verification=verification,
                           engine_mode=engine_mode,
                           engine={"kernel_backend": kernel_backend,
                                   "mode": engine_mode},
                           supervisor=supervisor_stats,
                           sample_bank=bank,
                           retry_stats=(inner_exec.counters()
                                        if isinstance(inner_exec,
                                                      RetryingOracle)
                                        else None),
                           bank_prefilled=bank_prefilled)

    @staticmethod
    def _prefill_bank(bank: SampleBank,
                      prefill: Tuple[np.ndarray, np.ndarray],
                      oracle: Oracle, st: StepTrace) -> int:
        """Seed the bank from already-answered rows (cross-job cache).

        Unusable input (wrong shapes, wrong widths, garbage dtypes) is
        dropped silently: a prefill may only ever save queries.
        """
        try:
            patterns = np.asarray(prefill[0], dtype=np.uint8)
            outputs = np.asarray(prefill[1], dtype=np.uint8)
        except (ValueError, TypeError, IndexError):
            return 0
        if patterns.ndim != 2 or outputs.ndim != 2 \
                or patterns.shape[0] != outputs.shape[0] \
                or patterns.shape[1] != oracle.num_pis \
                or outputs.shape[1] != oracle.num_pos:
            return 0
        bank.record(patterns, outputs)
        rows = len(bank)
        if rows:
            st.emit("bank-prefill", rows=rows)
        return rows

    # -- execution-layer helpers -------------------------------------------------

    def _shielded(self, label: str, st: StepTrace, default, fn):
        """Run one pipeline step inside an isolation boundary.

        A failing step degrades to ``default`` (with a trace event)
        instead of killing the run.
        """
        try:
            return fn()
        except QueryBudgetExceeded as exc:
            st.emit("degraded", subject=label, reason="skipped",
                    detail=str(exc))
            return default
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            st.emit("degraded", subject=label, reason="failed",
                    detail=f"{type(exc).__name__}: {exc}")
            return default

    def _learn_one(self, oracle: Oracle, j: int,
                   supports: Dict[int, List[int]],
                   comparator_matches: Dict[int, ComparatorMatch],
                   slice_deadline: Deadline, rng: np.random.Generator
                   ) -> Tuple[LearnedCover, Optional[ComparatorMatch],
                              Optional[CompressedOracle]]:
        """Learn one output's cover within its deadline slice."""
        cfg = self.config
        match = comparator_matches.get(j)
        if match is not None and match.buried:
            compressed = CompressedOracle(oracle, match)
            sub_rng = np.random.default_rng(cfg.seed + 17 * (j + 1))
            sub_info = identify_supports(
                compressed, max(32, cfg.r_support // 4), sub_rng,
                biases=cfg.sampling_biases, outputs=[j])
            cover = learn_output(compressed, j, sub_info.support_of(j),
                                 cfg, sub_rng,
                                 deadline=slice_deadline.soft)
            return cover, match, compressed
        cover = learn_output(oracle, j, supports[j], cfg, rng,
                             deadline=slice_deadline.soft)
        return cover, None, None

    def _fallback_cover(self, oracle: Oracle, j: int,
                        rng: np.random.Generator) -> LearnedCover:
        """Constant-majority cover: always yields a valid netlist.

        A last probe decides the constant; if even that fails (budget
        gone, oracle down) the output falls back to constant 0.
        """
        value = 0
        try:
            probes = random_patterns(32, oracle.num_pis, rng,
                                     self.config.sampling_biases)
            value = int(oracle.query(probes)[:, j].mean() >= 0.5)
        except Exception:  # noqa: BLE001 - last-resort fallback
            pass
        num_pis = oracle.num_pis
        onset = Sop.one(num_pis) if value else Sop.zero(num_pis)
        offset = Sop.zero(num_pis) if value else Sop.one(num_pis)
        return LearnedCover(onset, offset, use_offset=False,
                            stats=FbdtStats())

    @staticmethod
    def _cover_method(cover: LearnedCover, supports: Dict[int, List[int]],
                      j: int) -> Tuple[str, str]:
        """(method, detail) for a cleanly learned plain cover."""
        if cover.stats.exhausted:
            return "exhaustive", f"|S'|={len(supports.get(j, []))}"
        return "fbdt", (f"nodes={cover.stats.nodes_expanded} "
                        f"forced={cover.stats.forced_leaves}")

    # -- step 2 helpers ------------------------------------------------------------

    def _match_linear_buses(self, oracle: Oracle, pi_grouping: Grouping,
                            po_grouping: Grouping,
                            rng: np.random.Generator, st: StepTrace,
                            done: set) -> List[LinearMatch]:
        matches: List[LinearMatch] = []
        if not pi_grouping.buses:
            return matches
        orientations = [pi_grouping]
        if self.config.try_reversed_buses:
            orientations.append(Grouping(
                buses=[b.reversed_() for b in pi_grouping.buses],
                scalars=pi_grouping.scalars))
        for out_bus in po_grouping.buses:
            if any(pos in done for pos in out_bus.positions):
                continue  # some bit already learned (e.g. checkpoint)
            out_variants = [out_bus]
            if self.config.try_reversed_buses:
                out_variants.append(out_bus.reversed_())
            match = None
            for grouping in orientations:
                for variant in out_variants:
                    match = match_linear(
                        oracle, grouping, variant, rng,
                        num_samples=self.config.template_samples)
                    if match is not None:
                        break
                if match is not None:
                    break
            if match is not None:
                matches.append(match)
                done.update(out_bus.positions)
                st.emit("template", describe=match.describe())
        return matches

    def _match_extended(self, oracle: Oracle, pi_grouping: Grouping,
                        po_grouping: Grouping, rng: np.random.Generator,
                        st: StepTrace, done: set) -> List:
        """Sec. VI extension families for output buses linear missed."""
        from repro.core.templates.extended import (match_bitwise,
                                                   match_mux, match_wiring)

        matches = []
        for out_bus in po_grouping.buses:
            if set(out_bus.positions) <= done:
                continue
            match = None
            if pi_grouping.buses:
                match = match_mux(oracle, pi_grouping, out_bus, rng,
                                  num_samples=self.config.template_samples)
                if match is None:
                    match = match_bitwise(
                        oracle, pi_grouping, out_bus, rng,
                        num_samples=self.config.template_samples)
            if match is None:
                match = match_wiring(
                    oracle, out_bus, rng,
                    num_samples=max(160, self.config.template_samples))
            if match is not None:
                matches.append(match)
                done.update(out_bus.positions)
                st.emit("template", describe=match.describe())
        return matches

    def _match_comparators(self, oracle: Oracle, pi_grouping: Grouping,
                           rng: np.random.Generator, st: StepTrace,
                           done: set,
                           out: Dict[int, ComparatorMatch],
                           deadline: float) -> None:
        if not pi_grouping.buses:
            return
        for j in range(oracle.num_pos):
            if j in done or time.monotonic() >= deadline:
                continue
            match = match_comparator(
                oracle, pi_grouping, j, rng,
                num_samples=self.config.template_samples,
                propagation_tries=PROPAGATION_TRIES)
            if match is None:
                continue
            out[j] = match
            if not match.buried:
                done.add(j)
                st.emit("template", output=oracle.po_names[j],
                        describe=match.describe())
            else:
                st.emit("template", output=oracle.po_names[j],
                        describe=match.describe(), delegate=True)

    # -- output dedup helpers ---------------------------------------------------

    def _find_output_aliases(self, oracle: Oracle, outputs: List[int],
                             rng: np.random.Generator
                             ) -> Dict[int, Tuple[int, bool]]:
        """Map duplicate outputs to (representative, complemented).

        Each output is learned independently per the paper; sharing
        identical or complemented outputs is free circuit size.  With 512
        probe patterns a spurious alias has probability 2^-512, so a
        sampled signature match is accepted directly.
        """
        from repro.core.sampling import random_patterns

        probes = random_patterns(512, oracle.num_pis, rng,
                                 self.config.sampling_biases)
        values = oracle.query(probes)
        by_signature: Dict[bytes, Tuple[int, bool]] = {}
        aliases: Dict[int, Tuple[int, bool]] = {}
        for j in outputs:
            column = np.packbits(values[:, j]).tobytes()
            inverse = np.packbits(values[:, j] ^ 1).tobytes()
            if column in by_signature:
                rep, rep_c = by_signature[column]
                aliases[j] = (rep, rep_c)
            elif inverse in by_signature:
                rep, rep_c = by_signature[inverse]
                aliases[j] = (rep, not rep_c)
            else:
                by_signature[column] = (j, False)
        return aliases

    # -- assembly ----------------------------------------------------------------------

    def _assemble(self, oracle: Oracle,
                  linear_matches: List[LinearMatch],
                  extended_matches: List,
                  comparator_matches: Dict[int, ComparatorMatch],
                  covers: Dict, supports: Dict[int, List[int]],
                  aliases: Optional[Dict[int, Tuple[int, bool]]] = None
                  ) -> Netlist:
        net = Netlist("learned")
        pi_nodes = [net.add_pi(name) for name in oracle.pi_names]
        po_nodes: Dict[int, int] = {}
        for match in extended_matches:
            po_nodes.update(match.build(net, pi_nodes))
        for match in linear_matches:
            words = [[pi_nodes[p] for p in bus.positions]
                     for bus in match.in_buses]
            word = linear_combination(net, words, list(match.coefficients),
                                      match.constant, match.width)
            for k, po_pos in enumerate(match.out_bus.positions):
                po_nodes[po_pos] = word[k]
        for j, match in comparator_matches.items():
            if match.buried:
                continue  # handled through covers below
            po_nodes[j] = self._build_comparator(net, pi_nodes, match)
        for j, (cover, match, compressed) in covers.items():
            sop, complemented = cleanup_cover(cover)
            if match is not None and compressed is not None:
                delegate = self._build_comparator(net, pi_nodes, match)
                var_nodes = [pi_nodes[p] for p in
                             compressed.kept_positions] + [delegate]
            else:
                var_nodes = pi_nodes
            po_nodes[j] = build_factored_sop(net, sop, var_nodes,
                                             complement=complemented)
        for j, (rep, complemented) in (aliases or {}).items():
            if rep in po_nodes:
                node = po_nodes[rep]
                po_nodes[j] = net.add_not(node) if complemented else node
        for j, name in enumerate(oracle.po_names):
            if j not in po_nodes:
                # Should not happen; fail safe to constant 0.
                po_nodes[j] = net.add_const0()
            net.add_po(name, po_nodes[j])
        return net.cleaned()

    @staticmethod
    def _build_comparator(net: Netlist, pi_nodes: List[int],
                          match: ComparatorMatch) -> int:
        left = [pi_nodes[p] for p in match.left.positions]
        if match.right is not None:
            right = [pi_nodes[p] for p in match.right.positions]
            return comparator(net, match.predicate, left, right)
        assert match.constant is not None
        return comparator_const(net, match.predicate, left, match.constant)

    # -- reporting -----------------------------------------------------------------------

    def _reports(self, oracle: Oracle,
                 linear_matches: List[LinearMatch],
                 extended_matches: List,
                 comparator_matches: Dict[int, ComparatorMatch],
                 covers: Dict, supports: Dict[int, List[int]],
                 aliases: Optional[Dict[int, Tuple[int, bool]]] = None,
                 overrides: Optional[Dict[int, Tuple[str, str]]] = None
                 ) -> List[OutputReport]:
        aliases = aliases or {}
        overrides = overrides or {}
        reports: List[OutputReport] = []
        linear_by_pos: Dict[int, LinearMatch] = {}
        for match in linear_matches:
            for pos in match.out_bus.positions:
                linear_by_pos[pos] = match
        extended_by_pos: Dict[int, object] = {}
        for match in extended_matches:
            for pos in match.out_bus.positions:
                extended_by_pos[pos] = match
        for j, name in enumerate(oracle.po_names):
            if j in overrides:
                method, detail = overrides[j]
                cover = covers[j][0] if j in covers else None
                reports.append(OutputReport(
                    j, name, method, detail=detail,
                    support_size=len(supports.get(j, [])),
                    stats=cover.stats if cover is not None else None))
            elif j in aliases:
                rep, complemented = aliases[j]
                prefix = "!" if complemented else ""
                reports.append(OutputReport(
                    j, name, "shared",
                    detail=f"= {prefix}{oracle.po_names[rep]}"))
            elif j in linear_by_pos:
                reports.append(OutputReport(
                    j, name, "linear-template",
                    detail=linear_by_pos[j].describe()))
            elif j in extended_by_pos:
                reports.append(OutputReport(
                    j, name, "extended-template",
                    detail=extended_by_pos[j].describe()))
            elif j in comparator_matches and not comparator_matches[j].buried:
                reports.append(OutputReport(
                    j, name, "comparator-template",
                    detail=comparator_matches[j].describe()))
            elif j in covers:
                cover, match, _ = covers[j]
                if match is not None:
                    method = "comparator-compressed"
                    detail = match.describe()
                elif cover.stats.exhausted:
                    method = "exhaustive"
                    detail = f"|S'|={len(supports.get(j, []))}"
                else:
                    method = "fbdt"
                    detail = (f"nodes={cover.stats.nodes_expanded} "
                              f"forced={cover.stats.forced_leaves}")
                reports.append(OutputReport(
                    j, name, method, detail=detail,
                    support_size=len(supports.get(j, [])),
                    stats=cover.stats))
            else:
                reports.append(OutputReport(j, name, "constant"))
        return reports
