"""Configuration of the circuit-learning pipeline.

Defaults follow the paper's reported constants where given (``r = 7200``
for support identification, ``r = 60`` per tree node, exhaustive-enumeration
threshold 18) with the sampling volume scaled down by default because the
reference implementation is C++ on a contest machine and ours is a Python
prototype.  A setting is a field here only when a caller (the CLI, the
service, the chaos matrix, an example or a benchmark) sets it; every other
constant lives once, as the default of the component that uses it
(``VerifyPolicy``, ``SupervisorPolicy``, ``DeadlineManager``,
``SampleBank``, ...) or as a named constant at its point of use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class RobustnessConfig:
    """Knobs of the fault-tolerant execution layer (``repro.robustness``).

    The defaults keep a clean oracle's behaviour unchanged: no retry
    wrapper, no checkpointing, but per-output isolation on — an output
    that crashes or exhausts the budget degrades to its best partial (or
    constant-majority) cover instead of aborting the run.
    """

    max_retries: int = 0
    """Transparent retries per failed oracle query batch (0 disables the
    retry wrapper entirely)."""

    retry_base_delay: float = 0.05
    """Backoff before the first retry, seconds; doubles per attempt."""

    retry_max_delay: float = 2.0
    """Cap on a single backoff delay."""

    checkpoint_path: Optional[str] = None
    """Write a per-output checkpoint file here (None disables)."""

    resume: bool = False
    """Load ``checkpoint_path`` at startup and skip already-learned
    outputs."""

    # -- corruption auditing (repro.robustness.audit) ----------------------
    audit_rate: float = 0.0
    """Fraction of delivered oracle rows the
    :class:`~repro.robustness.audit.AuditingOracle` re-queries (0
    disables the audit wrapper).  Selection is a pure per-row hash, so
    audit counters are identical at any ``--jobs`` value."""

    # -- verify-and-repair (repro.robustness.verify) -----------------------
    verify: bool = True
    """Certify every learned output against fresh oracle rows after
    optimization and repair the ones that fail (the contest target is
    99.99%; a run that cannot certify tags the output honestly instead
    of shipping it silently wrong).  The stage's own settings are the
    defaults of :class:`~repro.robustness.verify.VerifyPolicy`."""

    # -- worker supervision (repro.robustness.supervisor) ------------------
    heartbeat_interval: float = 0.25
    """Seconds between worker heartbeats while a task runs."""

    heartbeat_timeout: float = 15.0
    """A busy worker silent this long is terminated and its task
    re-dispatched (wall grace and re-dispatch limits are the defaults
    of :class:`~repro.robustness.supervisor.SupervisorPolicy`)."""

    worker_fault_plan: Optional[dict] = None
    """Chaos/test injection: task index -> ``"crash"`` | ``"hang"``,
    applied to the task's first dispatch only."""

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if min(self.retry_base_delay, self.retry_max_delay) < 0:
            raise ValueError("retry delays must be >= 0")
        if self.resume and not self.checkpoint_path:
            raise ValueError("resume requires a checkpoint_path")
        if not 0.0 <= self.audit_rate <= 1.0:
            raise ValueError("audit_rate must be in [0, 1]")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be > 0")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError(
                "heartbeat_timeout must exceed heartbeat_interval")


@dataclass
class ObsConfig:
    """Knobs of the observability layer (``repro.obs``).

    Enabled by default: the span/counter overhead is a few hundred
    nanoseconds per instrumented site (``benchmarks/bench_obs.py``
    gates it below 5% of learn wall-clock), and a run without
    instrumentation cannot emit a trace, metrics dump or run report.
    """

    enabled: bool = True
    """Collect spans and metrics during :meth:`LogicRegressor.learn`,
    attach them to the :class:`LearnResult`, and give every parallel
    worker a child tracer/registry folded back deterministically."""

    profile: bool = False
    """Arm the cost-model profiler: deterministic kernel counters
    (packed words, popcounts, espresso iterations, scan words, ...)
    plus per-span CPU time.  Off by default — the counters sit inside
    the bit-kernel hot loops, and ``benchmarks/bench_obs.py`` gates the
    armed overhead below the same 5% budget."""

    profile_memory: bool = False
    """Additionally trace per-stage memory high-water marks with
    ``tracemalloc`` (requires ``profile=True`` to surface in the
    profile artifacts; watermarks are outside the byte-identity
    contract)."""

    def validate(self) -> None:
        if self.profile_memory and not self.profile:
            raise ValueError(
                "profile_memory requires profile=True")


@dataclass
class RegressorConfig:
    """All knobs of the five-step pipeline (Fig. 1)."""

    # -- step 1+2: preprocessing -------------------------------------------
    enable_preprocessing: bool = True
    """Master switch for name grouping + template matching (the paper's
    own ablation turns this off)."""

    template_samples: int = 192
    """Random samples used to accept/reject a template hypothesis."""

    enable_extended_templates: bool = True
    """Also try the extension families (MUX / bitwise / wiring) of
    Sec. VI's future-work direction when the Table I families fail."""

    try_reversed_buses: bool = True
    """Retry word-level templates with MSB-first bus orientation."""

    enable_output_sharing: bool = True
    """Detect identical / complemented outputs by sampled signature and
    learn each function only once (free size; extension to the paper's
    strictly independent per-output treatment)."""

    # -- step 3: support identification --------------------------------------
    r_support: int = 512
    """Paired random assignments per input for support identification
    (paper: 7200)."""

    sampling_biases: Tuple[float, ...] = (0.5, 0.15, 0.85)
    """Mix of P(bit=1) biases for random assignments; the uneven ratios
    implement the Sec. IV-C observation that skewed patterns reveal more
    of the support."""

    # -- step 4: FBDT construction ---------------------------------------------
    r_node: int = 60
    """Samples per tree node for picking the most significant input
    (paper: 60)."""

    leaf_samples: int = 96
    """Samples used for the constant-leaf test at each node."""

    exhaustive_threshold: int = 12
    """Supports up to this size are conquered by exhaustive enumeration
    (paper: 18; scaled for the Python prototype)."""

    subtree_exhaustive_threshold: int = 7
    """Trick 1 applied *inside* the tree: once a node's remaining
    support fits this budget, its whole subspace is tabulated exactly
    instead of splitting on (0 disables; an extension beyond the paper,
    which only applies exhaustion before tree construction)."""

    leaf_epsilon: float = 0.0
    """Early-stopping tolerance (trick 3): a node whose TruthRatio is
    within epsilon of 0 or 1 becomes a constant leaf."""

    onset_offset_selection: bool = True
    """Trick 2: realize whichever of the onset/offset cover is smaller."""

    levelized: bool = True
    """Explore the FBDT in levelized (BFS) order, per the paper, fusing
    each level's oracle traffic into a few calls; False gives depth-first
    order for the ablation (one node per pass)."""

    max_tree_nodes: int = 4096
    """Hard cap on expanded FBDT nodes per output."""

    kernel_backend: str = "auto"
    """Implementation of the packed bit-parallel logic kernels
    (``repro.logic.bitops``): ``"numpy"``, ``"numba"`` (JIT, needs the
    ``[perf]`` extra; silently falls back to numpy when absent), or
    ``"auto"`` (honours ``$REPRO_KERNEL_BACKEND``, else numpy)."""

    # -- query engine (repro.perf) -----------------------------------------
    jobs: int = 1
    """Worker processes for per-output learning.  1 keeps the paper's
    single-threaded contract; N > 1 learns independent outputs in
    supervised worker processes with per-worker oracle shards.  Output
    is deterministic (same seed => bit-identical circuit) regardless of
    worker count as long as neither wall-clock deadlines nor the query
    budget bind (see docs/PERFORMANCE.md)."""

    enable_sample_bank: bool = True
    """Keep every answered (pattern, full output row) pair in a bounded
    cross-output :class:`~repro.perf.bank.SampleBank` and drain it
    before spending new query budget."""

    # -- budgets -----------------------------------------------------------------
    time_limit: float = 120.0
    """Wall-clock budget for the whole pipeline, seconds (contest: 2700).
    Its split between the steps is
    :class:`~repro.robustness.deadline.DeadlineManager`'s; a query budget
    lives on the oracle (``NetlistOracle(query_budget=...)``)."""

    # -- step 5: optimization -------------------------------------------------------
    enable_optimization: bool = True
    optimize_iterations: int = 4

    # -- execution layer ----------------------------------------------------------
    robustness: RobustnessConfig = field(default_factory=RobustnessConfig)

    # -- observability (repro.obs) -----------------------------------------------
    observability: ObsConfig = field(default_factory=ObsConfig)

    # -- misc ---------------------------------------------------------------------
    seed: int = 2019

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.r_support <= 0 or self.r_node <= 0:
            raise ValueError("sampling volumes must be positive")
        if not 0.0 <= self.leaf_epsilon < 0.5:
            raise ValueError("leaf_epsilon must be in [0, 0.5)")
        if not self.sampling_biases:
            raise ValueError("need at least one sampling bias")
        for b in self.sampling_biases:
            if not 0.0 < b < 1.0:
                raise ValueError("biases must be strictly inside (0, 1)")
        if self.exhaustive_threshold > 20:
            raise ValueError(
                "exhaustive threshold above 20 is intractable here")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.kernel_backend not in ("auto", "numpy", "numba"):
            raise ValueError(
                "kernel_backend must be 'auto', 'numpy' or 'numba', got "
                f"{self.kernel_backend!r}")
        self.robustness.validate()
        self.observability.validate()


def fast_config(**overrides) -> RegressorConfig:
    """A small-budget configuration for tests and quick demos."""
    base = dict(r_support=96, r_node=24, leaf_samples=48,
                template_samples=64, exhaustive_threshold=10,
                time_limit=20.0, optimize_iterations=2,
                max_tree_nodes=512)
    base.update(overrides)
    return RegressorConfig(**base)
