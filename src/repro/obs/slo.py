"""Declarative SLO evaluation over fleet status snapshots.

An :class:`SloPolicy` is a list of :class:`SloRule`\\ s, each naming a
signal extracted from a fleet status snapshot (see
:mod:`repro.obs.fleet`), a comparison, and two thresholds: crossing
``degraded`` flips the rule amber, crossing ``breached`` flips it red.
The :class:`SloEvaluator` is stateful — it re-evaluates the policy on
every snapshot and reports only *transitions*, so the scheduler can
append one structured record to its event log when health actually
changes instead of spamming a record per tick.

Signals are tier-scoped where that makes sense (queue latency, budget
burn) and fleet-wide otherwise (verify failures, retry rate).  A rule
whose signal has no data yet (e.g. p95 queue latency before any job
ran in that tier) evaluates to ``healthy`` — absence of traffic is not
an incident.

Policies load from JSON (``repro serve --slo-config policy.json``);
the default policy covers the four scheduling signals the roadmap
cares about plus ``storage_pressure`` (disk headroom feeding the
brownout in :class:`repro.service.telemetry.FleetTelemetry`), all with
deliberately loose thresholds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

HEALTHY = "healthy"
DEGRADED = "degraded"
BREACHED = "breached"

_SEVERITY = {HEALTHY: 0, DEGRADED: 1, BREACHED: 2}

KINDS = ("queue_latency_p95", "verify_failure_rate", "retry_rate",
         "budget_burn", "storage_pressure")
"""Supported rule kinds, each mapping to a snapshot signal."""


@dataclass(frozen=True)
class SloRule:
    """One monitored signal with degraded/breached thresholds.

    ``tier`` scopes tier-aware kinds (``queue_latency_p95``,
    ``budget_burn``) to one scheduling tier; ``None`` means fleet-wide.
    Thresholds are upper bounds: signal > ``degraded`` is amber,
    signal > ``breached`` is red, and ``breached`` must not be below
    ``degraded``.
    """

    name: str
    kind: str
    degraded: float
    breached: float
    tier: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r}; "
                             f"expected one of {KINDS}")
        if self.breached < self.degraded:
            raise ValueError(
                f"rule {self.name!r}: breached threshold "
                f"{self.breached} below degraded {self.degraded}")

    def signal(self, snapshot: Dict[str, Any]) -> Optional[float]:
        """Extract this rule's signal from a fleet snapshot.

        Returns ``None`` when the snapshot has no data for the signal
        yet (treated as healthy by the evaluator).
        """
        jobs = snapshot.get("jobs", {})
        if self.kind == "queue_latency_p95":
            tiers = snapshot.get("tiers", {})
            scoped = [tiers[self.tier]] if self.tier in tiers \
                else (list(tiers.values()) if self.tier is None else [])
            best: Optional[float] = None
            for entry in scoped:
                p95 = (entry.get("queue_latency") or {}).get("p95")
                if p95 is not None and (best is None or p95 > best):
                    best = p95
            return best
        if self.kind == "verify_failure_rate":
            checked = snapshot.get("verification", {}).get("checked", 0)
            failed = snapshot.get("verification", {}).get("failed", 0)
            if not checked:
                return None
            return failed / checked
        if self.kind == "retry_rate":
            dispatched = jobs.get("dispatched", 0)
            retries = jobs.get("retries", 0)
            if not dispatched:
                return None
            return retries / dispatched
        if self.kind == "budget_burn":
            tiers = snapshot.get("tiers", {})
            scoped = [tiers[self.tier]] if self.tier in tiers \
                else (list(tiers.values()) if self.tier is None else [])
            best = None
            for entry in scoped:
                burn = entry.get("budget_burn")
                if burn is not None and (best is None or burn > best):
                    best = burn
            return best
        if self.kind == "storage_pressure":
            # Used-space fraction of the spool's filesystem (elevated
            # to >= 0.99 when the storage layer has seen ENOSPC); a
            # snapshot without a storage block simply has no data yet.
            pressure = (snapshot.get("storage") or {}).get("pressure")
            return None if pressure is None else float(pressure)
        raise AssertionError(self.kind)  # pragma: no cover

    def evaluate(self, snapshot: Dict[str, Any]) -> Dict[str, Any]:
        """``{rule, kind, tier, status, signal, ...thresholds}``."""
        value = self.signal(snapshot)
        if value is None:
            status = HEALTHY
        elif value > self.breached:
            status = BREACHED
        elif value > self.degraded:
            status = DEGRADED
        else:
            status = HEALTHY
        return {"rule": self.name, "kind": self.kind,
                "tier": self.tier, "status": status,
                "signal": None if value is None else round(value, 9),
                "degraded_above": self.degraded,
                "breached_above": self.breached}


@dataclass
class SloPolicy:
    """A named bundle of rules evaluated together."""

    name: str = "default"
    rules: List[SloRule] = field(default_factory=list)

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "SloPolicy":
        rules = [SloRule(name=r["name"], kind=r["kind"],
                         degraded=float(r["degraded"]),
                         breached=float(r["breached"]),
                         tier=r.get("tier"))
                 for r in payload.get("rules", [])]
        return SloPolicy(name=payload.get("name", "default"),
                         rules=rules)

    @staticmethod
    def load(path: str) -> "SloPolicy":
        with open(path) as handle:
            return SloPolicy.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "rules": [{"name": r.name, "kind": r.kind,
                           "degraded": r.degraded,
                           "breached": r.breached, "tier": r.tier}
                          for r in self.rules]}


def default_policy() -> SloPolicy:
    """Loose service-wide defaults; override via ``--slo-config``."""
    return SloPolicy(name="default", rules=[
        SloRule("queue-p95", "queue_latency_p95",
                degraded=30.0, breached=120.0),
        SloRule("verify-failures", "verify_failure_rate",
                degraded=0.01, breached=0.05),
        SloRule("retry-rate", "retry_rate",
                degraded=0.25, breached=0.5),
        SloRule("budget-burn", "budget_burn",
                degraded=0.8, breached=1.0),
        SloRule("storage", "storage_pressure",
                degraded=0.90, breached=0.98),
    ])


class SloEvaluator:
    """Stateful policy evaluation reporting status *transitions*."""

    def __init__(self, policy: Optional[SloPolicy] = None):
        self.policy = policy if policy is not None else default_policy()
        self._last: Dict[str, str] = {}

    @property
    def statuses(self) -> Dict[str, str]:
        """Last known status per rule name."""
        return dict(self._last)

    def overall(self) -> str:
        """Worst current status across all rules."""
        worst = HEALTHY
        for status in self._last.values():
            if _SEVERITY[status] > _SEVERITY[worst]:
                worst = status
        return worst

    def evaluate(self, snapshot: Dict[str, Any]
                 ) -> List[Dict[str, Any]]:
        """Evaluate every rule; return full per-rule records."""
        return [rule.evaluate(snapshot) for rule in self.policy.rules]

    def transitions(self, snapshot: Dict[str, Any]
                    ) -> List[Dict[str, Any]]:
        """Records for rules whose status changed since the last call.

        The very first evaluation reports only rules that are *not*
        healthy, so a freshly started fleet stays quiet.
        """
        out: List[Dict[str, Any]] = []
        for record in self.evaluate(snapshot):
            name = record["rule"]
            previous = self._last.get(name)
            self._last[name] = record["status"]
            if previous is None:
                if record["status"] != HEALTHY:
                    record = dict(record, previous=HEALTHY)
                    out.append(record)
                continue
            if record["status"] != previous:
                record = dict(record, previous=previous)
                out.append(record)
        return out
