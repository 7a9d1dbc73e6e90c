"""The per-run manifest: ``run_report.json`` builder and validator.

One JSON artifact answers "what did this run cost, stage by stage" —
config, seed, per-stage wall/billed-rows, per-output method and rows,
degradation tags, bank traffic.  The schema ships both as the
:data:`REPORT_SCHEMA` constant and as the checked-in copy at
``docs/run_report.schema.json`` (a test keeps them identical), and
:func:`validate` is a minimal, zero-dependency JSON-schema subset
validator (type / properties / required / items / enum), so CI can gate
on report shape without installing ``jsonschema``.

Usage::

    python -m repro.obs.report run_report.json \
        --schema docs/run_report.schema.json
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional

_NUM = ["number", "integer"]

_STAGE_ENTRY = {
    "type": "object",
    "required": ["name", "wall_seconds", "billed_rows", "billed_calls"],
    "properties": {
        "name": {"type": "string"},
        "wall_seconds": {"type": _NUM},
        "billed_rows": {"type": "integer"},
        "billed_calls": {"type": "integer"},
    },
}

_OUTPUT_ENTRY = {
    "type": "object",
    "required": ["index", "name", "method", "support_size",
                 "billed_rows", "degraded"],
    "properties": {
        "index": {"type": "integer"},
        "name": {"type": "string"},
        "method": {"type": "string"},
        "detail": {"type": "string"},
        "support_size": {"type": "integer"},
        "billed_rows": {"type": "integer"},
        "degraded": {"type": "boolean"},
        "minimize_wall_s": {"type": _NUM},
        "minimize_cubes_in": {"type": "integer"},
        "minimize_cubes_out": {"type": "integer"},
    },
}

_PROFILE_SELF_TIME_ENTRY = {
    "type": "object",
    "required": ["stage", "output", "name", "spans", "wall_self_s"],
    "properties": {
        "stage": {"type": "string"},
        "output": {"type": "integer"},
        "name": {"type": "string"},
        "spans": {"type": "integer"},
        "wall_self_s": {"type": _NUM},
        "cpu_self_s": {"type": ["number", "integer", "null"]},
    },
}

_PROFILE_BLOCK = {
    "type": ["object", "null"],
    "required": ["counters", "self_time", "memory"],
    "properties": {
        "counters": {"type": "object"},
        "self_time": {"type": "array",
                      "items": _PROFILE_SELF_TIME_ENTRY},
        "memory": {"type": ["object", "null"]},
    },
}

_VERIFY_OUTPUT_ENTRY = {
    "type": "object",
    "required": ["output", "index", "status", "sampled", "mismatches",
                 "lower_bound"],
    "properties": {
        "output": {"type": "string"},
        "index": {"type": "integer"},
        "status": {"type": "string",
                   "enum": ["verified", "repaired", "inconclusive",
                            "verify-failed", "skipped"]},
        "sampled": {"type": "integer"},
        "mismatches": {"type": "integer"},
        "lower_bound": {"type": _NUM},
        "accuracy": {"type": _NUM},
        "exhaustive": {"type": "boolean"},
        "repair_rounds": {"type": "integer"},
        "patches_applied": {"type": "integer"},
        "relearned": {"type": "boolean"},
    },
}

_CACHE_COUNTERS = {
    "type": ["object", "null"],
    "required": ["hits", "misses"],
    "properties": {
        "hits": {"type": "integer"},
        "misses": {"type": "integer"},
        "entries": {"type": "integer"},
        "evictions": {"type": "integer"},
        "invalidated": {"type": "integer"},
        "retries_performed": {"type": "integer"},
        "faults_seen": {"type": "integer"},
        "rows_recorded": {"type": "integer"},
        "rows_evicted": {"type": "integer"},
        "prefilled_rows": {"type": "integer"},
        "exported_rows": {"type": "integer"},
        "rows_served": {"type": "integer"},
        "rows_stored": {"type": "integer"},
        "stores": {"type": "integer"},
        "fingerprint": {"type": "string"},
    },
}

_STORAGE_BLOCK = {
    "type": ["object", "null"],
    "required": ["durability", "brownout", "counters"],
    "properties": {
        "durability": {"type": "string", "enum": ["strict", "lax"]},
        "brownout": {"type": "boolean"},
        "counters": {
            "type": "object",
            "required": ["ops", "faults", "drops"],
            "properties": {
                "ops": {"type": "object"},
                "faults": {"type": "object"},
                "drops": {"type": "object"},
            },
        },
    },
}

REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["schema_version", "run", "engine", "totals", "stages",
                 "outputs", "degradations", "bank", "caches",
                 "oracle_layers", "methods", "verification", "supervisor",
                 "job", "fleet", "profile", "storage"],
    "properties": {
        "schema_version": {"type": "integer", "enum": [8]},
        "profile": _PROFILE_BLOCK,
        "storage": _STORAGE_BLOCK,
        "engine": {
            "type": "object",
            "required": ["kernel_backend", "mode"],
            "properties": {
                "kernel_backend": {"type": "string",
                                   "enum": ["numpy", "numba"]},
                "mode": {"type": "string"},
            },
        },
        "run": {
            "type": "object",
            "required": ["seed", "jobs", "time_limit", "num_pis",
                         "num_pos", "elapsed_seconds"],
            "properties": {
                "seed": {"type": "integer"},
                "jobs": {"type": "integer"},
                "time_limit": {"type": _NUM},
                "num_pis": {"type": "integer"},
                "num_pos": {"type": "integer"},
                "elapsed_seconds": {"type": _NUM},
                "sample_bank": {"type": "boolean"},
                "max_retries": {"type": "integer"},
                "engine_mode": {"type": "string"},
            },
        },
        "totals": {
            "type": "object",
            "required": ["billed_rows", "billed_calls", "gate_count",
                         "outputs", "degraded_outputs"],
            "properties": {
                "billed_rows": {"type": "integer"},
                "billed_calls": {"type": "integer"},
                "gate_count": {"type": "integer"},
                "accuracy": {"type": ["number", "null"]},
                "outputs": {"type": "integer"},
                "degraded_outputs": {"type": "integer"},
            },
        },
        "stages": {"type": "array", "items": _STAGE_ENTRY},
        "outputs": {"type": "array", "items": _OUTPUT_ENTRY},
        "degradations": {"type": "array", "items": {"type": "string"}},
        "bank": {
            "type": ["object", "null"],
            "properties": {
                "hits": {"type": "integer"},
                "misses": {"type": "integer"},
                "rows_recorded": {"type": "integer"},
                "rows_evicted": {"type": "integer"},
                "take_calls": {"type": "integer"},
            },
        },
        "caches": {
            "type": "object",
            "required": ["sample_bank", "retry_cache", "cross_job"],
            "properties": {
                "sample_bank": _CACHE_COUNTERS,
                "retry_cache": _CACHE_COUNTERS,
                "cross_job": _CACHE_COUNTERS,
            },
        },
        "job": {
            "type": ["object", "null"],
            "required": ["id", "tenant", "tier", "priority", "attempt"],
            "properties": {
                "id": {"type": "string"},
                "tenant": {"type": "string"},
                "tier": {"type": "string"},
                "priority": {"type": "integer"},
                "attempt": {"type": "integer"},
            },
        },
        "fleet": {
            "type": ["object", "null"],
            "required": ["job_id", "tier", "attempt",
                         "queue_latency_seconds"],
            "properties": {
                "job_id": {"type": "string"},
                "tier": {"type": "string"},
                "attempt": {"type": "integer"},
                "queue_latency_seconds": {"type": _NUM},
            },
        },
        "oracle_layers": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["layer", "rows_served"],
                "properties": {
                    "layer": {"type": "string"},
                    "rows_served": {"type": "integer"},
                },
            },
        },
        "methods": {"type": "object"},
        "verification": {
            "type": ["object", "null"],
            "required": ["target", "confidence", "rows_spent",
                         "statuses", "all_certified", "outputs"],
            "properties": {
                "target": {"type": "number"},
                "confidence": {"type": "number"},
                "rows_spent": {"type": "integer"},
                "statuses": {"type": "object"},
                "all_certified": {"type": "boolean"},
                "outputs": {"type": "array",
                            "items": _VERIFY_OUTPUT_ENTRY},
            },
        },
        "supervisor": {
            "type": ["object", "null"],
            "properties": {
                "workers_spawned": {"type": "integer"},
                "workers_crashed": {"type": "integer"},
                "workers_hung": {"type": "integer"},
                "wall_timeouts": {"type": "integer"},
                "redispatches": {"type": "integer"},
                "quarantined": {"type": "integer"},
            },
        },
    },
}


# -- minimal schema validation ---------------------------------------------------

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(instance: Any, schema: Dict[str, Any],
             path: str = "$") -> List[str]:
    """Validate ``instance`` against a JSON-schema subset.

    Supports ``type`` (single or list), ``properties``, ``required``,
    ``items`` and ``enum`` — the constructs :data:`REPORT_SCHEMA` uses.
    Returns a list of human-readable errors (empty = valid).
    """
    errors: List[str] = []
    types = schema.get("type")
    if types is not None:
        allowed = types if isinstance(types, list) else [types]
        if not any(_TYPE_CHECKS[t](instance) for t in allowed):
            errors.append(
                f"{path}: expected {' or '.join(allowed)}, got "
                f"{type(instance).__name__}")
            return errors
    enum = schema.get("enum")
    if enum is not None and instance not in enum:
        errors.append(f"{path}: {instance!r} not in {enum}")
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                errors.extend(validate(instance[key], sub,
                                       f"{path}.{key}"))
    if isinstance(instance, list):
        items = schema.get("items")
        if items is not None:
            for i, entry in enumerate(instance):
                errors.extend(validate(entry, items, f"{path}[{i}]"))
    return errors


# -- report assembly -------------------------------------------------------------


def _stage_walls(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-stage wall seconds from the *parent* run's stage spans.

    Only stage spans directly under the root ``run`` span count —
    adopted worker spans re-describe time already covered by the
    parent's ``learn`` span and would double-count wall-clock.
    """
    root_ids = {rec["id"] for rec in records
                if rec["type"] == "span" and rec["name"] == "run"
                and rec.get("parent") is None}
    walls: Dict[str, float] = {}
    order: List[str] = []
    for rec in records:
        if rec["type"] != "span" \
                or rec.get("attrs", {}).get("kind") != "stage" \
                or rec.get("parent") not in root_ids:
            continue
        name = rec["name"]
        if name not in walls:
            walls[name] = 0.0
            order.append(name)
        walls[name] += rec["dur"]
    return [{"name": name, "wall_seconds": round(walls[name], 6)}
            for name in order]


_DEGRADED_METHODS = ("degraded", "budget-exhausted")


def build_run_report(result, config, *,
                     accuracy: Optional[float] = None,
                     job: Optional[Dict[str, Any]] = None,
                     cross_job: Optional[Dict[str, Any]] = None,
                     fleet: Optional[Dict[str, Any]] = None,
                     storage: Optional[Dict[str, Any]] = None
                     ) -> Dict[str, Any]:
    """Assemble the run manifest from a finished :class:`LearnResult`.

    ``result`` must carry instrumentation (``config.observability``
    enabled); ``accuracy`` is optional because it is measured by the
    caller against held-out patterns, outside the learn budget.

    ``job`` (schema v3+) is the service's per-job identity —
    ``{id, tenant, tier, priority, attempt}`` — and ``cross_job`` the
    cross-job cache traffic for this run; both stay ``None`` for plain
    ``repro learn`` runs.  ``fleet`` (schema v5+) is the service-side
    scheduling context — ``{job_id, tier, attempt,
    queue_latency_seconds}`` — required whenever the run executed under
    the job scheduler, ``None`` otherwise.  ``storage`` (schema v7+) is
    the durability context — ``{durability, brownout, counters}`` from
    the hardened storage layer — populated by the service runner and
    ``repro learn``, ``None`` for callers without one.
    """
    instr = result.instrumentation
    if instr is None:
        raise ValueError(
            "result has no instrumentation; enable "
            "config.observability to build a run report")
    billed = instr.metrics.counter("oracle.rows_billed")
    calls = instr.metrics.counter("oracle.calls_billed")
    served = instr.metrics.counter("oracle.rows_served")

    stages = _stage_walls(instr.tracer.to_records())
    rows_by_stage = billed.by("stage")
    calls_by_stage = calls.by("stage")
    for entry in stages:
        entry["billed_rows"] = int(rows_by_stage.get(entry["name"], 0))
        entry["billed_calls"] = int(calls_by_stage.get(entry["name"], 0))
    # Traffic outside any stage scope (there should be none) still
    # shows up, so the stage table always sums to the billed total.
    for name, rows in sorted(rows_by_stage.items(),
                             key=lambda kv: str(kv[0])):
        if not any(s["name"] == name for s in stages):
            stages.append({"name": str(name), "wall_seconds": 0.0,
                           "billed_rows": int(rows),
                           "billed_calls": int(
                               calls_by_stage.get(name, 0))})

    rows_by_output = billed.by("output")
    outputs = []
    for rep in result.reports:
        entry = {
            "index": rep.po_index,
            "name": rep.po_name,
            "method": rep.method,
            "detail": rep.detail,
            "support_size": rep.support_size,
            "billed_rows": int(rows_by_output.get(rep.po_index, 0)),
            "degraded": rep.method in _DEGRADED_METHODS,
        }
        stats = getattr(rep, "stats", None)
        if stats is not None:
            # The minimizer hotspot, per output (ROADMAP item 2): wall
            # seconds in two-level minimization and the espresso-lite
            # cover sizes before/after cleanup.
            entry["minimize_wall_s"] = round(stats.minimize_wall_s, 6)
            entry["minimize_cubes_in"] = stats.minimize_cubes_in
            entry["minimize_cubes_out"] = stats.minimize_cubes_out
        outputs.append(entry)

    bank = None
    if result.bank_stats is not None:
        bs = result.bank_stats
        bank = {"hits": bs.hits, "misses": bs.misses,
                "rows_recorded": bs.rows_recorded,
                "rows_evicted": bs.rows_evicted,
                "take_calls": bs.take_calls}

    layers = [{"layer": str(layer), "rows_served": int(rows)}
              for layer, rows in sorted(served.by("layer").items(),
                                        key=lambda kv: str(kv[0]))]

    verification = getattr(result, "verification", None)

    sample_bank_cache = None
    if result.bank_stats is not None:
        bs = result.bank_stats
        sample_bank_cache = {
            "hits": bs.hits, "misses": bs.misses,
            "rows_recorded": bs.rows_recorded,
            "rows_evicted": bs.rows_evicted,
            "invalidated": bs.rows_invalidated,
            "prefilled_rows": int(getattr(result, "bank_prefilled", 0)),
        }
    retry_cache = None
    retry_stats = getattr(result, "retry_stats", None)
    if retry_stats is not None:
        retry_cache = {key: int(value)
                       for key, value in retry_stats.items()}
    cross_job_cache = None
    if cross_job is not None:
        cross_job_cache = dict(cross_job)

    job_section = None
    if job is not None:
        job_section = {
            "id": str(job.get("id", "")),
            "tenant": str(job.get("tenant", "anonymous")),
            "tier": str(job.get("tier", "standard")),
            "priority": int(job.get("priority", 0)),
            "attempt": int(job.get("attempt", 0)),
        }

    fleet_section = None
    if fleet is not None:
        fleet_section = {
            "job_id": str(fleet.get("job_id", "")),
            "tier": str(fleet.get("tier", "standard")),
            "attempt": int(fleet.get("attempt", 0)),
            "queue_latency_seconds": round(float(
                fleet.get("queue_latency_seconds", 0.0)), 6),
        }

    storage_section = None
    if storage is not None:
        counters = storage.get("counters") or {}
        storage_section = {
            "durability": str(storage.get("durability", "strict")),
            "brownout": bool(storage.get("brownout", False)),
            "counters": {
                "ops": dict(counters.get("ops", {})),
                "faults": {w: dict(per) for w, per in
                           (counters.get("faults", {})).items()},
                "drops": dict(counters.get("drops", {})),
            },
        }

    engine = dict(getattr(result, "engine", None) or {})
    engine.setdefault(
        "kernel_backend",
        config.kernel_backend if config.kernel_backend != "auto"
        else "numpy")
    engine.setdefault("mode", getattr(result, "engine_mode", "sequential"))

    profile_section = None
    if getattr(instr, "profile", False):
        from repro.obs.profile import Profiler

        profile_section = Profiler.from_instrumentation(instr).to_json()

    return {
        "schema_version": 8,
        "run": {
            "seed": config.seed,
            "jobs": config.jobs,
            "time_limit": config.time_limit,
            "num_pis": result.netlist.num_pis,
            "num_pos": result.netlist.num_pos,
            "elapsed_seconds": round(result.elapsed, 6),
            "sample_bank": config.enable_sample_bank,
            "max_retries": config.robustness.max_retries,
            "engine_mode": getattr(result, "engine_mode", "sequential"),
        },
        "engine": engine,
        "totals": {
            "billed_rows": int(billed.total()),
            "billed_calls": int(calls.total()),
            "gate_count": result.gate_count,
            "accuracy": accuracy,
            "outputs": len(result.reports),
            "degraded_outputs": sum(1 for o in outputs if o["degraded"]),
        },
        "stages": stages,
        "outputs": outputs,
        "degradations": result.degradations,
        "bank": bank,
        "caches": {
            "sample_bank": sample_bank_cache,
            "retry_cache": retry_cache,
            "cross_job": cross_job_cache,
        },
        "job": job_section,
        "fleet": fleet_section,
        "profile": profile_section,
        "storage": storage_section,
        "oracle_layers": layers,
        "methods": result.methods_used(),
        "verification": verification.to_json()
        if verification is not None else None,
        "supervisor": getattr(result, "supervisor", None),
    }


def write_run_report(report: Dict[str, Any], path: str) -> None:
    errors = validate(report, REPORT_SCHEMA)
    if errors:
        raise ValueError("run report failed schema validation: "
                         + "; ".join(errors[:5]))
    from repro.robustness.storage import get_storage
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    get_storage().atomic_write_text(path, text, writer="report")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Validate a run_report.json against the schema.")
    parser.add_argument("report", help="path to run_report.json")
    parser.add_argument("--schema", default=None,
                        help="schema JSON path (default: built-in)")
    args = parser.parse_args(argv)
    with open(args.report) as handle:
        report = json.load(handle)
    schema = REPORT_SCHEMA
    if args.schema:
        with open(args.schema) as handle:
            schema = json.load(handle)
    errors = validate(report, schema)
    if errors:
        for err in errors:
            print(f"INVALID {err}")
        return 1
    print(f"OK {args.report}: schema_version "
          f"{report.get('schema_version')}, "
          f"{report['totals']['billed_rows']} billed rows across "
          f"{len(report['stages'])} stages")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
