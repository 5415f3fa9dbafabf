"""Rendering of analysis results as text or canonical JSON envelopes."""

from __future__ import annotations

import os

from reqlattice.changes import ImpactReport, reuse_hints
from reqlattice.corpus_io import FORMAT_VERSION, canonical_json
from reqlattice.optimize import GlobalView, OptimizedView
from reqlattice.partition import Finding, Partition, ScenarioOption
from reqlattice.relations import ConflictRecord
from reqlattice.topsis import Ranking


def use_color(stream) -> bool:
    """Whether text written to ``stream`` gets coloured headings."""
    env = os.environ.get("REQLATTICE_COLOR")
    if env in ("0", "1"):
        return env == "1"
    return hasattr(stream, "isatty") and stream.isatty()


def heading(text: str, color: bool) -> str:
    return f"\x1b[1m{text}\x1b[0m" if color else text


# ---------------------------------------------------------------------------
# JSON bodies

def finding_body(f: Finding) -> dict:
    return {"code": f.code, "severity": f.severity, "id": f.item_id, "message": f.message}


def partition_body(parts: dict[str, Partition],
                   elaboration: list[Finding],
                   condition: list[Finding]) -> dict:
    per_kind = {}
    for kind, part in sorted(parts.items()):
        per_kind[kind] = {
            "role": part.role,
            "general": {k: sorted(v) for k, v in sorted(part.general_concepts.items())},
            "specific": {jid: sorted(ids) for jid, ids in sorted(part.specific.items())},
        }
    return {
        "perKind": per_kind,
        "elaborationFindings": [finding_body(f) for f in elaboration],
        "contradictionCondition": [finding_body(f) for f in condition],
    }


_SCENARIO_NOTES = {
    ScenarioOption.DISJOINT:
        "no jurisdiction shares any item; rare in practice, every per-jurisdiction set needs its own review",
    ScenarioOption.IDENTICAL_GENERAL:
        "all jurisdictions share identical items; one shared system can serve every jurisdiction",
    ScenarioOption.PARTIAL_OVERLAP:
        "a shared core plus per-jurisdiction deltas; the usual situation, well served by splitting shared and specific components",
}


def scenario_body(options: dict[str, ScenarioOption | None]) -> dict:
    return {aspect: None if option is None else {"option": option.value, "note": _SCENARIO_NOTES[option]}
            for aspect, option in sorted(options.items())}


def _view_body(view: OptimizedView, emit: str) -> dict:
    out: dict = {"scope": view.scope}
    if emit in ("star", "both"):
        out["strongest"] = sorted(view.strongest)
        out["removed"] = dict(sorted(view.removed.items()))
    if emit in ("min", "both"):
        out["baseline"] = sorted(view.baseline)
    return out


def optimize_body(gv: GlobalView, emit: str = "both") -> dict:
    return {
        "perJurisdiction": {
            jid: {kind: _view_body(v, emit) for kind, v in sorted(kinds.items())}
            for jid, kinds in sorted(gv.per_jurisdiction.items())
        },
        "globalPerKind": {kind: _view_body(v, emit) for kind, v in sorted(gv.global_per_kind.items())},
        "global": _view_body(gv.global_all, emit),
        "conflicts": conflicts_body(gv.conflicts),
    }


def conflicts_body(records: list[ConflictRecord]) -> list[dict]:
    return [{"pair": list(r.pair), "origin": r.origin} for r in records]


def impact_body(report: ImpactReport, before: str, after: str) -> dict:
    return {
        "label": report.label,
        "before": before,
        "after": after,
        "ops": [
            {
                "op": rec.op,
                "target": rec.target,
                "case": rec.case_code,
                "migrations": [{"id": m.item_id, "from": m.from_set, "to": m.to_set} for m in rec.migrations],
                "affected": sorted(rec.affected),
                "components": [{"id": cid, "status": status} for cid, status in rec.component_impact],
            }
            for rec in report.per_op
        ],
        "reuseHints": [{"component": h.component_id, "owner": h.owner_jurisdiction, "for": h.for_jurisdiction,
                        "via": h.via_requirement} for h in reuse_hints(report)],
    }


def hierarchy_body(findings: list[Finding], effective: dict[str, list[str]]) -> dict:
    return {
        "findings": [{"code": f.code, "jurisdiction": f.item_id, "message": f.message} for f in findings],
        "effectiveRequirements": {jid: ids for jid, ids in sorted(effective.items())},
    }


def ranking_body(ranking: Ranking) -> dict:
    return {
        "ranking": [{"alternative": aid, "closeness": c} for aid, c in ranking.entries],
        "droppedCriteria": list(ranking.dropped_criteria),
    }


def envelope_json(report_type: str, body) -> str:
    return canonical_json({"tool": "reqlattice", "formatVersion": FORMAT_VERSION, "reportType": report_type,
                           "body": body})


# ---------------------------------------------------------------------------
# text renderings: each prints its report's JSON body, in the body's order

def _finding_lines(findings: list[dict]) -> list[str]:
    return [f"  [{f['severity']}] {f['code']} {f['id']}: {f['message']}" for f in findings]


def validate_text(body: dict, color: bool = False) -> str:
    return "\n".join(["corpus valid", *_finding_lines(body["warnings"])]) + "\n"


def partition_text(body: dict, color: bool = False) -> str:
    lines = []
    for kind, part in body["perKind"].items():
        lines.append(heading(f"{part['role']} / {kind}", color))
        if part["general"]:
            lines.append("  general concepts:")
            lines += [f"    {key}: {', '.join(ids)}" for key, ids in part["general"].items()]
        else:
            lines.append("  general concepts: (none)")
        lines += [f"  specific to {jid}: {', '.join(ids) or '(none)'}" for jid, ids in part["specific"].items()]
    if body["elaborationFindings"]:
        lines.append(heading("elaboration findings", color))
        lines += _finding_lines(body["elaborationFindings"])
    if body["contradictionCondition"]:
        lines.append(heading("cross-jurisdiction contradiction condition", color))
        lines += _finding_lines(body["contradictionCondition"])
    return "\n".join(lines) + "\n"


def scenario_text(body: dict, color: bool = False) -> str:
    return "\n".join(f"{aspect}: no items" if cls is None else f"{aspect}: {cls['option']} ({cls['note']})"
                     for aspect, cls in body.items()) + "\n"


def _view_lines(label: str, view: dict) -> list[str]:
    lines = [f"  {label}:"]
    if "strongest" in view:
        lines.append(f"    strongest: {', '.join(view['strongest']) or '(empty)'}")
        lines += [f"    removed {removed} (refined by {witness})" for removed, witness in view["removed"].items()]
    if "baseline" in view:
        lines.append(f"    baseline:  {', '.join(view['baseline']) or '(empty)'}")
    return lines


def optimize_text(body: dict, color: bool = False) -> str:
    lines = [heading("global optimized view", color), *_view_lines("all requirements", body["global"])]
    for kind, view in body["globalPerKind"].items():
        lines += _view_lines(f"{kind} (global)", view)
    for jid, kinds in body["perJurisdiction"].items():
        lines.append(heading(f"jurisdiction {jid}", color))
        for kind, view in kinds.items():
            lines += _view_lines(kind, view)
    lines.append(heading("conflicts", color))
    return "\n".join(lines) + "\n" + conflicts_text(body["conflicts"])


def conflicts_text(body: list[dict], color: bool = False) -> str:
    if not body:
        return "no conflicts\n"
    return "".join(f"  {a} <-> {b} ({r['origin']})\n" for r in body for a, b in [r["pair"]])


def impact_text(body: dict, color: bool = False) -> str:
    lines = [heading(f"change set: {body['label']}", color)]
    for rec in body["ops"]:
        lines.append(f"  {rec['op']} {rec['target']}: case {rec['case']}, "
                     f"affected {', '.join(rec['affected']) or '(none)'}")
        lines += [f"    {m['id']}: {m['from']} -> {m['to']}" for m in rec["migrations"]]
        lines += [f"    component {c['id']}: {c['status']}" for c in rec["components"]]
    if body["reuseHints"]:
        lines.append(heading("reuse hints", color))
        lines += [f"  {h['component']} (of {h['owner']}) reusable for {h['for']} via {h['via']}" for h in body["reuseHints"]]
    return "\n".join(lines) + "\n"


def hierarchy_text(body: dict, color: bool = False) -> str:
    lines = []
    if body["findings"]:
        lines.append(heading("hierarchy findings", color))
        lines += [f"  {f['code']} {f['jurisdiction']}: {f['message']}" for f in body["findings"]]
    else:
        lines.append("hierarchy well-formed")
    lines.append(heading("effective requirements", color))
    lines += [f"  {jid}: {', '.join(ids) or '(none)'}" for jid, ids in body["effectiveRequirements"].items()]
    return "\n".join(lines) + "\n"


def ranking_text(body: dict, color: bool = False) -> str:
    lines = [heading("ranking (closeness to ideal)", color)]
    lines += [f"  {pos}. {e['alternative']}  {e['closeness']:.6f}" for pos, e in enumerate(body["ranking"], start=1)]
    if body["droppedCriteria"]:
        lines.append(f"  dropped zero-variance criteria: {', '.join(body['droppedCriteria'])}")
    return "\n".join(lines) + "\n"
