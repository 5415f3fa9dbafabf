"""Command-line front end.

Exit codes: 0 success, 1 parse/validation error (incl. bad usage), 2
strict-mode findings, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from reqlattice import corpus_io, hierarchy, optimize, partition, relations, reports, topsis
from reqlattice.changes import apply_change_set, reuse_hints
from reqlattice.errors import EmptyAspectError, IOFailure, ReqLatticeError
from reqlattice.model import Corpus, Level, RequirementKind, SourceKind
from reqlattice.partition import Finding, Partition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_STRICT = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract wants 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _build_parser() -> _Parser:
    parser = _Parser(prog="reqlattice", description="Multi-jurisdiction requirements analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level=False, strict=True):
        p.add_argument("--corpus", required=True, help="corpus file (.reqcorpus.json)")
        if level:  # only the partition-based commands analyse a level frontier
            p.add_argument("--level", choices=list(_LEVEL_FLAG), default=None,
                           help="restrict analysis to this hierarchy level's frontier")
        p.add_argument("--format", choices=["text", "json"], default="text")
        if strict:  # only commands that report findings can escalate them
            p.add_argument("--strict", action="store_true",
                           help="escalate warnings/conflicts to a failing exit code")
        p.add_argument("--out", default=None, help="write the report to this file")
        return p

    common(sub.add_parser("validate", help="load and validate a corpus"), level=True)
    common(sub.add_parser("partition", help="general/specific decomposition"), level=True)
    common(sub.add_parser("scenario", help="classify the regulation/culture overlap scenario"),
           level=True, strict=False)
    p = common(sub.add_parser("optimize", help="strongest/baseline requirement sets"))
    p.add_argument("--emit", choices=["min", "star", "both"], default="both")
    common(sub.add_parser("conflicts", help="list declared and derived contradictions"))
    p = common(sub.add_parser("change", help="apply a change set and classify its impact"), strict=False)
    p.add_argument("--changes", required=True, help="change-set file (.reqchange.json)")
    common(sub.add_parser("hierarchy", help="hierarchy lint and effective requirement sets"))
    p = common(sub.add_parser("rank", help="TOPSIS ranking of conflict resolutions"), strict=False)
    p.add_argument("--alts", required=True, help="alternatives file (.reqalts.json)")
    return parser


_LEVEL_FLAG = {"national": Level.NATIONAL, "state": Level.STATE, "org": Level.ORGANISATIONAL}


def _emit(args, report_type: str, body, text: Callable[[bool], str]) -> None:
    """Write the report to ``--out`` (for ``change`` that is the new corpus,
    so its report goes to stdout) or to stdout.

    ``text(color)`` renders the text report; headings are coloured only when
    the stream written to is a terminal.
    """
    def write(stream) -> None:
        if args.format == "json":
            stream.write(reports.envelope_json(report_type, body))
        else:
            stream.write(text(reports.use_color(stream)))

    if args.out and args.command != "change":
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)


def _level_partitions(corpus: Corpus, level_flag: str | None,
                      kinds: tuple[type[SourceKind] | type[RequirementKind], ...]) -> dict[str, Partition]:
    """The partitions of every kind in ``kinds`` (``SourceKind``,
    ``RequirementKind`` or both), over the flat corpus or a level frontier."""
    selection = None if level_flag is None else hierarchy.select_level(corpus, _LEVEL_FLAG[level_flag])
    out: dict[str, Partition] = {}
    if SourceKind in kinds:
        views = {} if selection is None else hierarchy.level_source_view(corpus, selection)
        out.update({k.value: partition.partition_sources(corpus, k, views.get(k)) for k in SourceKind})
    if RequirementKind in kinds:
        views = {} if selection is None else hierarchy.level_requirement_view(corpus, selection)
        out.update({k.value: partition.partition_requirements(corpus, k, views.get(k)) for k in RequirementKind})
    return out


def _component_scope_warnings(corpus: Corpus, parts: dict[str, Partition]) -> list[Finding]:
    warnings: list[Finding] = []
    rmap = corpus.requirement_map()
    for comp in corpus.components:
        for rid in sorted(comp.implements):
            part = parts[rmap[rid].kind.value]
            if rid not in part.general and part.owner_of(rid) is None:
                continue  # no bucket of the level view holds it
            if comp.scope.kind == "general" and rid not in part.general:
                warnings.append(Finding(
                    "COMPONENT_SCOPE", "warning", comp.id,
                    f"general component {comp.id!r} implements non-general requirement {rid!r}"))
            elif comp.scope.kind == "specific" and rid not in part.specific.get(comp.scope.jurisdiction, frozenset()):
                warnings.append(Finding(
                    "COMPONENT_SCOPE", "warning", comp.id,
                    f"component {comp.id!r} of {comp.scope.jurisdiction!r} implements out-of-scope requirement {rid!r}"))
    return warnings


def _cmd_validate(args, corpus: Corpus) -> int:
    parts = _level_partitions(corpus, args.level, (RequirementKind,))
    warnings = _component_scope_warnings(corpus, parts)
    body = {"valid": True, "warnings": [reports.finding_body(f) for f in warnings]}
    lines = ["corpus valid"]
    reports.render_findings(warnings, lines)
    _emit(args, "validate", body, lambda color: "\n".join(lines) + "\n")
    return EXIT_STRICT if args.strict and warnings else EXIT_OK


def _cmd_partition(args, corpus: Corpus) -> int:
    parts = _level_partitions(corpus, args.level, (SourceKind, RequirementKind))
    elaboration = partition.check_elaboration(corpus, parts)
    condition = partition.check_specific_contradiction_condition(corpus, *(parts[k.value] for k in SourceKind))
    _emit(args, "partition", reports.partition_body(parts, elaboration, condition),
          lambda color: reports.partition_text(parts, elaboration, condition, color))
    failing = [f for f in elaboration if f.severity == "error"] + condition
    return EXIT_STRICT if args.strict and failing else EXIT_OK


def _cmd_scenario(args, corpus: Corpus) -> int:
    parts = _level_partitions(corpus, args.level, (SourceKind,))
    classes = {}
    for kind in SourceKind:
        try:
            classes[kind.value] = partition.classify_scenario(parts[kind.value])
        except EmptyAspectError:
            classes[kind.value] = None
    _emit(args, "scenario", reports.scenario_body(classes),
          lambda color: reports.scenario_text(classes))
    return EXIT_OK


def _cmd_optimize(args, corpus: Corpus) -> int:
    gv = optimize.global_view(corpus)
    _emit(args, "optimize", reports.optimize_body(gv, args.emit),
          lambda color: reports.optimize_text(gv, args.emit, color))
    return EXIT_STRICT if args.strict and gv.conflicts else EXIT_OK


def _cmd_conflicts(args, corpus: Corpus) -> int:
    records = relations.find_conflicts(corpus, {r.id for r in corpus.requirements})
    _emit(args, "conflicts", reports.conflicts_body(records),
          lambda color: reports.conflicts_text(records))
    return EXIT_STRICT if args.strict and records else EXIT_OK


def _cmd_change(args, corpus: Corpus) -> int:
    cs = corpus_io.load_change_set(args.changes)  # apply_change_set validates it against the corpus
    new_corpus, report = apply_change_set(corpus, cs)
    hints = reuse_hints(report, corpus)
    if args.out:
        corpus_io.save_corpus(new_corpus, args.out)
    _emit(args, "impact", reports.impact_body(report, hints),
          lambda color: reports.impact_text(report, hints, color))
    return EXIT_OK


def _cmd_hierarchy(args, corpus: Corpus) -> int:
    findings = hierarchy.validate_hierarchy(corpus)
    effective = {
        j.id: sorted(hierarchy.effective_requirements(corpus, j.id))
        for j in corpus.jurisdictions
    }
    _emit(args, "hierarchy", reports.hierarchy_body(findings, effective),
          lambda color: reports.hierarchy_text(findings, effective, color))
    return EXIT_STRICT if args.strict and findings else EXIT_OK


def _cmd_rank(args, corpus: Corpus) -> int:
    alts = corpus_io.load_alternatives(args.alts)
    matrix = topsis.build_conflict_matrix(corpus, alts)
    ranking = topsis.rank_alternatives(matrix)
    _emit(args, "ranking", reports.ranking_body(ranking),
          lambda color: reports.ranking_text(ranking, color))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "partition": _cmd_partition,
    "scenario": _cmd_scenario,
    "optimize": _cmd_optimize,
    "conflicts": _cmd_conflicts,
    "change": _cmd_change,
    "hierarchy": _cmd_hierarchy,
    "rank": _cmd_rank,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        corpus = corpus_io.load_corpus(args.corpus)
        return _COMMANDS[args.command](args, corpus)
    except IOFailure as exc:
        print(f"reqlattice: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ReqLatticeError as exc:
        print(f"reqlattice: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"reqlattice: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
