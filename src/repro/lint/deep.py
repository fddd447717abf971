"""Driver for the whole-program (``--deep``) lint pass.

Orchestrates the pipeline: collect sources → extract facts (through
the optional :class:`~repro.lint.dataflow.FactCache`) → link into a
:class:`~repro.lint.callgraph.Program` → run the interprocedural
rules → apply the same justified ``# repro-lint: disable=...``
suppression comments the per-file engine honors.  Unjustified
suppressions are *not* re-reported here — the per-file engine already
emits RPL000 for them, and ``--deep`` always runs on top of it.

Files that do not parse are skipped (again: the per-file engine
reports them); the deep pass analyzes the program that exists.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.callgraph import Program, build_program
from repro.lint.dataflow import FactCache
from repro.lint.deep_rules import DEEP_RULES, DeepRule
from repro.lint.engine import (
    Finding,
    LintResult,
    SourceFile,
    collect_files,
    expand_select,
)


def deep_rule_ids() -> list[str]:
    """Ids of every interprocedural rule, sorted."""
    return sorted(rule_cls.rule_id for rule_cls in DEEP_RULES)


def select_deep_rules(select: Iterable[str] | None = None) -> list[DeepRule]:
    """Instantiate the deep rules matching ``select`` (all by default)."""
    rules = [rule_cls() for rule_cls in DEEP_RULES]
    if select is None:
        return rules
    wanted = expand_select(select, {rule.rule_id for rule in rules})
    return [rule for rule in rules if rule.rule_id in wanted]


def deep_check_sources(
    sources: Sequence[SourceFile],
    select: Iterable[str] | None = None,
    cache: FactCache | None = None,
) -> list[Finding]:
    """Run the deep rules over already-parsed sources.

    Returns sorted findings with justified suppressions applied.  This
    is the entry fixture tests use: a snippet can be linted *as if* it
    lived at a library path via ``SourceFile(logical=...)``.
    """
    program = build_program(sources, cache=cache)
    findings: list[Finding] = []
    for rule in select_deep_rules(select):
        findings.extend(rule.check(program))
    return sorted(_apply_suppressions(sources, findings))


def deep_lint_paths(
    paths: Iterable[str | Path],
    select: Iterable[str] | None = None,
    cache_path: str | Path | None = None,
) -> LintResult:
    """Deep-lint every ``.py`` file under ``paths``.

    ``cache_path`` enables file-hash memoization of the extraction
    phase; the cache is loaded, consulted, and rewritten (pruned to
    the files seen this run).
    """
    files = collect_files(paths)
    sources: list[SourceFile] = []
    for path in files:
        try:
            sources.append(SourceFile.from_path(path))
        except SyntaxError:
            continue  # the per-file engine reports the parse failure
    cache = FactCache(cache_path) if cache_path is not None else None
    findings = deep_check_sources(sources, select=select, cache=cache)
    if cache is not None:
        cache.save()
    return LintResult(findings=tuple(findings), files_scanned=len(files))


def _apply_suppressions(
    sources: Sequence[SourceFile], findings: list[Finding]
) -> list[Finding]:
    silenced: dict[str, dict[int, set[str]]] = {}
    for source in sources:
        per_line = silenced.setdefault(source.path, {})
        for suppression in source.suppressions:
            if suppression.justified:
                per_line.setdefault(suppression.target_line, set()).update(
                    suppression.rules
                )
    return [
        finding
        for finding in findings
        if finding.rule
        not in silenced.get(finding.path, {}).get(finding.line, ())
    ]
