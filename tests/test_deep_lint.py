"""Tests for the whole-program (``--deep``) lint pass.

Covers: every interprocedural rule firing on a bad fixture and
staying silent on the matching good fixture, call-graph construction
(mutual recursion, cycles, method resolution through annotations and
constructor assignments), the deterministic worklist engine, the fact
cache, ``--select`` prefix expansion, the SARIF reporter, the CLI
flags, and the meta-test that the repo's own tree deep-lints clean.
"""

import json
import subprocess
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.lint import (
    FactCache,
    build_program,
    deep_lint_paths,
    deep_rule_ids,
    expand_select,
    fixpoint,
    render_json,
    render_sarif,
)
from repro.lint.deep import deep_check_sources
from repro.lint.deep_rules import HotPathAllocationRule
from repro.lint.engine import SourceFile, collect_files

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: rule id -> (fixture stem, logical path the snippet is linted *as*).
DEEP_CASES = {
    "RPL010": ("rpl010", "src/repro/service/loader_fixture.py"),
    "RPL011": ("rpl011", "src/repro/gateway/gateway_fixture.py"),
    "RPL012": ("rpl012", "src/repro/rollout/digest_fixture.py"),
    "RPL013": ("rpl013", "src/repro/labeling/hotpath_fixture.py"),
}


def _check_fixture(rule_id, kind):
    stem, logical = DEEP_CASES[rule_id]
    path = FIXTURES / f"{stem}_{kind}.py"
    source = SourceFile(
        path.read_text(encoding="utf-8"), path=str(path), logical=logical
    )
    return deep_check_sources([source], select=[rule_id])


# -- per-rule fixtures -------------------------------------------------------


@pytest.mark.parametrize("rule_id", sorted(DEEP_CASES))
def test_deep_bad_fixture_fires(rule_id):
    findings = _check_fixture(rule_id, "bad")
    assert findings, f"{rule_id} bad fixture produced no findings"
    assert {f.rule for f in findings} == {rule_id}, [f.render() for f in findings]


@pytest.mark.parametrize("rule_id", sorted(DEEP_CASES))
def test_deep_good_fixture_is_clean(rule_id):
    findings = _check_fixture(rule_id, "good")
    assert findings == [], [f.render() for f in findings]


def test_corruption_flow_and_race_rules_are_errors():
    for rule_id in ("RPL010", "RPL011", "RPL012"):
        for finding in _check_fixture(rule_id, "bad"):
            assert finding.severity == "error"


def test_hot_path_audit_is_advisory():
    findings = _check_fixture("RPL013", "bad")
    assert findings and all(f.severity == "info" for f in findings)
    # the advisory tier reports a call depth for prioritisation
    assert any("depth" in f.message for f in findings)


def test_advisory_findings_do_not_fail_the_result():
    result = deep_lint_paths([FIXTURES / "rpl013_bad.py"])
    assert result.findings
    assert result.ok, "info-severity findings must not flip ok to False"


def test_justified_suppression_silences_deep_finding():
    stem, logical = DEEP_CASES["RPL012"]
    text = (FIXTURES / f"{stem}_bad.py").read_text(encoding="utf-8")
    text = text.replace(
        "    return zlib.crc32(payload)",
        "    # repro-lint: disable=RPL012 -- fixture exercising deep suppression\n"
        "    return zlib.crc32(payload)",
    )
    source = SourceFile(text, path="rpl012_suppressed.py", logical=logical)
    assert deep_check_sources([source], select=["RPL012"]) == []


# -- call-graph construction -------------------------------------------------

MOD = '''"""Doc."""


class Store:
    def load(self) -> int:
        return 1


class Service:
    def __init__(self, store: Store) -> None:
        self._store = store

    def run(self) -> int:
        return self._store.load()


class Built:
    def __init__(self) -> None:
        self._store = Store()

    def peek(self) -> int:
        return self._store.load()


def even(n: int) -> bool:
    if n == 0:
        return True
    return odd(n - 1)


def odd(n: int) -> bool:
    if n == 0:
        return False
    return even(n - 1)


def loop(n: int) -> int:
    if n == 0:
        return 0
    return loop(n - 1)
'''


def _program():
    return build_program(
        [SourceFile(MOD, path="mod.py", logical="src/repro/x/mod.py")]
    )


def _callees(program, qualname):
    return [callee for _, callee in program.callees_of(qualname)]


def test_callgraph_resolves_mutual_recursion():
    program = _program()
    assert _callees(program, "repro.x.mod.even") == ["repro.x.mod.odd"]
    assert _callees(program, "repro.x.mod.odd") == ["repro.x.mod.even"]
    assert program.callers["repro.x.mod.even"] == ["repro.x.mod.odd"]


def test_callgraph_handles_self_cycle():
    program = _program()
    assert _callees(program, "repro.x.mod.loop") == ["repro.x.mod.loop"]


def test_callgraph_resolves_method_via_annotated_attribute():
    program = _program()
    assert _callees(program, "repro.x.mod.Service.run") == [
        "repro.x.mod.Store.load"
    ]


def test_callgraph_resolves_method_via_constructor_assignment():
    program = _program()
    assert _callees(program, "repro.x.mod.Built.peek") == [
        "repro.x.mod.Store.load"
    ]


def test_callgraph_links_across_modules():
    helper = '"""Doc."""\n\n\ndef leaf() -> int:\n    return 1\n'
    caller = (
        '"""Doc."""\n\nfrom repro.x.helper import leaf\n\n\n'
        "def top() -> int:\n    return leaf()\n"
    )
    program = build_program(
        [
            SourceFile(helper, path="helper.py", logical="src/repro/x/helper.py"),
            SourceFile(caller, path="caller.py", logical="src/repro/x/caller.py"),
        ]
    )
    assert _callees(program, "repro.x.caller.top") == ["repro.x.helper.leaf"]


# -- worklist engine ---------------------------------------------------------


def test_fixpoint_propagates_through_cycles():
    qualnames = ["a", "b", "c"]
    callees = {"a": ["b"], "b": ["c"], "c": ["a"]}
    callers = {"b": ["a"], "c": ["b"], "a": ["c"]}

    def init(q):
        return frozenset({"X"}) if q == "c" else frozenset()

    def transfer(q, summaries):
        out = set(summaries[q])
        for callee in callees.get(q, ()):
            out |= summaries[callee]
        return frozenset(out)

    result = fixpoint(qualnames, callers, init, transfer)
    assert result == {q: frozenset({"X"}) for q in qualnames}


def test_fixpoint_is_deterministic():
    qualnames = [f"f{i}" for i in range(20)]
    callers = {q: [p for p in qualnames if p != q] for q in qualnames}

    def init(q):
        return frozenset({q}) if q == "f7" else frozenset()

    def transfer(q, summaries):
        merged = set()
        for value in summaries.values():
            merged |= value
        return frozenset(merged)

    first = fixpoint(qualnames, callers, init, transfer)
    second = fixpoint(qualnames, callers, init, transfer)
    assert first == second


def test_fixpoint_rejects_non_monotone_transfer():
    def transfer(q, summaries):
        return not summaries[q]  # flip-flops forever

    with pytest.raises(RuntimeError, match="did not converge"):
        fixpoint(["a"], {"a": ["a"]}, lambda q: False, transfer, max_rounds=50)


# -- fact cache --------------------------------------------------------------


def test_fact_cache_round_trip(tmp_path):
    cache_path = tmp_path / "cache.json"
    first = FactCache(cache_path)
    assert first.get("text") is None
    first.put("text", {"module": "m"})
    first.save()

    second = FactCache(cache_path)
    assert second.get("text") == {"module": "m"}
    assert (second.hits, second.misses) == (1, 0)


def test_fact_cache_prunes_untouched_entries(tmp_path):
    cache_path = tmp_path / "cache.json"
    cache = FactCache(cache_path)
    cache.put("keep", {"module": "keep"})
    cache.put("drop", {"module": "drop"})
    cache.save()

    pruned = FactCache(cache_path)
    assert pruned.get("keep") == {"module": "keep"}
    pruned.save()

    reloaded = FactCache(cache_path)
    assert reloaded.get("keep") == {"module": "keep"}
    assert reloaded.get("drop") is None


def test_fact_cache_tolerates_corrupt_file(tmp_path):
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{not json", encoding="utf-8")
    cache = FactCache(cache_path)
    assert cache.get("text") is None


def test_deep_lint_warm_cache_hits_every_file(tmp_path):
    cache_path = tmp_path / "cache.json"
    deep_lint_paths([FIXTURES / "rpl010_bad.py"], cache_path=cache_path)
    warm = FactCache(cache_path)
    text = (FIXTURES / "rpl010_bad.py").read_text(encoding="utf-8")
    assert warm.get(text) is not None


def test_cached_and_uncached_runs_agree(tmp_path):
    cache_path = tmp_path / "cache.json"
    cold = deep_lint_paths([FIXTURES], cache_path=cache_path)
    warm = deep_lint_paths([FIXTURES], cache_path=cache_path)
    uncached = deep_lint_paths([FIXTURES])
    assert render_json(cold) == render_json(warm) == render_json(uncached)


# -- select expansion --------------------------------------------------------


def test_expand_select_prefix_wildcard():
    known = {"RPL010", "RPL011", "RPL012", "RPL013"}
    assert expand_select(["RPL01x"], known) == known
    assert expand_select(["RPL010"], known) == {"RPL010"}


def test_expand_select_rejects_unknown_ids():
    with pytest.raises(ValueError, match="unknown rule ids"):
        expand_select(["RPL999"], {"RPL010"})
    with pytest.raises(ValueError, match="unknown rule ids"):
        expand_select(["RPL99x"], {"RPL010"})


def test_deep_rule_ids_catalogue():
    assert deep_rule_ids() == ["RPL010", "RPL011", "RPL012", "RPL013"]


# -- reporters ---------------------------------------------------------------


def test_sarif_reporter_schema():
    result = deep_lint_paths([FIXTURES / "rpl010_bad.py"])
    doc = json.loads(render_sarif(result))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
    assert "RPL010" in rules
    assert run["results"], "expected at least one SARIF result"
    for entry in run["results"]:
        assert entry["ruleId"] == "RPL010"
        assert entry["level"] == "error"
        location = entry["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("rpl010_bad.py")
        assert location["region"]["startLine"] >= 1


def test_sarif_maps_info_severity_to_note():
    result = deep_lint_paths([FIXTURES / "rpl013_bad.py"])
    doc = json.loads(render_sarif(result))
    levels = {entry["level"] for entry in doc["runs"][0]["results"]}
    assert levels == {"note"}


def test_deep_reports_are_bit_deterministic():
    first = deep_lint_paths([FIXTURES])
    second = deep_lint_paths([FIXTURES])
    assert render_json(first).encode() == render_json(second).encode()
    assert render_sarif(first).encode() == render_sarif(second).encode()


# -- the repo's own tree -----------------------------------------------------


def test_repo_tree_deep_lints_clean():
    result = deep_lint_paths([ROOT / "src" / "repro", ROOT / "tools"])
    assert result.ok, "\n".join(f.render() for f in result.findings)
    # only the advisory hot-path work-list may remain
    assert {f.rule for f in result.findings} <= {"RPL013"}


def test_scenario_package_deep_lints_clean():
    result = deep_lint_paths([ROOT / "src" / "repro" / "scenario"])
    assert result.ok, "\n".join(f.render() for f in result.findings)
    assert result.files_scanned >= 5
    assert {f.rule for f in result.findings} <= {"RPL013"}


def test_kernel_package_is_allocation_free_on_the_hot_path():
    """The array kernel retires its own RPL013 work-list: zero findings.

    ``DecodeEngine.run`` is an RPL013 entry point; everything reachable
    from it must allocate no per-query dict/set machinery.
    """
    result = deep_lint_paths(
        [ROOT / "src" / "repro" / "labeling" / "kernel"]
    )
    rpl013 = [f for f in result.findings if f.rule == "RPL013"]
    assert rpl013 == [], "\n".join(f.render() for f in rpl013)


def test_hot_path_entry_points_resolve_in_the_repo():
    """Every RPL013 anchor names a function the repo's call graph has.

    A stale anchor (a renamed or deleted decoder class) would silently
    shrink the walked hot path instead of failing.
    """
    program = build_program([
        SourceFile.from_path(path)
        for path in collect_files([ROOT / "src" / "repro"])
    ])
    defined = {
        (node.class_name, node.name) for node in program.sorted_functions()
    }
    missing = [
        entry
        for entry in HotPathAllocationRule.ENTRY_POINTS
        if entry not in defined
    ]
    assert missing == []


# -- CLI ---------------------------------------------------------------------


def test_cli_deep_fires_on_fixture(capsys):
    code = cli_main(["lint", "--deep", str(FIXTURES / "rpl010_bad.py")])
    assert code == 1
    assert "RPL010" in capsys.readouterr().out


def test_cli_deep_select_prefix(capsys):
    code = cli_main(
        [
            "lint",
            "--deep",
            "--select",
            "RPL01x",
            str(FIXTURES / "rpl012_bad.py"),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "RPL012" in out


def test_cli_deep_rule_without_flag_errors(capsys):
    code = cli_main(["lint", "--select", "RPL011", str(FIXTURES)])
    assert code == 1
    assert "--deep" in capsys.readouterr().err


def test_cli_unknown_prefix_errors(capsys):
    code = cli_main(["lint", "--select", "RPL99x", str(FIXTURES)])
    assert code == 1
    assert "unknown rule ids" in capsys.readouterr().err


def test_cli_sarif_output_parses(capsys):
    code = cli_main(
        ["lint", "--deep", "--format", "sarif", str(FIXTURES / "rpl011_bad.py")]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"


def test_cli_deep_cache_file_is_written(tmp_path, capsys):
    cache_path = tmp_path / "cache.json"
    code = cli_main(
        [
            "lint",
            "--deep",
            "--cache",
            str(cache_path),
            str(FIXTURES / "rpl010_good.py"),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert cache_path.exists()


def test_cli_list_rules_includes_deep_tier(capsys):
    code = cli_main(["lint", "--list-rules"])
    assert code == 0
    out = capsys.readouterr().out
    for rule_id in sorted(DEEP_CASES):
        assert rule_id in out
    assert "--deep" in out


def test_cli_changed_only_restricts_report(tmp_path, monkeypatch, capsys):
    """--changed-only trims the report to files changed since REF."""
    repo = tmp_path / "repo"
    repo.mkdir()
    monkeypatch.chdir(repo)
    env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t"}

    def git(*argv):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv],
            check=True,
            capture_output=True,
            env={**__import__("os").environ, **env},
        )

    git("init", "-q")
    (repo / "stable.py").write_text('"""Doc."""\nimport random\n', encoding="utf-8")
    (repo / "touched.py").write_text('"""Doc."""\nX = 1\n', encoding="utf-8")
    git("add", ".")
    git("commit", "-qm", "seed")
    (repo / "touched.py").write_text(
        '"""Doc."""\nimport random\n', encoding="utf-8"
    )

    code = cli_main(["lint", "--changed-only", "HEAD", "."])
    out = capsys.readouterr().out
    assert code == 1
    assert "touched.py" in out
    assert "stable.py" not in out

    code = cli_main(["lint", "--changed-only", "HEAD", "--select", "RPL002", "."])
    capsys.readouterr()
    assert code == 0


def test_cli_changed_only_bad_ref_errors(capsys):
    code = cli_main(
        ["lint", "--changed-only", "no-such-ref-xyz", str(FIXTURES)]
    )
    assert code == 1
    assert "--changed-only" in capsys.readouterr().err
