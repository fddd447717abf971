"""EXPERIMENTS.md generator.

Runs the experiment suite and writes a markdown report recording, per
experiment, the paper's claim next to the measured outcome — the
"paper-vs-measured" index required by DESIGN.md.

Usage::

    python -m repro.analysis.report [--full] [-o EXPERIMENTS.md]
"""

from __future__ import annotations

import argparse
import time

from repro.analysis.experiments import EXPERIMENTS, run_experiment

#: per-experiment claim text (paper reference) and reading guidance
_CLAIMS = {
    "E1": (
        "Theorem 2.1 / Lemma 2.4: for every query (s, t, F), "
        "`d_{G\\F}(s,t) <= delta <= (1+eps) d_{G\\F}(s,t)`, and delta is "
        "finite iff s, t are connected in G\\F.",
        "All rows must show violations = 0 and conn_mismatch = 0, with "
        "max_stretch <= bound.",
    ),
    "E2": (
        "Lemma 2.5: label length O((1+1/eps)^{2 alpha} log^2 n) bits — "
        "for fixed eps and alpha, growth in n is O(log^2 n).",
        "bits/log2^2(n) should flatten as n grows (each doubling of n adds "
        "one level of bounded size; low-n rows are dominated by the "
        "constant-radius lowest level filling up).",
    ),
    "E3": (
        "Lemma 2.5: the (1+1/eps)^{2 alpha} factor — shrinking eps "
        "increases c = max(ceil(log2(6/eps)), 2) and thus net density.",
        "max_bits must be non-decreasing as c grows; each +1 in c roughly "
        "doubles per-level net density on alpha = 1 instances.",
    ),
    "E4": (
        "Lemma 2.2 / 2.5: the per-level point count |B(v, r_i) ∩ "
        "N_{i-c-1}| is 2^{O(alpha)}; Theorem 3.1 shows the exponential "
        "dependence is necessary.",
        "At uncapped levels the count explodes from alpha=1 to alpha=2 "
        "(orders of magnitude); 3-d instances are diameter-capped at "
        "feasible n (marked capped_by_n).",
    ),
    "E5": (
        "Lemma 2.6: query time O((1+1/eps)^{2 alpha} |F|^2 log n).",
        "ms/query grows with |F| (safety filtering is edges x faults); "
        "sketch sizes stay bounded.",
    ),
    "E6": (
        "Lemma 2.6: at fixed |F| and eps, query cost grows only through "
        "the O(log n) level count and per-level content.",
        "sketch_edges grows toward its saturation value (levels x "
        "per-level cap) — far below n^2.",
    ),
    "E7": (
        "Theorem 2.1: labels computable in polynomial time.",
        "global preprocessing seconds and the build and encode ms per "
        "label grow polynomially; table_s projects building and encoding "
        "every label, and the note names per family the largest n whose "
        "table fits in 60 s.  Every grid row (diameter <= 78) is in the "
        "whole-graph regime at eps = 1; every path row (diameter n - 1 > "
        "88 = r_{c+1}) is past it.",
    ),
    "E8": (
        "Theorem 2.7: routing with stretch 1+eps and the same table "
        "sizes; packets delivered in G\\F.",
        "undeliverable = 0 on connected queries and max_stretch <= 1+eps.",
    ),
    "E9": (
        "Theorem 3.1: forbidden-set connectivity labels need "
        "Omega(2^{alpha/2} + log n) bits; proof via counting the family "
        "F_{n,alpha} plus the everywhere-failure reconstruction attack.",
        "log2|F| grows with alpha at comparable n; our measured labels "
        "(upper bound) always exceed the per-label counting bound.",
    ),
    "E10": (
        "Introduction (byproduct): the oracle derived from labels has "
        "size independent of the number of faults it must tolerate.",
        "size_bits is identical for every |F| served.",
    ),
    "E11": (
        "Ablation (ours): the formal definition stores all pairs within "
        "lambda_{c+1} at the lowest level; storing only unit edges "
        "preserves the guarantees (Claim 2's low-level case).",
        "unit-mode labels are several times smaller with zero violations.",
    ),
    "E12": (
        "Context: Courcelle–Twigg give exact forbidden-set labels for "
        "bounded treewidth; on trees (treewidth 1) an ancestor-list "
        "labeling is exact and tiny.  The Section 2.1 failure-free scheme "
        "has stretch 1+eps.",
        "the tree baseline answers exactly with O(depth log n)-bit labels; "
        "the failure-free scheme respects its bound (rows ok = True).",
    ),
    "E13": (
        "Observation (ours): the 1+eps bound is loose in practice — "
        "approximation error only appears once the diameter dwarfs the "
        "smallest ball radius r_{c+1} (48 at eps >= 1.5, as in the eps = 4 "
        "rows; 88 at eps = 1; 168 at eps = 0.5), and stays tiny even then.",
        "max_stretch barely exceeds 1.0 against a bound of 1+eps.",
    ),
    "E14": (
        "Extension (ours): the scheme ported to positive-integer-weighted "
        "graphs (Fact 1's weighted form); lower bound unconditional, upper "
        "bound 1 + eps + W_max/2^{c+1}.",
        "violations and conn_mismatch must be 0 for every weight range.",
    ),
}


def generate_report(full: bool, experiments: list[str] | None = None) -> str:
    """Run experiments and render the markdown report."""
    names = experiments or sorted(EXPERIMENTS)
    lines = [
        "# EXPERIMENTS — paper claims vs measured results",
        "",
        "Generated by `python -m repro.analysis.report"
        + (" --full" if full else "")
        + "`.",
        "",
        "The paper (PODC 2010 / TALG 2016) has no empirical section; per "
        "DESIGN.md each experiment below validates one of its quantitative "
        "claims.  'Measured' tables are regenerated by "
        "`pytest benchmarks/ --benchmark-only` (quick sizes) or the command "
        "above (these sizes).",
        "",
    ]
    for name in names:
        claim, reading = _CLAIMS.get(name, ("", ""))
        start = time.perf_counter()
        tables = run_experiment(name, quick=not full)
        elapsed = time.perf_counter() - start
        lines.append(f"## {name}")
        lines.append("")
        if claim:
            lines.append(f"**Claim (paper).** {claim}")
            lines.append("")
        if reading:
            lines.append(f"**How to read it.** {reading}")
            lines.append("")
        lines.append("**Measured.**")
        lines.append("")
        for table in tables:
            lines.append("```text")
            lines.append(table.render())
            lines.append("```")
            lines.append("")
        lines.append(f"_(generated in {elapsed:.1f}s)_")
        lines.append("")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="generate EXPERIMENTS.md")
    parser.add_argument("--full", action="store_true", help="full-size instances")
    parser.add_argument("-o", "--output", default="EXPERIMENTS.md")
    parser.add_argument("--exp", action="append", default=[])
    args = parser.parse_args(argv)
    report = generate_report(full=args.full, experiments=args.exp or None)
    with open(args.output, "w") as handle:
        handle.write(report)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
