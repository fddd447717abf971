"""Interprocedural rule families for the ``--deep`` pass (RPL010–013).

Each rule analyzes a linked :class:`~repro.lint.callgraph.Program`
instead of one file, generalizing a per-file rule across call chains:

========  ==============================================================
RPL010    exception-flow — a corruption error
          (``LabelCorruptionError`` / ``StorageCorruptionError`` /
          ``DatabaseTruncationError``) raised anywhere must reach a
          sanctioned boundary; a broad ``except`` that can absorb one
          from *any* transitive callee is a violation (RPL003 made
          whole-program)
RPL011    cooperative-race detector — inside ``VirtualLoop``
          coroutines: unawaited coroutine calls, transitively
          blocking/wall-clock calls (RPL002 made whole-program), and
          shared gateway state cached across an ``await`` without
          re-validation
RPL012    nondeterminism taint — unordered-container iteration must
          not flow, interprocedurally, into CRC computation or
          serialization/export sinks (RPL007 made whole-program)
RPL013    hot-path allocation audit (*advisory*) — functions reachable
          from the decoder entry that build per-query dicts/sets,
          reported with call depth: the work-list for the array kernel
========  ==============================================================

All four are *may*-analyses over resolved call edges only: an
unresolvable call (stdlib, duck-typed) contributes nothing, so every
finding is backed by a concrete witness chain through project code.

Sanctioned boundaries for RPL010 — places a corruption error may stop
without a re-raise — are structural, not a path allowlist:

* CLI entry points (a function named ``main`` or ``cmd_*``), which
  present errors to the operator;
* quarantine paths (a function whose name contains ``quarantine``),
  which record the poisoned vertex explicitly;
* fault-injection judges (modules under ``chaos/`` or whose name
  contains ``fuzz``), whose purpose is to induce and observe
  corruption;
* any handler that re-raises, or that binds and *uses* the exception
  (converting it into an explicit degraded outcome).

Anything else needs a justified ``# repro-lint: disable=RPL010`` with
the reason the absorption is safe.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.lint.callgraph import FunctionNode, Program
from repro.lint.dataflow import fixpoint
from repro.lint.engine import Finding

#: origin kinds for RPL012 taint facts.
_LOCAL = "local"
_PARAM = "param"

#: modules whose ``render_*`` / ``write_*``-style functions are
#: serialization sinks for RPL012 (mirrors RPL007's writer scope).
_SINK_MODULE_TOKENS = (
    "bitio",
    "encoding",
    "persistence",
    "store",
    "export",
    "golden",
)
_SINK_NAME_PREFIXES = ("write_", "dump_", "save_", "render_")


def _short(qualname: str) -> str:
    """Readable tail of a function qualname (``Class.meth`` or ``func``)."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qualname


class DeepRule:
    """Base class for whole-program rules.

    Mirrors :class:`repro.lint.engine.Rule`, but :meth:`check` sees the
    linked program rather than one source file.
    """

    rule_id: str = "RPL???"
    severity: str = "error"
    summary: str = ""
    contract: str = ""

    def check(self, program: Program) -> Iterator[Finding]:
        """Yield every violation of this rule in ``program``."""
        raise NotImplementedError

    def finding(
        self, node: FunctionNode, line: int, col: int, message: str
    ) -> Finding:
        """Build a :class:`Finding` located inside ``node``'s file."""
        return Finding(
            path=node.path,
            line=line,
            col=col,
            rule=self.rule_id,
            severity=self.severity,
            message=message,
        )


# -- RPL010 ------------------------------------------------------------------


class ExceptionFlowRule(DeepRule):
    """RPL010: corruption errors must reach a sanctioned boundary.

    Computes, per function, the set of corruption exception classes it
    *may* raise (direct raises plus transitive callees, minus those
    already absorbed inside it), then flags every covering ``except``
    whose try block can produce one and whose handler neither
    re-raises nor uses the exception value.
    """

    rule_id = "RPL010"
    summary = "broad 'except' absorbs a corruption error raised down the call chain"
    contract = "never silently wrong"

    def check(self, program: Program) -> Iterator[Finding]:
        """Find covering handlers that absorb a reachable corruption."""
        may_raise = self._may_raise(program)
        for node in program.sorted_functions():
            if self._sanctioned(node):
                continue
            yield from self._check_function(node, program, may_raise)

    # -- dataflow ------------------------------------------------------------

    @staticmethod
    def _escapes(record: Mapping) -> bool:
        """Whether an exception at this site escapes the function."""
        return (not record["covered"]) or record["cover_reraises"]

    def _may_raise(self, program: Program) -> dict[str, frozenset[str]]:
        def transfer(
            qualname: str, summaries: Mapping[str, frozenset[str]]
        ) -> frozenset[str]:
            node = program.functions[qualname]
            out: set[str] = set()
            for record in node.facts["raises"]:
                if self._escapes(record):
                    out.add(record["name"])
            for record, callee in program.callees_of(qualname):
                if self._escapes(record):
                    out |= summaries.get(callee, frozenset())
            return frozenset(out)

        return fixpoint(
            sorted(program.functions),
            program.callers,
            lambda _: frozenset(),
            transfer,
        )

    # -- violations ----------------------------------------------------------

    @staticmethod
    def _sanctioned(node: FunctionNode) -> bool:
        name = node.name
        if name == "main" or name.startswith("cmd_"):
            return True  # CLI boundary: presents the error to the operator
        if "quarantine" in name:
            return True  # quarantine path: records the poisoned vertex
        logical = node.logical
        if "/chaos/" in logical or "fuzz" in logical.rsplit("/", 1)[-1]:
            return True  # fault-injection judge: corruption is the subject
        return False

    def _check_function(
        self,
        node: FunctionNode,
        program: Program,
        may_raise: Mapping[str, frozenset[str]],
    ) -> Iterator[Finding]:
        edges = program.edges.get(node.qualname, [])
        for handler in node.facts["handlers"]:
            if handler["has_raise"] or handler["uses_exc"]:
                continue
            witness = self._witness(node, handler, edges, program, may_raise)
            if witness is None:
                continue
            caught = "/".join(handler["caught"]) or "bare except"
            yield self.finding(
                node,
                handler["line"],
                handler["col"],
                f"'except {caught}' absorbs {witness} without re-raise, "
                "use, or a sanctioned boundary (quarantine / CLI main); "
                "corruption must never be silently swallowed",
            )

    def _reaches_handler(self, record: Mapping, handler: Mapping) -> bool:
        # reaches this handler unless an *inner* covering handler
        # absorbs it first
        return (
            record["cover_line"] == handler["line"]
            or record["cover_reraises"]
        )

    def _witness(
        self,
        node: FunctionNode,
        handler: Mapping,
        edges: list,
        program: Program,
        may_raise: Mapping[str, frozenset[str]],
    ) -> str | None:
        for record in node.facts["raises"]:
            if record["line"] in handler["try_raises"] and self._reaches_handler(
                record, handler
            ):
                return f"{record['name']} raised at line {record['line']}"
        try_calls = set(handler["try_calls"])
        for record, callee in edges:
            if callee is None or record["i"] not in try_calls:
                continue
            raised = may_raise.get(callee, frozenset())
            if not raised or not self._reaches_handler(record, handler):
                continue
            exc = min(raised)
            chain = self._chain(program, callee, exc, may_raise)
            return f"{exc} reachable via {chain} (call at line {record['line']})"
        return None

    def _chain(
        self,
        program: Program,
        start: str,
        exc: str,
        may_raise: Mapping[str, frozenset[str]],
    ) -> str:
        """Shortest call chain from ``start`` to a direct raise of ``exc``."""
        queue: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        seen = {start}
        while queue:
            current, path = queue.pop(0)
            node = program.functions[current]
            for record in node.facts["raises"]:
                if record["name"] == exc and self._escapes(record):
                    return " -> ".join(_short(q) for q in path)
            for record, callee in program.callees_of(current):
                if (
                    callee not in seen
                    and self._escapes(record)
                    and exc in may_raise.get(callee, frozenset())
                ):
                    seen.add(callee)
                    queue.append((callee, path + (callee,)))
        return _short(start)


# -- RPL011 ------------------------------------------------------------------


class CooperativeRaceRule(DeepRule):
    """RPL011: cooperative-concurrency hazards inside VirtualLoop coroutines.

    Three hazard shapes, all scoped to ``async def`` functions (every
    coroutine in this repo runs on the deterministic ``VirtualLoop``):

    * a coroutine called but never awaited / scheduled — its body
      silently never runs;
    * a call that transitively reaches a blocking or wall-clock
      primitive (``time.sleep``, ``datetime.now``, ...) — it would
      stall or desynchronize virtual time (RPL002, whole-program);
    * a value read from shared gateway state before an ``await`` and
      reused after it without re-validation — another task may have
      mutated the state at the yield point.
    """

    rule_id = "RPL011"
    summary = "cooperative-concurrency hazard in a VirtualLoop coroutine"
    contract = "fully deterministic under a seed"

    def check(self, program: Program) -> Iterator[Finding]:
        """Find races at the yield points of VirtualLoop coroutines."""
        may_block = self._may_block(program)
        for node in program.sorted_functions():
            if not node.is_async:
                continue
            yield from self._unawaited(node, program)
            yield from self._blocking(node, program, may_block)
            for race in node.facts["race_findings"]:
                yield self.finding(
                    node, race["line"], race["col"], race["msg"]
                )

    def _may_block(self, program: Program) -> dict[str, bool]:
        def transfer(
            qualname: str, summaries: Mapping[str, bool]
        ) -> bool:
            node = program.functions[qualname]
            if node.facts["blocking"]:
                return True
            return any(
                summaries.get(callee, False)
                for _, callee in program.callees_of(qualname)
            )

        return fixpoint(
            sorted(program.functions),
            program.callers,
            lambda _: False,
            transfer,
        )

    def _unawaited(
        self, node: FunctionNode, program: Program
    ) -> Iterator[Finding]:
        for record, callee in program.callees_of(node.qualname):
            if (
                record["ctx"] == "stmt"
                and not record["consumed"]
                and program.functions[callee].is_async
            ):
                yield self.finding(
                    node,
                    record["line"],
                    record["col"],
                    f"coroutine '{_short(callee)}' is called but never "
                    "awaited or scheduled; its body will not run",
                )
        awaited = set(node.facts["awaited_names"])
        callees = program.assign_callees.get(node.qualname, [])
        for record, callee in zip(node.facts["assign_calls"], callees):
            if (
                callee is not None
                and program.functions[callee].is_async
                and record["name"] not in awaited
            ):
                yield self.finding(
                    node,
                    record["line"],
                    record["col"],
                    f"coroutine '{_short(callee)}' is assigned to "
                    f"'{record['name']}' but never awaited or scheduled",
                )

    def _blocking(
        self,
        node: FunctionNode,
        program: Program,
        may_block: Mapping[str, bool],
    ) -> Iterator[Finding]:
        for record, callee in program.callees_of(node.qualname):
            if not may_block.get(callee, False):
                continue
            chain = self._block_chain(program, callee)
            yield self.finding(
                node,
                record["line"],
                record["col"],
                f"call to '{_short(callee)}' can block or read the wall "
                f"clock ({chain}); VirtualLoop coroutines must use "
                "loop.sleep / the injected VirtualClock",
            )

    @staticmethod
    def _block_chain(program: Program, start: str) -> str:
        queue: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
        seen = {start}
        while queue:
            current, path = queue.pop(0)
            node = program.functions[current]
            if node.facts["blocking"]:
                what = node.facts["blocking"][0]["what"]
                return " -> ".join(_short(q) for q in path) + f" -> {what}"
            for _, callee in program.callees_of(current):
                if callee not in seen:
                    seen.add(callee)
                    queue.append((callee, path + (callee,)))
        return _short(start)


# -- RPL012 ------------------------------------------------------------------


class _TaintSummary(tuple):
    """(returns_local, returns_params, sink_params) — equality-compared."""

    __slots__ = ()

    def __new__(
        cls,
        returns_local: bool = False,
        returns_params: frozenset = frozenset(),
        sink_params: frozenset = frozenset(),
    ) -> "_TaintSummary":
        return super().__new__(
            cls, (returns_local, returns_params, sink_params)
        )

    @property
    def returns_local(self) -> bool:
        return self[0]

    @property
    def returns_params(self) -> frozenset:
        return self[1]

    @property
    def sink_params(self) -> frozenset:
        return self[2]


class NondeterminismTaintRule(DeepRule):
    """RPL012: unordered iteration must not feed CRCs or exporters.

    Forward taint over each function's ordered taint events, iterated
    to a fixpoint so taint crosses call boundaries in both directions:
    a function *returning* set-derived data taints its callers, and a
    function *passing a parameter* to a CRC taints the callers that
    fill that parameter.  ``sorted()`` / ``len()`` / ``min()`` / ...
    launder taint (their results are order-defined).
    """

    rule_id = "RPL012"
    summary = "unordered-container iteration flows into a CRC or exporter"
    contract = "deterministic byte streams (CRC-stable serialization)"

    def check(self, program: Program) -> Iterator[Finding]:
        """Find unordered-iteration taint reaching CRC/export sinks."""
        summaries = fixpoint(
            sorted(program.functions),
            program.callers,
            lambda _: _TaintSummary(),
            lambda q, s: self._interpret(program, q, s)[0],
        )
        for node in program.sorted_functions():
            _, findings = self._interpret(
                program, node.qualname, summaries
            )
            for line, col, message in findings:
                yield self.finding(node, line, col, message)

    # -- sinks ---------------------------------------------------------------

    @staticmethod
    def _is_export_sink(callee: str) -> bool:
        module, _, name = callee.rpartition(".")
        if not any(token in module for token in _SINK_MODULE_TOKENS):
            return False
        return name.startswith(_SINK_NAME_PREFIXES)

    # -- abstract interpretation ---------------------------------------------

    def _interpret(
        self,
        program: Program,
        qualname: str,
        summaries: Mapping[str, _TaintSummary],
    ) -> tuple[_TaintSummary, list[tuple[int, int, str]]]:
        node = program.functions[qualname]
        events = node.facts["taint_events"]
        callees = program.taint_callees.get(qualname, [])
        params = node.facts["params"]
        taint: dict[str, frozenset] = {
            name: frozenset({(_PARAM, index)})
            for index, name in enumerate(params)
        }
        returns_local = False
        returns_params: set[int] = set()
        sink_params: set[int] = set()
        findings: list[tuple[int, int, str]] = []

        def origins_of(info: Mapping, line: int) -> frozenset:
            out: set = set()
            if info.get("source"):
                out.add((_LOCAL, line))
            for dep in info.get("deps", ()):
                out |= taint.get(dep, frozenset())
            return frozenset(out)

        def method_offset(sym: object, callee: str) -> int:
            """1 for bound-method calls (params[0] is self/cls)."""
            if not (isinstance(sym, list) and sym and sym[0] == "attr"):
                return 0
            callee_params = program.functions[callee].facts["params"]
            return 1 if callee_params[:1] in (["self"], ["cls"]) else 0

        def receiver_names(sym: object) -> set[str]:
            out: set[str] = set()
            stack = [sym]
            while stack:
                current = stack.pop()
                if isinstance(current, list) and current:
                    if current[0] == "name":
                        out.add(current[1])
                    else:
                        stack.extend(
                            part for part in current[1:]
                            if isinstance(part, list)
                        )
            return out

        def call_result_origins(
            event: Mapping, callee: str, line: int
        ) -> frozenset:
            """Result taint of a *resolved* call: only what the callee's
            summary says it returns — a local source inside the callee,
            parameters it passes through, or receiver state."""
            summary = summaries.get(callee, _TaintSummary())
            out: set = set()
            if summary.returns_local:
                out.add((_LOCAL, line))
            offset = method_offset(event["call"], callee)
            if offset == 1 and 0 in summary.returns_params:
                for name in receiver_names(event["call"]):
                    out |= taint.get(name, frozenset())
            for arg in event.get("args", ()):
                if arg["pos"] + offset in summary.returns_params:
                    out |= origins_of(arg, line)
            return frozenset(out)

        def sink_hit(
            origins: frozenset, line: int, col: int, label: str
        ) -> None:
            locals_ = sorted(o[1] for o in origins if o[0] == _LOCAL)
            if locals_:
                findings.append(
                    (
                        line,
                        col,
                        "value derived from unordered-container iteration "
                        f"(line {locals_[0]}) flows into {label}; sort "
                        "before the sink to keep bytes CRC-stable",
                    )
                )
            sink_params.update(
                o[1] for o in origins if o[0] == _PARAM
            )

        for event, callee in zip(events, callees):
            kind = event["kind"]
            if kind == "assign":
                if event.get("call") is not None and callee is not None:
                    origins = call_result_origins(event, callee, event["line"])
                else:
                    origins = origins_of(event, event["line"])
                for target in event["targets"]:
                    taint[target] = origins
            elif kind == "return":
                if event.get("call") is not None and callee is not None:
                    origins = call_result_origins(event, callee, event["line"])
                else:
                    origins = origins_of(event, event["line"])
                returns_local = returns_local or any(
                    o[0] == _LOCAL for o in origins
                )
                returns_params.update(
                    o[1] for o in origins if o[0] == _PARAM
                )
            elif kind == "call":
                summary = (
                    summaries.get(callee, _TaintSummary())
                    if callee is not None
                    else _TaintSummary()
                )
                crc = event["crc"]
                export = callee is not None and self._is_export_sink(callee)
                if not (crc or export or summary.sink_params):
                    continue
                # bound-method call: positional args start at the
                # callee's second parameter (index 0 is self/cls)
                offset = 0
                if callee is not None and event["sym"][0] == "attr":
                    callee_params = program.functions[callee].facts["params"]
                    if callee_params and callee_params[0] in ("self", "cls"):
                        offset = 1
                label = (
                    "CRC computation"
                    if crc
                    else f"serialization sink '{_short(callee)}'"
                    if export
                    else f"'{_short(callee)}', which feeds a CRC/exporter"
                )
                for arg in event["args"]:
                    if not (crc or export) and (
                        arg["pos"] + offset not in summary.sink_params
                    ):
                        continue
                    origins = origins_of(arg, event["line"])
                    sink_hit(origins, event["line"], event["col"], label)

        return (
            _TaintSummary(
                returns_local,
                frozenset(returns_params),
                frozenset(sink_params),
            ),
            findings,
        )


# -- RPL013 ------------------------------------------------------------------


class HotPathAllocationRule(DeepRule):
    """RPL013 (advisory): per-query allocations on the decode hot path.

    Walks the call graph breadth-first from the decoder entries
    (``decode_distance`` / ``KernelDecoder.decode`` /
    ``DecodeEngine.run``) and reports every
    reachable function that builds dicts or sets, with its call depth.
    Severity ``info``: this is the prioritized work-list for the array
    kernel (ROADMAP item 1), not a failure.
    """

    rule_id = "RPL013"
    severity = "info"
    summary = "per-query dict/set allocation reachable from the decoder entry"
    contract = "decode-path performance (array kernel work-list)"

    #: (class name or None, function name) pairs that anchor the walk.
    ENTRY_POINTS = (
        (None, "decode_distance"),
        ("KernelDecoder", "decode"),
        ("DecodeEngine", "run"),
    )

    def check(self, program: Program) -> Iterator[Finding]:
        """Report per-query allocations reachable from the decoder."""
        depths = self._depths(program)
        for qualname in sorted(depths):
            node = program.functions[qualname]
            allocs = node.facts["allocs"]
            if not allocs:
                continue
            kinds: dict[str, int] = {}
            for alloc in allocs:
                kinds[alloc["kind"]] = kinds.get(alloc["kind"], 0) + 1
            detail = ", ".join(
                f"{count}x {kind}" for kind, count in sorted(kinds.items())
            )
            yield self.finding(
                node,
                node.line,
                node.facts["col"],
                f"'{_short(qualname)}' allocates {detail} at call depth "
                f"{depths[qualname]} from the decoder entry; array-kernel "
                "candidate",
            )

    def _depths(self, program: Program) -> dict[str, int]:
        entries = [
            node.qualname
            for node in program.sorted_functions()
            if (node.class_name, node.name) in self.ENTRY_POINTS
        ]
        depths = {qualname: 0 for qualname in entries}
        queue = list(entries)
        while queue:
            current = queue.pop(0)
            for _, callee in program.callees_of(current):
                if callee not in depths:
                    depths[callee] = depths[current] + 1
                    queue.append(callee)
        return depths


#: every deep rule, in rule-id order.
DEEP_RULES: tuple[type[DeepRule], ...] = (
    ExceptionFlowRule,
    CooperativeRaceRule,
    NondeterminismTaintRule,
    HotPathAllocationRule,
)


def deep_rule_catalogue() -> list[dict[str, str]]:
    """The deep-rule table (id, severity, summary, contract)."""
    return [
        {
            "id": rule_cls.rule_id,
            "severity": rule_cls.severity,
            "summary": rule_cls.summary,
            "contract": rule_cls.contract,
        }
        for rule_cls in DEEP_RULES
    ]
