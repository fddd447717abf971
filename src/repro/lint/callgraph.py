"""Project-wide call-graph construction for the ``--deep`` lint pass.

The whole-program rules (RPL010–013) need to see across function
boundaries: a corruption error raised three calls down, a blocking
call reachable from a coroutine, a set-ordered value flowing into a
CRC.  This module builds that view in two phases, and the split is
what makes re-runs incremental:

* **extraction** (:func:`extract_module_facts`) walks one file's AST
  and reduces it to a JSON-serializable *fact dict*: imports, classes,
  and per-function records (calls in symbolic form, raise sites,
  exception handlers, wall-clock sites, allocation sites, taint
  events, await structure).  Facts reference other code only
  *symbolically* — ``("attr", ("name", "self"), "service")`` — never
  by resolved target, so a fact dict depends on nothing but its own
  file's bytes and can be memoized under the file's hash
  (:class:`repro.lint.dataflow.FactCache`).
* **linking** (:func:`build_program`) joins the fact dicts into a
  :class:`Program`: symbols resolve through import tables, method
  calls resolve through class-local attribute types (annotation-driven
  — rule RPL008 is what makes this work: the public surface is
  annotated), and every call site gets an edge to its callee when one
  can be named.  Calls that cannot be resolved (stdlib, duck-typed)
  get no edge; the deep rules treat them as opaque, which keeps every
  analysis a *may*-analysis with no invented edges.

Symbolic expressions are nested lists (JSON-stable)::

    ("name", "x")                      x
    ("attr", BASE, "meth")             BASE.meth
    ("call", FUNC)                     FUNC(...)
    ("const", None) / ("other", None)  literals / anything else

Determinism: every mapping this module produces is keyed by qualified
name and every iteration over one is sorted, so two runs over the same
tree build byte-identical programs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.lint.engine import SourceFile

#: fact-schema version; bump to invalidate every cached fact dict.
FACTS_VERSION = 1

#: corruption exception class names whose flow RPL010 polices.
CORRUPTION_CLASSES = (
    "LabelCorruptionError",
    "StorageCorruptionError",
    "DatabaseTruncationError",
)

#: exception names that *cover* (catch) every corruption class above,
#: directly or through a base class / the DECODE_ERRORS tuple.
COVERING_CATCHES = frozenset(
    CORRUPTION_CLASSES
    + (
        "Exception",
        "BaseException",
        "ReproError",
        "EncodingError",
        "DurabilityError",
        "DECODE_ERRORS",
    )
)

#: calls that block or read the wall clock — forbidden transitively
#: inside VirtualLoop coroutines (RPL011).
BLOCKING_CALLS = frozenset(
    {
        ("time", "sleep"),
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "ctime"),
        ("time", "localtime"),
        ("time", "gmtime"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

#: constructors RPL013 reports as per-query allocations on the decode
#: hot path (dict/set machinery — the array kernel's replacement list).
ALLOC_CALLS = frozenset(
    {"dict", "set", "frozenset", "defaultdict", "OrderedDict", "Counter"}
)

#: callables that launder unordered-iteration taint (RPL012): their
#: result has a defined order / is order-insensitive.
TAINT_LAUNDERERS = frozenset(
    {"sorted", "len", "sum", "min", "max", "all", "any", "frozenset", "set"}
)

#: fully-qualified CRC sinks for RPL012.
CRC_SINKS = frozenset({"zlib.crc32", "binascii.crc32"})


def module_name_for(logical: str) -> str:
    """Dotted module name for a logical path.

    ``src/repro/gateway/gateway.py`` → ``repro.gateway.gateway``;
    ``tools/fuzz_labels.py`` → ``tools.fuzz_labels``; a package
    ``__init__.py`` names the package itself.
    """
    path = logical.replace("\\", "/")
    if path.startswith("src/"):
        path = path[len("src/"):]
    if path.endswith(".py"):
        path = path[: -len(".py")]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.strip("/").replace("/", ".")


def _sym(node: ast.AST) -> list:
    """The symbolic (JSON-stable) form of an expression."""
    if isinstance(node, ast.Name):
        return ["name", node.id]
    if isinstance(node, ast.Attribute):
        return ["attr", _sym(node.value), node.attr]
    if isinstance(node, ast.Call):
        return ["call", _sym(node.func)]
    if isinstance(node, ast.Constant):
        return ["const", None]
    if isinstance(node, ast.Await):
        return _sym(node.value)
    return ["other", None]


def _dotted(sym: Sequence) -> str | None:
    """``a.b.c`` for a pure name/attr chain, else None."""
    if sym[0] == "name":
        return sym[1]
    if sym[0] == "attr":
        base = _dotted(sym[1])
        return None if base is None else f"{base}.{sym[2]}"
    return None


def _anno_str(node: ast.AST | None) -> str | None:
    """Reduce an annotation to a dotted class name when possible.

    ``X | None`` and ``Optional[X]`` reduce to ``X``; quoted forward
    references are parsed and reduced; subscripted generics reduce to
    their base (``list[int]`` → ``list``), which the linker ignores
    unless it names a project class.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return _anno_str(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(_sym(node))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            reduced = _anno_str(side)
            if reduced not in (None, "None"):
                return reduced
        return None
    if isinstance(node, ast.Subscript):
        base = _anno_str(node.value)
        if base == "Optional":
            return _anno_str(node.slice)
        return base
    return None


# -- extraction --------------------------------------------------------------


class _FunctionExtractor(ast.NodeVisitor):
    """Collects one function's facts (calls, raises, handlers, ...)."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.calls: list[dict] = []
        self.raises: list[dict] = []
        self.blocking: list[dict] = []
        self.allocs: list[dict] = []
        self.handlers: list[dict] = []
        self.awaited_names: set[str] = set()
        self.task_names: set[str] = set()
        self.assign_calls: list[dict] = []
        self.local_syms: dict[str, list] = {}
        self.param_annos: dict[str, str] = {}
        self._try_stack: list[list[int]] = []
        self._covering_stack: list[dict] = []
        self._consumed: set[tuple[int, int]] = set()

    def run(self) -> None:
        """Walk the function body (nested defs are *not* descended)."""
        args = self.func.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            anno = _anno_str(arg.annotation)
            if anno is not None:
                self.param_annos[arg.arg] = anno
        for stmt in self.func.body:
            self.visit(stmt)

    # nested functions/classes are separate analysis units
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Try(self, node: ast.Try) -> None:
        call_sink: list[int] = []
        self._try_stack.append(call_sink)
        covering = [
            handler for handler in node.handlers
            if _covers_corruption(handler.type)
        ]
        records = []
        for handler in covering:
            has_raise = any(
                isinstance(sub, ast.Raise) for sub in ast.walk(handler)
            )
            uses = bool(handler.name) and any(
                isinstance(sub, ast.Name)
                and sub.id == handler.name
                and isinstance(sub.ctx, ast.Load)
                for sub in ast.walk(handler)
            )
            records.append(
                {
                    "line": handler.lineno,
                    "col": handler.col_offset + 1,
                    "caught": _caught_names(handler.type),
                    "has_raise": has_raise,
                    "uses_exc": uses,
                    "try_calls": call_sink,  # shared: filled by body visits
                    "try_raises": [],
                }
            )
        self.handlers.extend(records)
        if records:
            self._covering_stack.append(records[0])
        for stmt in node.body:
            self.visit(stmt)
        if records:
            self._covering_stack.pop()
        self._try_stack.pop()
        for stmt in node.orelse + node.finalbody:
            self.visit(stmt)
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)

    def visit_Raise(self, node: ast.Raise) -> None:
        name = None
        exc = node.exc
        if isinstance(exc, ast.Call):
            name = _dotted(_sym(exc.func))
        elif exc is not None:
            name = _dotted(_sym(exc))
        terminal = (name or "").rsplit(".", 1)[-1]
        if terminal in CORRUPTION_CLASSES:
            covering = self._covering_stack[-1] if self._covering_stack else None
            record = {
                "line": node.lineno,
                "col": node.col_offset + 1,
                "name": terminal,
                "covered": covering is not None,
                "cover_reraises": (
                    covering["has_raise"] if covering is not None else False
                ),
                "cover_line": (
                    covering["line"] if covering is not None else None
                ),
            }
            self.raises.append(record)
            for handler in self._covering_stack:
                handler["try_raises"].append(node.lineno)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assign(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            anno = _anno_str(node.annotation)
            if anno is not None:
                self.param_annos.setdefault(node.target.id, anno)
            if node.value is not None:
                self._record_assign([node.target], node.value)
        self.generic_visit(node)

    def _record_assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            self.local_syms[targets[0].id] = _sym(value)
            if isinstance(value, ast.Call):
                self.assign_calls.append(
                    {
                        "name": targets[0].id,
                        "line": value.lineno,
                        "col": value.col_offset + 1,
                        "sym": _sym(value.func),
                    }
                )

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Name):
            self.awaited_names.add(node.value.id)
        elif isinstance(node.value, ast.Call):
            self._record_call(node.value, ctx="await")
            self.generic_visit(node.value)
            return
        self.generic_visit(node)

    def visit_Expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Call):
            self._record_call(node.value, ctx="stmt")
            self.generic_visit(node.value)
            return
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if isinstance(node.value, ast.Call):
            self._record_call(node.value, ctx="return")
            self.generic_visit(node.value)
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._record_call(node, ctx="other")
        self.generic_visit(node)

    def _record_call(self, node: ast.Call, ctx: str) -> None:
        sym = _sym(node.func)
        dotted = _dotted(sym)
        terminal = (dotted or "").rsplit(".", 1)[-1]
        if dotted is not None:
            parts = dotted.split(".")
            if (
                len(parts) >= 2
                and (parts[-2], parts[-1]) in BLOCKING_CALLS
            ):
                self.blocking.append(
                    {
                        "line": node.lineno,
                        "col": node.col_offset + 1,
                        "what": f"{parts[-2]}.{parts[-1]}",
                    }
                )
        if terminal in ALLOC_CALLS and (
            dotted == terminal or dotted == f"collections.{terminal}"
        ):
            # bare constructors only: a method call spelled ``x.set(...)``
            # or ``span.add(...)`` does not allocate a container
            self.allocs.append(
                {
                    "line": node.lineno,
                    "col": node.col_offset + 1,
                    "kind": f"{terminal}()",
                }
            )
        if terminal in ("create_task", "run_until_complete", "Task"):
            # coroutines handed to the scheduler are consumed, not lost
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    self.task_names.add(arg.id)
                elif isinstance(arg, ast.Call):
                    self._consumed.add((arg.lineno, arg.col_offset + 1))
        index = len(self.calls)
        covering = self._covering_stack[-1] if self._covering_stack else None
        record = {
            "i": index,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "sym": sym,
            "ctx": ctx,
            "consumed": (node.lineno, node.col_offset + 1) in self._consumed,
            "covered": covering is not None,
            "cover_reraises": (
                covering["has_raise"] if covering is not None else False
            ),
            "cover_line": covering["line"] if covering is not None else None,
        }
        self.calls.append(record)
        for sink in self._try_stack:
            sink.append(index)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._alloc(node, "dict literal")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._alloc(node, "set literal")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._alloc(node, "set comprehension")
        self.generic_visit(node)

    def _alloc(self, node: ast.AST, kind: str) -> None:
        self.allocs.append(
            {"line": node.lineno, "col": node.col_offset + 1, "kind": kind}
        )


def _caught_names(type_node: ast.AST | None) -> list[str]:
    if type_node is None:
        return [""]
    nodes = (
        list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
    )
    names = []
    for node in nodes:
        dotted = _dotted(_sym(node))
        if dotted is not None:
            names.append(dotted.rsplit(".", 1)[-1])
    return names


def _covers_corruption(type_node: ast.AST | None) -> bool:
    if type_node is None:
        return True  # bare except
    return any(name in COVERING_CATCHES for name in _caught_names(type_node))


def _self_attr_types(init: ast.FunctionDef | ast.AsyncFunctionDef) -> dict:
    """``self.x = <expr>`` types visible from ``__init__``.

    An attribute assigned from a parameter inherits the parameter's
    annotation; one assigned from a constructor call gets that class.
    """
    annos: dict[str, str] = {}
    for arg in init.args.args + init.args.kwonlyargs:
        anno = _anno_str(arg.annotation)
        if anno is not None:
            annos[arg.arg] = anno
    out: dict[str, Any] = {}
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            continue
        value = node.value
        if isinstance(value, ast.Name) and value.id in annos:
            out[target.attr] = annos[value.id]
        elif isinstance(value, ast.Call):
            dotted = _dotted(_sym(value.func))
            if dotted is not None:
                out[target.attr] = dotted
    return out


def extract_module_facts(source: SourceFile) -> dict:
    """One file reduced to its JSON-serializable fact dict."""
    module = module_name_for(source.logical)
    imports: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".", 1)[0]] = (
                    alias.name if alias.asname else alias.name.split(".", 1)[0]
                )
                if alias.asname:
                    imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")
                parts = parts[: len(parts) - node.level]
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{base}.{alias.name}"

    functions: dict[str, dict] = {}
    classes: dict[str, dict] = {}

    def add_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef, class_name: str | None
    ) -> None:
        extractor = _FunctionExtractor(node)
        extractor.run()
        local_qual = f"{class_name}.{node.name}" if class_name else node.name
        args = node.args
        params = [
            arg.arg
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        ]
        functions[local_qual] = {
            "name": node.name,
            "class": class_name,
            "line": node.lineno,
            "col": node.col_offset + 1,
            "is_async": isinstance(node, ast.AsyncFunctionDef),
            "params": params,
            "param_annos": extractor.param_annos,
            "return_anno": _anno_str(node.returns),
            "calls": extractor.calls,
            "raises": extractor.raises,
            "blocking": extractor.blocking,
            "allocs": extractor.allocs,
            "handlers": extractor.handlers,
            "awaited_names": sorted(
                extractor.awaited_names | extractor.task_names
            ),
            "assign_calls": extractor.assign_calls,
            "local_syms": extractor.local_syms,
            "race_findings": _scan_await_races(node),
            "taint_events": _extract_taint_events(node, imports),
        }

    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(node, None)
        elif isinstance(node, ast.ClassDef):
            bases = []
            for base in node.bases:
                dotted = _dotted(_sym(base))
                if dotted is not None:
                    bases.append(dotted)
            attrs: dict[str, str] = {}
            methods = []
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(sub, node.name)
                    methods.append(sub.name)
                    if sub.name == "__init__":
                        attrs.update(_self_attr_types(sub))
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    anno = _anno_str(sub.annotation)
                    if anno is not None:
                        attrs[sub.target.id] = anno
            classes[node.name] = {
                "bases": bases,
                "attrs": attrs,
                "methods": methods,
            }

    return {
        "version": FACTS_VERSION,
        "module": module,
        "logical": source.logical,
        "path": source.path,
        "imports": imports,
        "functions": functions,
        "classes": classes,
    }


# -- RPL011c: shared state cached across an await (purely local) -------------

#: ``self.<attr>`` names treated as task-shared mutable gateway state:
#: in-flight coalescing map, waiting room, token buckets, worker list,
#: cache entries, shard health/records, and MVCC version pins.  A local
#: bound from one of these *before* an ``await`` is stale *after* it.
SHARED_STATE_ATTRS = frozenset(
    {
        "_inflight",
        "_room",
        "_buckets",
        "_workers",
        "_entries",
        "_waiters",
        "_ready",
        "cache",
        "_health",
        "_generations",
        "_gen_tables",
        "committed_version",
        "_pinned",
    }
)


#: calls whose result is a fresh copy — reading shared state through
#: them is the sanctioned snapshot idiom, not a racy cached read.
_SNAPSHOT_CALLS = frozenset({"tuple", "list", "sorted", "dict", "set", "frozenset"})


def _reads_shared_attr(node: ast.AST) -> str | None:
    """The shared-state attribute an expression reads, if any."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in ("self", "cls")
            and sub.attr in SHARED_STATE_ATTRS
        ):
            return sub.attr
    return None


def _is_snapshot(node: ast.AST) -> bool:
    """``tuple(self._workers)``-style defensive copy of shared state."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SNAPSHOT_CALLS
    )


class _AwaitScan:
    """Linear abstract scan of an ``async def`` body for stale reads.

    Tracks, per local name, the *await epoch* at which it was bound
    and whether its value derives from shared gateway state; a load at
    a later epoch is a stale read.  Branches that cannot fall through
    (return/raise/continue/break) do not advance the epoch at the join
    point, so re-check loops stay clean.
    """

    def __init__(self) -> None:
        self.findings: list[dict] = []
        self._seen: set[tuple[int, str]] = set()

    def scan_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[dict]:
        self._scan_block(node.body, {}, 0)
        return sorted(
            self.findings, key=lambda f: (f["line"], f["col"], f["msg"])
        )

    def _emit(self, line: int, col: int, msg: str, key: str) -> None:
        if (line, key) in self._seen:
            return
        self._seen.add((line, key))
        self.findings.append({"line": line, "col": col, "msg": msg})

    def _scan_block(
        self, stmts: list[ast.stmt], env: dict[str, tuple[int, str]], epoch: int
    ) -> tuple[int, bool]:
        """Returns (epoch at fall-through, terminated?)."""
        for stmt in stmts:
            epoch, terminated = self._scan_stmt(stmt, env, epoch)
            if terminated:
                return epoch, True
        return epoch, False

    def _scan_stmt(
        self, stmt: ast.stmt, env: dict[str, tuple[int, str]], epoch: int
    ) -> tuple[int, bool]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return epoch, False
        if isinstance(stmt, (ast.Return, ast.Raise)):
            if getattr(stmt, "value", None) is not None:
                epoch = self._scan_expr(stmt.value, env, epoch)
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                epoch = self._scan_expr(stmt.exc, env, epoch)
            return epoch, True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return epoch, True
        if isinstance(stmt, ast.If):
            epoch = self._scan_expr(stmt.test, env, epoch)
            then_env = dict(env)
            then_epoch, then_term = self._scan_block(stmt.body, then_env, epoch)
            else_env = dict(env)
            else_epoch, else_term = self._scan_block(
                stmt.orelse, else_env, epoch
            )
            exits = []
            if not then_term:
                exits.append((then_epoch, then_env))
            if not else_term:
                exits.append((else_epoch, else_env))
            if not exits:
                return epoch, True
            merged = max(e for e, _ in exits)
            for name in set(env) | set(exits[0][1]) | (
                set(exits[-1][1]) if len(exits) > 1 else set()
            ):
                entries = [b[name] for _, b in exits if name in b]
                if entries:
                    env[name] = max(entries)
                else:
                    env.pop(name, None)
            return merged, False
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._scan_loop(stmt, env, epoch)
        if isinstance(stmt, ast.Try):
            exit_epoch = epoch
            body_env = dict(env)
            body_epoch, _ = self._scan_block(stmt.body, body_env, epoch)
            exit_epoch = max(exit_epoch, body_epoch)
            for handler in stmt.handlers:
                h_env = dict(env)
                h_epoch, _ = self._scan_block(handler.body, h_env, body_epoch)
                exit_epoch = max(exit_epoch, h_epoch)
            f_epoch, f_term = self._scan_block(
                stmt.finalbody, env, exit_epoch
            )
            env.update(body_env)
            return max(exit_epoch, f_epoch), f_term
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                epoch = self._scan_expr(item.context_expr, env, epoch)
            return self._scan_block(stmt.body, env, epoch)
        if isinstance(stmt, ast.Assign):
            epoch = self._scan_expr(stmt.value, env, epoch)
            derived = self._derivation(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, env, epoch, derived)
            return epoch, False
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            epoch = self._scan_expr(stmt.value, env, epoch)
            derived = self._derivation(stmt.value, env)
            self._bind_target(stmt.target, env, epoch, derived)
            return epoch, False
        if isinstance(stmt, ast.AugAssign):
            epoch = self._scan_expr(stmt.value, env, epoch)
            return epoch, False
        if isinstance(stmt, ast.Expr):
            return self._scan_expr(stmt.value, env, epoch), False
        # default: scan nested expressions conservatively
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                epoch = self._scan_expr(child, env, epoch)
        return epoch, False

    def _scan_loop(
        self,
        stmt: ast.While | ast.For | ast.AsyncFor,
        env: dict[str, tuple[int, str]],
        epoch: int,
    ) -> tuple[int, bool]:
        body_has_await = any(
            isinstance(sub, ast.Await) for sub in ast.walk(stmt)
        )
        target = None
        derived = None
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            shared = _reads_shared_attr(stmt.iter) if isinstance(
                stmt.iter, (ast.Attribute, ast.Subscript)
            ) else None
            if shared is not None and body_has_await:
                self._emit(
                    stmt.iter.lineno,
                    stmt.iter.col_offset + 1,
                    f"iteration over shared 'self.{shared}' spans an await; "
                    "snapshot it (tuple(...)) before the loop or re-validate "
                    "after each await",
                    f"iter:{shared}",
                )
                # reported at the iterator; per-element findings for the
                # same loop would just repeat it
                shared = None
            epoch = self._scan_expr(stmt.iter, env, epoch)
            target = stmt.target
            derived = shared if shared is not None else (
                self._derivation(stmt.iter, env)
                if not isinstance(stmt.iter, (ast.Attribute, ast.Subscript))
                else None
            )
        else:
            epoch = self._scan_expr(stmt.test, env, epoch)
        # two passes over the body approximate loop-carried staleness;
        # the loop target rebinds at the top of every iteration
        for _ in range(2):
            body_env = dict(env)
            if target is not None:
                self._bind_target(target, body_env, epoch, derived)
            body_epoch, _ = self._scan_block(stmt.body, body_env, epoch)
            env.update(body_env)
            epoch = max(epoch, body_epoch)
        self._scan_block(stmt.orelse, env, epoch)
        return epoch, False

    def _bind_target(
        self,
        target: ast.expr,
        env: dict[str, tuple[int, str]],
        epoch: int,
        derived: str | None,
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = (epoch, derived or "")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, env, epoch, derived)

    def _derivation(
        self, node: ast.AST, env: dict[str, tuple[int, str]]
    ) -> str | None:
        """The shared attribute a value derives from, if any.

        Snapshot copies (``tuple(self._workers)``) launder the
        derivation — that is the sanctioned fix for a racy read.
        """
        if _is_snapshot(node):
            return None
        shared = _reads_shared_attr(node)
        if shared is not None:
            return shared
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                bound = env.get(sub.id)
                if bound and bound[1]:
                    return bound[1]
        return None

    def _scan_expr(
        self, node: ast.expr, env: dict[str, tuple[int, str]], epoch: int
    ) -> int:
        awaits = [
            sub for sub in ast.walk(node) if isinstance(sub, ast.Await)
        ]
        for sub in ast.walk(node):
            if not (
                isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            ):
                continue
            bound = env.get(sub.id)
            if bound is None or not bound[1]:
                continue
            bind_epoch, shared = bound
            if bind_epoch < epoch:
                self._emit(
                    sub.lineno,
                    sub.col_offset + 1,
                    f"'{sub.id}' was read from shared 'self.{shared}' before "
                    "an await and is used after it without re-validation; "
                    "re-read the shared state after the await",
                    f"stale:{sub.id}",
                )
        return epoch + len(awaits)


def _scan_await_races(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[dict]:
    if not isinstance(node, ast.AsyncFunctionDef):
        return []
    return _AwaitScan().scan_function(node)


# -- RPL012 taint events (symbolic, resolved by the linker) ------------------


def _extract_taint_events(
    node: ast.FunctionDef | ast.AsyncFunctionDef, imports: Mapping[str, str]
) -> list[dict]:
    """Ordered taint events: sources, propagating assigns, sink calls.

    Events reference locals by name and calls symbolically; the deep
    pass interprets them with callee summaries plugged in
    (:class:`repro.lint.deep_rules.NondeterminismTaintRule`).
    """
    events: list[dict] = []

    def expr_info(expr: ast.expr, with_args: bool = True) -> dict:
        """deps (names read), source (set iteration), call + per-arg info.

        When the expression is exactly a (non-laundering) call, its
        arguments are described individually so the deep pass can
        propagate taint through the *callee's summary* instead of
        blanket-tainting the result with every name in the expression.
        """
        deps: list[str] = []
        source = False
        call_sym = None
        args = None
        if isinstance(expr, ast.Call):
            dotted = _dotted(_sym(expr.func)) or ""
            terminal = dotted.rsplit(".", 1)[-1]
            if terminal in TAINT_LAUNDERERS:
                return {"deps": [], "source": False, "call": None}
            call_sym = _sym(expr.func)
            if with_args:
                args = [
                    {"pos": position, **expr_info(arg, with_args=False)}
                    for position, arg in enumerate(expr.args)
                ]
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                deps.append(sub.id)
            elif isinstance(sub, (ast.Set, ast.SetComp)):
                source = True
            elif isinstance(sub, ast.Call):
                inner = _dotted(_sym(sub.func)) or ""
                inner_terminal = inner.rsplit(".", 1)[-1]
                if inner_terminal in ("set", "frozenset") and sub is not expr:
                    source = True
        info = {"deps": sorted(set(deps)), "source": source, "call": call_sym}
        if args is not None:
            info["args"] = args
        return info

    class Walker(ast.NodeVisitor):
        def visit_FunctionDef(self, sub: ast.FunctionDef) -> None:
            pass

        def visit_AsyncFunctionDef(self, sub: ast.AsyncFunctionDef) -> None:
            pass

        def visit_Assign(self, sub: ast.Assign) -> None:
            info = expr_info(sub.value)
            targets = [
                t.id for t in sub.targets if isinstance(t, ast.Name)
            ]
            for target in sub.targets:
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets.extend(
                        e.id for e in target.elts if isinstance(e, ast.Name)
                    )
            if targets:
                events.append(
                    {
                        "kind": "assign",
                        "targets": sorted(targets),
                        "line": sub.lineno,
                        **info,
                    }
                )
            self.generic_visit(sub)

        def visit_For(self, sub: ast.For) -> None:
            info = expr_info(sub.iter)
            targets = []
            if isinstance(sub.target, ast.Name):
                targets = [sub.target.id]
            elif isinstance(sub.target, (ast.Tuple, ast.List)):
                targets = [
                    e.id for e in sub.target.elts if isinstance(e, ast.Name)
                ]
            if targets:
                events.append(
                    {
                        "kind": "assign",
                        "targets": sorted(targets),
                        "line": sub.lineno,
                        **info,
                    }
                )
            self.generic_visit(sub)

        def visit_Return(self, sub: ast.Return) -> None:
            if sub.value is not None:
                info = expr_info(sub.value)
                events.append(
                    {"kind": "return", "line": sub.lineno, **info}
                )
            self.generic_visit(sub)

        def visit_Call(self, sub: ast.Call) -> None:
            dotted = _dotted(_sym(sub.func))
            resolved = None
            if dotted is not None:
                head = dotted.split(".", 1)[0]
                target = imports.get(head)
                if target is not None and "." in dotted:
                    resolved = f"{target}.{dotted.split('.', 1)[1]}"
                else:
                    resolved = imports.get(dotted, dotted)
            args = []
            for position, arg in enumerate(sub.args):
                args.append({"pos": position, **expr_info(arg)})
            events.append(
                {
                    "kind": "call",
                    "line": sub.lineno,
                    "col": sub.col_offset + 1,
                    "sym": _sym(sub.func),
                    "crc": resolved in CRC_SINKS,
                    "args": args,
                }
            )
            self.generic_visit(sub)

    walker = Walker()
    for stmt in node.body:
        walker.visit(stmt)
    return events


# -- linking -----------------------------------------------------------------


@dataclass
class FunctionNode:
    """One function in the linked program."""

    qualname: str
    module: str
    facts: dict
    path: str
    logical: str

    @property
    def name(self) -> str:
        """Bare function name (no module or class prefix)."""
        return self.facts["name"]

    @property
    def class_name(self) -> str | None:
        """Enclosing class name, or None for module-level functions."""
        return self.facts["class"]

    @property
    def is_async(self) -> bool:
        """True for ``async def`` (a VirtualLoop coroutine)."""
        return self.facts["is_async"]

    @property
    def line(self) -> int:
        """1-indexed line of the ``def`` statement."""
        return self.facts["line"]


@dataclass
class Program:
    """The linked whole-program view the deep rules analyze."""

    modules: dict[str, dict] = field(default_factory=dict)
    functions: dict[str, FunctionNode] = field(default_factory=dict)
    #: caller qualname -> [(call record, callee qualname | None), ...]
    edges: dict[str, list[tuple[dict, str | None]]] = field(
        default_factory=dict
    )
    #: callee qualname -> sorted caller qualnames
    callers: dict[str, list[str]] = field(default_factory=dict)
    #: caller qualname -> resolved callee (or None) per taint event,
    #: aligned with the function's ``taint_events`` list.  Kept out of
    #: the fact dicts: resolution depends on *other* files, so it must
    #: never be memoized under a single file's hash.
    taint_callees: dict[str, list[str | None]] = field(default_factory=dict)
    #: caller qualname -> resolved callee (or None) per ``assign_calls``
    #: record (same cross-file caveat as above).
    assign_callees: dict[str, list[str | None]] = field(default_factory=dict)

    def sorted_functions(self) -> list[FunctionNode]:
        """Every function, in deterministic qualname order."""
        return [self.functions[q] for q in sorted(self.functions)]

    def callees_of(self, qualname: str) -> Iterator[tuple[dict, str]]:
        """Resolved call edges out of one function."""
        for record, callee in self.edges.get(qualname, ()):
            if callee is not None:
                yield record, callee


class _Linker:
    """Joins module facts into a :class:`Program` (symbol resolution)."""

    def __init__(self, facts: Sequence[dict]) -> None:
        self.by_module = {f["module"]: f for f in facts}
        self.classes: dict[str, dict] = {}
        self.class_module: dict[str, str] = {}
        for module, mfacts in sorted(self.by_module.items()):
            for cls, cfacts in mfacts["classes"].items():
                self.classes[f"{module}.{cls}"] = cfacts
                self.class_module[f"{module}.{cls}"] = module

    def link(self) -> Program:
        program = Program()
        program.modules = self.by_module
        for module, mfacts in sorted(self.by_module.items()):
            for local_qual, ffacts in sorted(mfacts["functions"].items()):
                qualname = f"{module}.{local_qual}"
                program.functions[qualname] = FunctionNode(
                    qualname=qualname,
                    module=module,
                    facts=ffacts,
                    path=mfacts["path"],
                    logical=mfacts["logical"],
                )
        for qualname in sorted(program.functions):
            node = program.functions[qualname]
            edges: list[tuple[dict, str | None]] = []
            for record in node.facts["calls"]:
                callee = self.resolve_call(record["sym"], node)
                edges.append((record, callee))
                if callee is not None:
                    program.callers.setdefault(callee, [])
                    if qualname not in program.callers[callee]:
                        program.callers[callee].append(qualname)
            program.edges[qualname] = edges
            program.taint_callees[qualname] = [
                self.resolve_call(event["sym"], node)
                if event["kind"] == "call" else (
                    self.resolve_call(event["call"], node)
                    if event.get("call") is not None else None
                )
                for event in node.facts["taint_events"]
            ]
            program.assign_callees[qualname] = [
                self.resolve_call(record["sym"], node)
                for record in node.facts["assign_calls"]
            ]
        for callee in program.callers:
            program.callers[callee] = sorted(program.callers[callee])
        return program

    # -- symbol resolution ---------------------------------------------------

    def resolve_symbol(self, name: str, module: str) -> str | None:
        """Module-scope name -> project qualname (module/class/function)."""
        mfacts = self.by_module.get(module)
        if mfacts is None:
            return None
        if name in mfacts["classes"]:
            return f"{module}.{name}"
        if name in mfacts["functions"]:
            return f"{module}.{name}"
        target = mfacts["imports"].get(name)
        if target is None:
            return None
        return target

    def _class_mro(self, class_qual: str) -> list[str]:
        out: list[str] = []
        stack = [class_qual]
        while stack:
            current = stack.pop(0)
            if current in out or current not in self.classes:
                continue
            out.append(current)
            module = self.class_module[current]
            for base in self.classes[current]["bases"]:
                resolved = self._resolve_dotted(base, module)
                if resolved is not None and resolved in self.classes:
                    stack.append(resolved)
        return out

    def _resolve_dotted(self, dotted: str, module: str) -> str | None:
        head, _, rest = dotted.partition(".")
        resolved = self.resolve_symbol(head, module)
        if resolved is None:
            # maybe it is already a full module path (import repro.x.y)
            resolved = head if head in self.by_module else None
        if resolved is None:
            return None
        return f"{resolved}.{rest}" if rest else resolved

    def method_in(self, class_qual: str, meth: str) -> str | None:
        for current in self._class_mro(class_qual):
            if meth in self.classes[current]["methods"]:
                module = self.class_module[current]
                cls = current.rsplit(".", 1)[-1]
                return f"{module}.{cls}.{meth}"
        return None

    def class_attr_type(self, class_qual: str, attr: str) -> str | None:
        for current in self._class_mro(class_qual):
            anno = self.classes[current]["attrs"].get(attr)
            if anno is not None:
                return self._resolve_class(anno, self.class_module[current])
        return None

    def _resolve_class(self, dotted: str, module: str) -> str | None:
        resolved = self._resolve_dotted(dotted, module)
        if resolved is not None and resolved in self.classes:
            return resolved
        return None

    # -- type inference ------------------------------------------------------

    def infer_type(
        self, sym: Sequence, node: FunctionNode, depth: int = 0,
        seen: frozenset = frozenset(),
    ) -> str | None:
        """Class qualname of an expression, or None when unknown."""
        if depth > 8:
            return None
        kind = sym[0]
        module = node.module
        if kind == "name":
            name = sym[1]
            if name in ("self", "cls") and node.class_name is not None:
                return self._resolve_class(node.class_name, module)
            anno = node.facts["param_annos"].get(name)
            if anno is not None:
                return self._resolve_class(anno, module)
            if name in seen:
                return None
            local = node.facts["local_syms"].get(name)
            if local is not None:
                return self.infer_type(
                    local, node, depth + 1, seen | {name}
                )
            resolved = self.resolve_symbol(name, module)
            if resolved is not None and resolved in self.classes:
                return resolved
            return None
        if kind == "attr":
            base_type = self.infer_type(sym[1], node, depth + 1, seen)
            if base_type is not None:
                return self.class_attr_type(base_type, sym[2])
            return None
        if kind == "call":
            callee = self.resolve_call(
                sym[1], node, as_constructor=True, depth=depth + 1
            )
            if callee is None:
                return None
            if callee in self.classes:
                return callee
            target = self._function_facts(callee)
            if target is None:
                return None
            ffacts, target_module = target
            anno = ffacts["return_anno"]
            if anno is None:
                return None
            return self._resolve_class(anno, target_module)
        return None

    def _function_facts(self, qualname: str) -> tuple[dict, str] | None:
        for cut in range(qualname.count(".") + 1):
            parts = qualname.rsplit(".", cut) if cut else [qualname]
            module = parts[0]
            if module in self.by_module:
                local = ".".join(parts[1:])
                ffacts = self.by_module[module]["functions"].get(local)
                if ffacts is not None:
                    return ffacts, module
        return None

    # -- call resolution -----------------------------------------------------

    def resolve_call(
        self,
        sym: Sequence,
        node: FunctionNode,
        as_constructor: bool = False,
        depth: int = 0,
    ) -> str | None:
        """Call expression -> callee function qualname (or class for
        ``as_constructor``), or None when the target is not project code."""
        if depth > 8:
            return None
        kind = sym[0]
        module = node.module
        if kind == "name":
            name = sym[1]
            resolved = self.resolve_symbol(name, module)
            if resolved is None:
                return None
            if resolved in self.classes:
                if as_constructor:
                    return resolved
                return self.method_in(resolved, "__init__")
            if self._function_facts(resolved) is not None:
                return resolved
            return None
        if kind == "attr":
            base, meth = sym[1], sym[2]
            base_dotted = _dotted(base)
            if base_dotted is not None:
                resolved_base = self._resolve_dotted(base_dotted, module)
                if resolved_base is not None:
                    if resolved_base in self.by_module:
                        candidate = f"{resolved_base}.{meth}"
                        if self._function_facts(candidate) is not None:
                            return candidate
                        if candidate in self.classes:
                            return (
                                candidate if as_constructor
                                else self.method_in(candidate, "__init__")
                            )
                    if resolved_base in self.classes:
                        return self.method_in(resolved_base, meth)
            base_type = self.infer_type(base, node, depth + 1)
            if base_type is not None:
                return self.method_in(base_type, meth)
            return None
        return None


def build_program(
    sources: Sequence[SourceFile], cache: "Any | None" = None
) -> Program:
    """Extract (with optional :class:`FactCache`) and link ``sources``."""
    facts = []
    for source in sorted(sources, key=lambda s: s.logical):
        cached = None
        if cache is not None:
            cached = cache.get(source.text)
        if cached is None or cached.get("version") != FACTS_VERSION:
            cached = extract_module_facts(source)
            if cache is not None:
                cache.put(source.text, cached)
        facts.append(cached)
    return _Linker(facts).link()
