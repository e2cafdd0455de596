"""RL004 — pickle-safety of process-pool / pipe payloads.

:class:`repro.parallel.procpool.ProcPool` ships every task down a
``multiprocessing`` pipe; anything unpicklable dies at ``send`` time —
but only on the *spawn* start method (fork shares the parent image and
masks the bug until the CI spawn matrix or a macOS user hits it).  The
classic offenders are closures and capability objects: lambdas, thread
locks, mmap handles, open files.

The rule inspects dispatch call sites — ``<...pool...>.run(...)``,
``<...conn/pipe...>.send(...)``, and the ``_tasks(...)`` builders —
and flags any argument whose expression tree (including one level of
local-variable indirection within the enclosing function) contains a
lambda, an ``open(...)`` call, or a ``threading``/``multiprocessing``
lock/event/mmap constructor.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import (
    Checker,
    ScopeVisitor,
    dotted,
    import_aliases,
    resolve_dotted,
)

__all__ = ["IpcSafetyChecker"]

RULE = "RL004"

UNPICKLABLE_CONSTRUCTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Event", "threading.Barrier",
    "multiprocessing.Lock", "multiprocessing.RLock",
    "multiprocessing.Condition", "multiprocessing.Event",
    "mmap.mmap",
})


def _is_dispatch(func: ast.Attribute) -> bool:
    receiver = (dotted(func.value) or "").lower()
    if func.attr == "run" and "pool" in receiver:
        return True
    if func.attr == "send" and ("conn" in receiver or "pipe" in receiver):
        return True
    return func.attr == "_tasks" and receiver != ""


class _Visitor(ScopeVisitor):

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self._modules: dict[str, str] = {}
        self._names: dict[str, str] = {}

    def visit_Module(self, node: ast.Module) -> None:
        self._modules, self._names = import_aliases(node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and _is_dispatch(func):
            bindings = self._local_bindings()
            seen: set[str] = set()
            for arg in self._argument_exprs(node):
                self._scan(arg, func, bindings, seen, depth=0)
        self.generic_visit(node)

    @staticmethod
    def _argument_exprs(node: ast.Call):
        for arg in node.args:
            yield arg.value if isinstance(arg, ast.Starred) else arg
        for kw in node.keywords:
            yield kw.value

    def _local_bindings(self) -> dict[str, ast.AST]:
        """name -> bound expression for simple assignments in the
        enclosing function (one level of indirection; last write
        wins)."""
        bindings: dict[str, ast.AST] = {}
        if not self.func_stack:
            return bindings
        for stmt in ast.walk(self.func_stack[-1]):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = stmt.value
        return bindings

    def _scan(self, expr: ast.AST, dispatch: ast.Attribute,
              bindings: dict[str, ast.AST], seen: set[str],
              depth: int) -> None:
        where = "%s.%s(...)" % (dotted(dispatch.value) or "<expr>",
                                dispatch.attr)
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Lambda):
                self.report(
                    sub, RULE,
                    "lambda in a payload handed to %s; lambdas do not "
                    "pickle — ship data, not closures" % where)
            elif isinstance(sub, ast.Call):
                path = resolve_dotted(dotted(sub.func), self._modules,
                                      self._names)
                if isinstance(sub.func, ast.Name) and sub.func.id == "open":
                    path = "open"
                if path == "open":
                    self.report(
                        sub, RULE,
                        "open file handle in a payload handed to %s; "
                        "pass the path and reopen in the worker"
                        % where)
                elif path in UNPICKLABLE_CONSTRUCTORS:
                    self.report(
                        sub, RULE,
                        "%s object in a payload handed to %s; "
                        "locks/mmaps do not cross process boundaries"
                        % (path, where))
            elif (isinstance(sub, ast.Name) and depth == 0
                    and sub.id in bindings and sub.id not in seen):
                seen.add(sub.id)
                self._scan(bindings[sub.id], dispatch, bindings, seen,
                           depth=1)


class IpcSafetyChecker(Checker):
    rule_id = RULE
    title = "process-pool payload pickle-safety"
    visitor_class = _Visitor
