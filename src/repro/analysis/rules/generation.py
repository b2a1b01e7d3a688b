"""RL002 generation-protocol: snapshot, revalidate, stamp your keys.

Every cache in the engine is invalidated by a monotone **generation
counter** (TBox axioms, ABox/database inserts, constraint discovery).
The protocol, as practiced by ``perf.cache``, ``obda.evaluation``,
``obda.sql.stats`` and ``obda.sql.table``:

1. **bracket** — snapshot the generation *before* computing, compare it
   again before installing the result (a mid-compute mutation must
   discard the work, not poison the cache) — or put the generation
   *into the cache key*, which is self-invalidating;
2. **install by assignment** — ``cache.setdefault(key, value)`` keeps
   serving the *old* entry when a stale one is present; PR 7's
   stale-shared-index bug (``StatisticsCatalog.index``, since replaced
   by ``Table.index``, kept answering with pre-insert rows) was exactly
   this, fixed by plain assignment.
   ``setdefault`` is legitimate only under a snapshot-identity guard
   (``if self._cache is cache: cache.setdefault(...)``) where the
   snapshot can never hold a stale entry.

This rule fires inside functions that both *read a generation* and
*store into a cache* — everything else is out of its jurisdiction.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from ..visitor import FileContext, RuleVisitor, expr_text, terminal_name

__all__ = ["GenerationProtocolRule"]

#: receiver-name substrings that make a ``.put``/``.setdefault``/
#: subscript-store count as a cache install
_CACHE_HINTS = ("cache", "_stats", "_index", "_extents", "memo")


def _is_generation_expr(node: ast.AST) -> bool:
    """A read of a generation counter, by naming convention.

    Matches ``x.generation``, ``self._tbox_generation``,
    ``provider.generation()``, ``self._data_generation()``,
    ``getattr(x, "generation", 0)`` and ``table.stamp()``, which reads
    the table's generation first.
    """
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "getattr":
            return any(
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and "generation" in arg.value
                for arg in node.args
            )
        name = terminal_name(func)
        return name is not None and ("generation" in name.lower() or name == "stamp")
    if isinstance(node, (ast.Attribute, ast.Name)):
        name = terminal_name(node)
        return name is not None and "generation" in name.lower()
    return False


def _cacheish(text: Optional[str]) -> bool:
    if text is None:
        return False
    lowered = text.lower()
    return any(hint in lowered for hint in _CACHE_HINTS)


class _FunctionFacts:
    """What one function does with generations and caches."""

    def __init__(self, node: ast.AST):
        self.node = node
        self.generation_reads: List[ast.AST] = []
        self.generation_vars: Set[str] = set()
        self.has_generation_compare = False
        self.stores: List[ast.AST] = []
        self.setdefault_calls: List[ast.Call] = []
        self.identity_guarded: Set[str] = set()
        self.key_tuples_with_stamp = False
        #: ``.put(key, ...)`` calls whose key tuple lacks a stamp
        self.unstamped_key_puts: List[Tuple[ast.Call, str]] = []


class GenerationProtocolRule(RuleVisitor):
    rule_id = "RL002"
    rule_name = "generation-protocol"
    invariant = (
        "a function that reads a generation counter and installs into a "
        "cache must bracket (snapshot + revalidate via comparison) or put "
        "the stamp in the key; installs use assignment, not setdefault, "
        "unless guarded by snapshot identity (`is`)"
    )

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        self._facts: List[_FunctionFacts] = []

    def enter_function(self, node: ast.AST) -> None:
        self._facts.append(self._collect(node))

    def leave_function(self, node: ast.AST) -> None:
        facts = self._facts.pop()
        if facts.generation_reads and facts.stores:
            if not facts.has_generation_compare and not facts.key_tuples_with_stamp:
                if facts.unstamped_key_puts:
                    for call, key_name in facts.unstamped_key_puts:
                        self.report(
                            call,
                            f"cache key `{key_name}` is built from "
                            "generation-stamped data but omits the "
                            "generation stamp; a data change will keep "
                            "serving the old entry",
                        )
                else:
                    self.report(
                        facts.node,
                        "reads a generation counter and installs into a "
                        "cache without revalidating (no generation "
                        "comparison) and without the stamp in the cache "
                        "key — a mid-compute mutation can poison the cache",
                    )
        self._check_setdefault(facts)

    def _check_setdefault(self, facts: _FunctionFacts) -> None:
        if not facts.generation_reads and not facts.has_generation_compare:
            return
        for call in facts.setdefault_calls:
            func = call.func
            receiver = (
                expr_text(func.value) if isinstance(func, ast.Attribute) else ""
            )
            if receiver in facts.identity_guarded:
                continue
            self.report(
                call,
                f"`{receiver}.setdefault(...)` installs into a "
                "generation-validated cache; a stale entry keeps being "
                "served (the PR-7 stale-shared-index bug) — assign, or "
                "guard the snapshot with an `is` identity check",
            )

    # -- fact collection -------------------------------------------------------

    def _collect(self, node: ast.AST) -> _FunctionFacts:
        facts = _FunctionFacts(node)
        # nested defs stay in the walk on purpose: closures over the
        # parent's generation snapshot (the perf.cache single-flight
        # pattern) revalidate inside the closure, and that comparison
        # must count for the enclosing scope too
        for child in ast.walk(node):
            if _is_generation_expr(child):
                facts.generation_reads.append(child)
            if isinstance(child, ast.Assign) and _is_generation_expr(child.value):
                for target in child.targets:
                    if isinstance(target, ast.Name):
                        facts.generation_vars.add(target.id)
            if isinstance(child, ast.Compare):
                sides = [child.left, *child.comparators]
                if any(_is_generation_expr(side) for side in sides) or any(
                    isinstance(side, ast.Name) and side.id in facts.generation_vars
                    for side in sides
                ):
                    facts.has_generation_compare = True
                if any(isinstance(op, (ast.Is, ast.IsNot)) for op in child.ops):
                    for side in sides:
                        facts.identity_guarded.add(expr_text(side))
            if isinstance(child, ast.Call) and isinstance(
                child.func, ast.Attribute
            ):
                receiver_text = expr_text(child.func.value)
                if child.func.attr == "put" and _cacheish(receiver_text):
                    facts.stores.append(child)
                    self._scan_key_argument(child, facts)
                if child.func.attr == "setdefault" and _cacheish(receiver_text):
                    facts.stores.append(child)
                    facts.setdefault_calls.append(child)
            if isinstance(child, ast.Assign):
                for target in child.targets:
                    if isinstance(target, ast.Subscript) and _cacheish(
                        expr_text(target.value)
                    ):
                        facts.stores.append(child)
        # key tuples: any tuple built in this function containing a
        # generation expression or a captured generation variable
        for child in ast.walk(node):
            if isinstance(child, ast.Tuple):
                for element in child.elts:
                    if _is_generation_expr(element) or (
                        isinstance(element, ast.Name)
                        and element.id in facts.generation_vars
                    ):
                        facts.key_tuples_with_stamp = True
        return facts

    def _scan_key_argument(self, call: ast.Call, facts: _FunctionFacts) -> None:
        """A `.put(key, ...)` whose key is a local stamp-free tuple."""
        if not call.args:
            return
        key = call.args[0]
        if not isinstance(key, ast.Name):
            return
        function = facts.node
        for child in ast.walk(function):
            if not isinstance(child, ast.Assign) or not isinstance(
                child.value, ast.Tuple
            ):
                continue
            if not any(
                isinstance(target, ast.Name) and target.id == key.id
                for target in child.targets
            ):
                continue
            stamped = any(
                _is_generation_expr(element)
                or (
                    isinstance(element, ast.Name)
                    and element.id in facts.generation_vars
                )
                for element in child.value.elts
            )
            if not stamped:
                facts.unstamped_key_puts.append((call, key.id))
            return
