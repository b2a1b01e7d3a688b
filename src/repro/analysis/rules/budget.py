"""RL003 budget-threading: bounded execution everywhere.

The resilience contract of :mod:`repro.runtime.budget`: every pipeline
phase accepts a ``budget``/``watch`` allowance, polls it in its
potentially-unbounded loops, and forwards it into the phases it calls.
A worklist loop that never consults the budget, or a call that silently
drops it, reopens the unbounded-hang class of bug the runtime PR closed.

Calibration, matching how the codebase actually amortizes polls:

* only ``while`` loops are held to the in-loop poll — they are the
  worklist/fixpoint loops whose trip count is not bounded by already-
  materialized data.  ``for`` loops over sequences are linear passes;
  their budget enforcement happens at the poll in the enclosing loop or
  phase boundary (a documented coarseness, see DESIGN.md);
* a poll in an **enclosing loop** of the same function counts — the
  sanctioned pattern is ``if source % 256 == 0: watch.check()`` in
  the outer loop, inner loops riding along;
* a function that takes a budget parameter and then never mentions it
  at all has dropped the contract on the floor, wherever its loops are;
* calls to known pipeline phases from a budget-carrying function must
  forward the budget.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional

from ..visitor import RuleVisitor, terminal_name

__all__ = ["BudgetThreadingRule"]

#: parameter names that put a function under the budget contract
_BUDGET_PARAMS: FrozenSet[str] = frozenset({"budget", "watch", "deadline"})

#: substrings marking a name as budget-carrying
_BUDGET_HINTS = ("budget", "watch", "deadline")

#: budget poll methods
_POLL_METHODS: FrozenSet[str] = frozenset({"check", "tick"})

#: known pipeline phases that accept (and must be handed) the budget
_PHASE_CALLEES: FrozenSet[str] = frozenset(
    {
        "perfect_ref",
        "presto_rewrite",
        "unfold",
        "evaluate_ucq",
        "evaluate_cq",
        "execute_unfolded",
        "prune_ucq_with_constraints",
        "relevant_inclusions",
    }
)


def _is_budget_name(name: Optional[str]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return lowered in _BUDGET_PARAMS or any(
        hint in lowered for hint in _BUDGET_HINTS
    )


def _mentions_budget(node: ast.AST) -> bool:
    """Does any name in this subtree look budget-carrying?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and _is_budget_name(child.id):
            return True
        if isinstance(child, ast.Attribute) and _is_budget_name(child.attr):
            return True
    return False


def _consults_budget(node: ast.AST) -> bool:
    """A poll (`budget.tick()`), a scoped call, or a forwarded budget."""
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        func = child.func
        if isinstance(func, ast.Attribute):
            if func.attr in _POLL_METHODS and _mentions_budget(func.value):
                return True
            if func.attr == "scoped" and _mentions_budget(func.value):
                return True
        for arg in child.args:
            if _mentions_budget(arg):
                return True
        for keyword in child.keywords:
            if keyword.arg is not None and _is_budget_name(keyword.arg):
                return True
            if _mentions_budget(keyword.value):
                return True
    return False


def _budget_params(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if args is None:
        return []
    return [
        arg.arg
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]
        if arg.arg.lower() in _BUDGET_PARAMS
    ]


def _is_stub_body(body: List[ast.stmt]) -> bool:
    """Protocol/ABC bodies (docstring, ``...``, ``raise``) owe nothing."""
    for statement in body:
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or bare `...`
        if isinstance(statement, (ast.Pass, ast.Raise)):
            continue
        return False
    return True


class BudgetThreadingRule(RuleVisitor):
    rule_id = "RL003"
    rule_name = "budget-threading"
    invariant = (
        "a budget-carrying function uses its budget; its `while` loops poll "
        "it (tick/check, possibly amortized in an enclosing loop) or forward "
        "it; known pipeline-phase calls are handed the budget, not dropped"
    )

    def _budget_in_scope(self) -> bool:
        function = self.current_function
        return function is not None and bool(_budget_params(function))

    # -- while-loop discipline -------------------------------------------------

    def _enclosing_loop_consults(self, node: ast.AST) -> bool:
        """An outer loop's (amortized) poll covers the inner loops."""
        current = self.ctx.parent(node)
        while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            if isinstance(current, (ast.While, ast.For)) and _consults_budget(
                current
            ):
                return True
            current = self.ctx.parent(current)
        return False

    def visit_While(self, node: ast.While) -> None:
        if (
            self._budget_in_scope()
            and not _consults_budget(node)
            and not self._enclosing_loop_consults(node)
        ):
            is_infinite = isinstance(node.test, ast.Constant) and bool(
                node.test.value
            )
            header = "`while True` loop" if is_infinite else "`while` loop"
            self.report(
                node,
                f"{header} in a budget-carrying function never consults the "
                "budget (no tick/check in this or an enclosing loop, no "
                "forwarding) — the worklist can overrun the deadline "
                "unbounded",
            )
        self.generic_visit(node)

    # -- ignored budgets -------------------------------------------------------

    def leave_function(self, node: ast.AST) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        params = _budget_params(node)
        if not params or _is_stub_body(node.body):
            return
        if not any(_mentions_budget(statement) for statement in node.body):
            self.report(
                node,
                f"`{node.name}(...)` accepts `{params[0]}` but never "
                "consults or forwards it; the caller's deadline is "
                "silently dropped",
            )

    # -- dropped budgets at phase boundaries -----------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = terminal_name(node.func)
        if (
            name in _PHASE_CALLEES
            and self._budget_in_scope()
            and not _mentions_budget(node)
        ):
            self.report(
                node,
                f"call to budget-aware phase `{name}(...)` drops the "
                "budget that is in scope; pass budget=/watch= so the "
                "phase stays bounded",
            )
        self.generic_visit(node)
