"""no-global-rebind: no process-global toggles.

A ``global`` statement exists to rebind a module-level name at run time
— the shape of a process-wide mode switch that every caller silently
inherits.  Each layer ships one production path; a reference
implementation is reached through an explicit seam (a per-call
argument, a ``trainer_factory``), never through a module global that
some earlier caller may have flipped.
"""

from __future__ import annotations

import ast

from repro.tools.lint.core import FileContext, Finding, Rule, register


@register
class GlobalRebindRule(Rule):
    name = "no-global-rebind"
    description = "`global` statements (run-time rebinding of module state)"
    contract = "one execution path per layer: no process-global toggles"

    def check(self, ctx: FileContext) -> list[Finding]:
        return [
            self.finding(
                ctx, node,
                f"`global {', '.join(node.names)}` rebinds module state at "
                "run time — pass the choice explicitly (an argument or a "
                "factory) instead of a process-global toggle",
            )
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.Global)
        ]
