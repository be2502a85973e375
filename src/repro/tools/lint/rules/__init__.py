"""Rule modules — importing this package registers every rule.

Each module holds one rule (one invariant, one ``ast.NodeVisitor``); the
registry in :mod:`repro.tools.lint.core` is populated as a side effect of
the imports below.
"""

from repro.tools.lint.rules import (  # noqa: F401
    ambient_rng,
    global_rebind,
    inplace_discipline,
    report_immutability,
    snapshot_state,
    unordered_iteration,
    wall_clock,
)
