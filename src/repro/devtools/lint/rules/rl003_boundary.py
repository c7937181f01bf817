"""RL003 — mask-kernel boundary containment.

The interned bitmask representation is an implementation detail of
``repro.core``: everything above it speaks ``(sender, receiver)``
string pairs (checkpoint JSON, ``LearningResult``, the shard
coordinator's public surface). If analysis, trace or CLI code reached
into ``.mask`` ints or the :class:`~repro.core.interning.TaskTable`
bit machinery, the kernel could never change representation again —
and a module-level ``TaskTable`` built from a *different* task order
would silently desynchronize pair indices.

Outside ``repro.core`` (and ``repro.devtools`` itself) the rule flags:

* importing ``repro.core.interning`` at all;
* referencing the ``PairSet``, ``TaskTable`` or ``WeightKernel`` names;
* touching mask internals: the ``.mask`` / ``.pairs_mask`` attributes
  or the ``pair_bit`` / ``pair_index`` / ``mask_of`` / ``bits_of`` /
  ``indices_of`` / ``iter_indices`` / ``mirror_mask`` accessors;
* the bulk mask operations of :mod:`repro.core.batch` (``pack_masks``,
  ``batch_set_weights``, …) — its array-of-masks layout is as internal
  as the bitmask ints it packs. Code outside the core learns through
  :func:`~repro.core.learner.learn_dependencies` or
  :func:`~repro.core.learner.make_learner` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.registry import ModuleContext, Rule, register

KERNEL_MODULE = "repro.core.interning"

#: Class names that are kernel-internal.
KERNEL_NAMES = frozenset({"PairSet", "TaskTable", "WeightKernel"})

#: Bulk mask operations of repro.core.batch: the packed uint64
#: mask-column layout must not leak past the boundary.
BATCH_KERNEL_NAMES = frozenset(
    {
        "pack_masks",
        "unpack_masks",
        "batch_set_weights",
        "batch_union_deltas",
        "batch_extension_tables",
        "batch_remove_redundant_masks",
    }
)

#: Attribute touches that expose mask internals.
KERNEL_ATTRIBUTES = frozenset(
    {
        "mask",
        "pairs_mask",
        "pair_bit",
        "pair_index",
        "mask_of",
        "bits_of",
        "indices_of",
        "iter_indices",
        "mirror_mask",
    }
)

#: Packages allowed to touch the kernel.
ALLOWED_PREFIXES = ("repro.core", "repro.devtools")


@register
class BoundaryRule(Rule):
    code = "RL003"
    name = "mask-boundary-containment"
    invariant = (
        "modules outside repro.core exchange string pairs only; masks, "
        "pair bits and the TaskTable never cross the core boundary"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module.startswith("repro") and not ctx.module.startswith(
            ALLOWED_PREFIXES
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not self.applies_to(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module and node.module.startswith(KERNEL_MODULE):
                    yield ctx.finding(
                        self,
                        node,
                        f"import from {KERNEL_MODULE} outside repro.core; "
                        "use the string boundary API (LearningResult "
                        "pairs, checkpoint JSON)",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith(KERNEL_MODULE):
                        yield ctx.finding(
                            self,
                            node,
                            f"import of {KERNEL_MODULE} outside repro.core",
                        )
            elif isinstance(node, ast.Name) and node.id in KERNEL_NAMES:
                yield ctx.finding(
                    self,
                    node,
                    f"'{node.id}' is kernel-internal; modules outside "
                    "repro.core must stay on the string pair API",
                )
            elif isinstance(node, ast.Name) and node.id in BATCH_KERNEL_NAMES:
                yield ctx.finding(
                    self,
                    node,
                    f"'{node.id}' is a bulk mask op of repro.core.batch; "
                    "outside repro.core, learn through learn_dependencies "
                    "or make_learner instead",
                )
            elif isinstance(node, ast.Attribute):
                if node.attr in KERNEL_ATTRIBUTES:
                    yield ctx.finding(
                        self,
                        node,
                        f"'.{node.attr}' touches mask internals outside "
                        "repro.core; use the string boundary API",
                    )


__all__ = [
    "BoundaryRule",
    "KERNEL_ATTRIBUTES",
    "KERNEL_NAMES",
    "BATCH_KERNEL_NAMES",
]
