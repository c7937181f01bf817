"""repro-lint: AST-based invariant checker for this codebase.

The bitmask kernel and the learning pipeline rest on invariants the
test suite can only *sample* — bit-for-bit deterministic output,
string-free hot loops, a hard string boundary around ``repro.core``,
picklable shard submissions, docstring citations that resolve into
``DESIGN.md``, and a raw-column boundary around the mmap trace store.
This package proves them statically on every commit:

========  =============================================================
RL001     deterministic iteration on output paths (no unsorted sets)
RL002     hot-loop purity in ``@hot_loop``-marked kernel functions
RL003     mask/``PairSet`` internals never leave ``repro.core``
RL004     process-pool submissions are picklable (no lambdas/closures)
RL005     ``Definition N``/``Theorem N``/``Lemma`` citations resolve
RL006     raw store columns/mmap stay inside ``repro.trace.columnar``
          and ``repro.trace.store``
========  =============================================================

Findings are suppressed per line with ``# repro-lint: ignore[RL00x]``
(see :mod:`repro.devtools.lint.suppressions` for the policy). Run via
``repro lint``, ``python -m repro.devtools.lint``, or ``make lint``.
"""
