"""Developer tooling that ships with the repository.

These modules exist so the repository can enforce its own invariants
(see :mod:`repro.devtools.lint`) with the same toolchain contributors
already have installed. The production library loads only the lint
subparser's flag definitions (:mod:`repro.devtools.lint.cli`, which
``repro`` mounts as ``repro lint``); the engine and the rules load when
a lint runs.
"""
