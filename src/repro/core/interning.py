"""Interned pair indices and the bitmask kernel of the hot loops.

The version-space learners spend essentially all of their time combining,
deduplicating and weighing *pair sets* — sets of ordered ``(sender,
receiver)`` task pairs. The seed implementation represented them as
``frozenset[tuple[str, str]]``, so every extension, LUB merge and pool
lookup allocated a fresh frozenset and re-hashed string tuples. This
module replaces that representation inside ``repro.core`` with dense
integers:

:class:`TaskTable`
    Interns the task universe into dense integer ids (assigned in sorted
    name order) and maps each ordered pair ``(s, r)`` to the index
    ``id(s) * t + id(r)``. Because ids follow sorted name order, index
    order coincides with the lexicographic ``(sender, receiver)`` order
    the rest of the code base sorts pairs by — which is what lets the
    mask kernel reproduce the string kernel's iteration orders (and
    therefore its output) bit for bit.

:class:`PairSet`
    A pair set as a single Python ``int`` bitmask over pair indices,
    wrapped with set operations for the boundary layers and the tests.
    The hot loops use the raw ``int`` directly: extension is ``mask |
    bit``, the heuristic's LUB merge is ``|``, pool dedup keys are
    ``(mask, period_mask)`` int tuples, and strict-superset elimination
    is ``a & b == a``.

:class:`WeightKernel`
    Definition 8 weights over masks via a precomputed per-pair-index
    distance-term table. The table is refreshed only on
    ``always_implies`` flips (the dirty pairs reported by
    :meth:`~repro.core.stats.CoExecutionStats.add_period`), composing
    with the incremental per-period weight refresh: extension and union
    weight deltas become a handful of list lookups.

Everything above ``repro.core`` keeps speaking ``(str, str)`` pairs:
checkpoints, :class:`~repro.core.result.LearningResult` and the shard
coordinator translate at the boundary via :meth:`TaskTable.pairs_of` /
:meth:`TaskTable.mask_of`, so the kernel is invisible to callers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from repro.core import lattice
from repro.core.instrumentation import hot_loop
from repro.core.stats import CoExecutionStats
from repro.core.weights import DistanceFunction

Pair = tuple[str, str]


class TaskTable:
    """Dense integer ids for a task universe and its ordered pairs.

    Ids are assigned in sorted task-name order, so for two pairs ``p``
    and ``q``, ``index(p) < index(q)`` iff ``p < q`` lexicographically.
    The table is a pure function of the task set: two tables built from
    the same tasks (in any order) produce interchangeable masks, which is
    what lets shard workers exchange masks instead of string sets.
    """

    __slots__ = (
        "tasks",
        "ordered",
        "task_count",
        "_id",
        "_pair_by_index",
        "_bit_by_pair",
        "mirror_index",
    )

    def __init__(self, tasks: Iterable[str]) -> None:
        self.tasks = tuple(tasks)
        self.ordered: tuple[str, ...] = tuple(sorted(set(self.tasks)))
        t = len(self.ordered)
        self.task_count = t
        self._id = {name: i for i, name in enumerate(self.ordered)}
        self._pair_by_index: list[Pair] = [
            (s, r) for s in self.ordered for r in self.ordered
        ]
        self._bit_by_pair = {
            pair: 1 << index
            for index, pair in enumerate(self._pair_by_index)
            if pair[0] != pair[1]
        }
        #: ``mirror_index[s*t + r] == r*t + s`` (identity on the diagonal).
        self.mirror_index: list[int] = [
            (index % t) * t + index // t for index in range(t * t)
        ]

    def task_id(self, task: str) -> int:
        """The dense id of *task* (raises KeyError for unknown tasks)."""
        return self._id[task]

    def pair_index(self, pair: Pair) -> int:
        """The dense index of the ordered pair ``(s, r)``."""
        s, r = pair
        return self._id[s] * self.task_count + self._id[r]

    def pair_at(self, index: int) -> Pair:
        """The ordered pair at a dense index."""
        return self._pair_by_index[index]

    def pair_bit(self, pair: Pair) -> int:
        """``1 << pair_index(pair)``; rejects diagonal (s == r) pairs."""
        return self._bit_by_pair[pair]

    @hot_loop
    def bits_of(self, pairs: Sequence[Pair]) -> tuple[int, ...]:
        """The pair bits of *pairs*, preserving order (hot-loop interning)."""
        bit = self._bit_by_pair
        return tuple(bit[pair] for pair in pairs)

    @hot_loop
    def indices_of(self, pairs: Iterable[Pair]) -> tuple[int, ...]:
        """Dense indices of *pairs* (order preserved)."""
        t = self.task_count
        ids = self._id
        return tuple(ids[s] * t + ids[r] for s, r in pairs)

    @hot_loop
    def mask_of(self, pairs: Iterable[Pair]) -> int:
        """Intern a pair collection as a bitmask."""
        bit = self._bit_by_pair
        mask = 0
        for pair in pairs:
            mask |= bit[pair]
        return mask

    @hot_loop
    def iter_indices(self, mask: int) -> Iterator[int]:
        """Indices of the set bits of *mask*, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def pairs_of(self, mask: int) -> frozenset[Pair]:
        """Decode a bitmask back to the string pair set."""
        pair_at = self._pair_by_index
        return frozenset(pair_at[index] for index in self.iter_indices(mask))

    def sorted_pairs_of(self, mask: int) -> tuple[Pair, ...]:
        """Decode a bitmask to pairs in lexicographic (= index) order."""
        pair_at = self._pair_by_index
        return tuple(pair_at[index] for index in self.iter_indices(mask))

    @hot_loop
    def mirror_mask(self, mask: int) -> int:
        """The mask with every pair ``(s, r)`` replaced by ``(r, s)``."""
        mirror = self.mirror_index
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << mirror[low.bit_length() - 1]
            mask ^= low
        return out

    def __repr__(self) -> str:
        return f"TaskTable(tasks={self.task_count})"


@lru_cache(maxsize=64)
def task_table(tasks: tuple[str, ...]) -> TaskTable:
    """A shared :class:`TaskTable` per task universe.

    Building a table is ``O(t^2)``; matching and analysis code paths
    create one per call site, so identical universes share one instance.
    """
    return TaskTable(tasks)


class PairSet:
    """A pair set as one ``int`` bitmask, with set semantics on top.

    The boundary-layer wrapper around the kernel's raw masks: equality,
    ordering and union behave exactly like the ``frozenset[Pair]`` they
    replace (asserted by the property tests). Hot loops skip the wrapper
    and operate on ``.mask`` directly.
    """

    __slots__ = ("table", "mask")

    def __init__(self, table: TaskTable, mask: int = 0) -> None:
        self.table = table
        self.mask = mask

    @classmethod
    def from_pairs(cls, table: TaskTable, pairs: Iterable[Pair]) -> "PairSet":
        return cls(table, table.mask_of(pairs))

    def to_pairs(self) -> frozenset[Pair]:
        return self.table.pairs_of(self.mask)

    def __or__(self, other: "PairSet") -> "PairSet":
        return PairSet(self.table, self.mask | other.mask)

    def __and__(self, other: "PairSet") -> "PairSet":
        return PairSet(self.table, self.mask & other.mask)

    def __le__(self, other: "PairSet") -> bool:
        return self.mask & other.mask == self.mask

    def __lt__(self, other: "PairSet") -> bool:
        return self.mask != other.mask and self.mask & other.mask == self.mask

    def __contains__(self, pair: Pair) -> bool:
        try:
            return bool(self.mask & self.table.pair_bit(pair))
        except KeyError:
            return False

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.table.sorted_pairs_of(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return bool(self.mask)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PairSet):
            return self.mask == other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"PairSet({sorted(self.to_pairs())})"


class WeightKernel:
    """Definition 8 weights over masks, via a per-pair-index term table.

    For the ordered term index ``i`` standing for tasks ``(a, b)``, the
    derived dependency value depends on three things only: whether the
    forward pair bit ``i`` is set, whether the backward (mirror) bit is
    set, and the ``always_implies(a, b)`` certainty flag. The kernel
    precomputes the distance of each outcome per index::

        term_f[i]  = distance(->  if certain[i] else ->?)
        term_b[i]  = distance(<-  if certain[i] else <-?)
        term_fb[i] = distance(<-> if certain[i] else <->?)

    so a from-scratch Definition 8 evaluation is one list lookup per
    touched term, and the extension / union deltas of the hot loop touch
    two or a handful of indices. Certainty flips (the dirty pairs of
    :meth:`~repro.core.stats.CoExecutionStats.add_period`) refresh only
    the flipped indices via :meth:`flip`; a failed (rolled-back) period
    undoes them with :meth:`unflip`. The per-hypothesis weight delta of
    a flip is membership-dependent but value-constant — precomputed once
    as ``_flip_f`` / ``_flip_b`` / ``_flip_fb``.
    """

    __slots__ = (
        "table",
        "_mirror",
        "_term_f",
        "_term_b",
        "_term_fb",
        "_certain",
        "_d_certain",
        "_d_maybe",
        "_flip_f",
        "_flip_b",
        "_flip_fb",
    )

    def __init__(
        self,
        table: TaskTable,
        stats: CoExecutionStats,
        distance: DistanceFunction = lattice.distance,
    ) -> None:
        self.table = table
        self._mirror = table.mirror_index
        certain = stats.certain_flags(table)
        d_det = distance(lattice.DETERMINES)
        d_may_det = distance(lattice.MAY_DETERMINE)
        d_dep = distance(lattice.DEPENDS)
        d_may_dep = distance(lattice.MAY_DEPEND)
        d_mut = distance(lattice.MUTUAL)
        d_may_mut = distance(lattice.MAY_MUTUAL)
        self._certain = certain
        self._d_certain = (d_det, d_dep, d_mut)
        self._d_maybe = (d_may_det, d_may_dep, d_may_mut)
        self._term_f = [d_det if c else d_may_det for c in certain]
        self._term_b = [d_dep if c else d_may_dep for c in certain]
        self._term_fb = [d_mut if c else d_may_mut for c in certain]
        self._flip_f = d_may_det - d_det
        self._flip_b = d_may_dep - d_dep
        self._flip_fb = d_may_mut - d_mut

    # ------------------------------------------------------------------
    # Certainty maintenance (dirty-pair refresh)
    # ------------------------------------------------------------------

    @hot_loop
    def flip(self, indices: Iterable[int]) -> None:
        """Mark the term *indices* uncertain (an ``always_implies`` flip)."""
        d_may_det, d_may_dep, d_may_mut = self._d_maybe
        certain = self._certain
        for index in indices:
            certain[index] = False
            self._term_f[index] = d_may_det
            self._term_b[index] = d_may_dep
            self._term_fb[index] = d_may_mut

    @hot_loop
    def unflip(self, indices: Iterable[int]) -> None:
        """Undo :meth:`flip` after a rolled-back period."""
        d_det, d_dep, d_mut = self._d_certain
        certain = self._certain
        for index in indices:
            certain[index] = True
            self._term_f[index] = d_det
            self._term_b[index] = d_dep
            self._term_fb[index] = d_mut

    # ------------------------------------------------------------------
    # Weight evaluation
    # ------------------------------------------------------------------

    @hot_loop
    def term_weight(self, mask: int, index: int) -> int:
        """Distance contribution of one ordered term under *mask*."""
        forward = mask >> index & 1
        backward = mask >> self._mirror[index] & 1
        if forward:
            return self._term_fb[index] if backward else self._term_f[index]
        return self._term_b[index] if backward else 0

    @hot_loop
    def set_weight(self, mask: int) -> int:
        """Definition 8 weight of *mask* from scratch (boundary fallback)."""
        touched = mask | self.table.mirror_mask(mask)
        weight = 0
        while touched:
            low = touched & -touched
            weight += self.term_weight(mask, low.bit_length() - 1)
            touched ^= low
        return weight

    @hot_loop
    def flip_delta(self, mask: int, index: int) -> int:
        """Weight change of *mask* when term *index* flips to uncertain.

        Value-constant by construction: by the time the delta is applied
        the statistics already hold the new verdict, so the old one is
        reconstructed from which memberships contribute to the term.
        """
        forward = mask >> index & 1
        backward = mask >> self._mirror[index] & 1
        if forward:
            return self._flip_fb if backward else self._flip_f
        return self._flip_b if backward else 0


__all__ = ["TaskTable", "task_table", "PairSet", "WeightKernel"]
