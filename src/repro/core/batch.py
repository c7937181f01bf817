"""Batched backend of the mask kernel: bulk mask ops and a faster
bounded learner.

The loop kernel (:mod:`repro.core.interning` driven by
:mod:`repro.core.heuristic`) processes one hypothesis × candidate at a
time. This module holds two alternatives to it.

**Bulk ops** re-express per-cell kernel operations as bitwise ops over
numpy ``uint64`` mask columns (multi-word for > 64 pairs):

* **candidate feasibility and child weights** for every (hypothesis,
  candidate) cell at once (:func:`batch_extension_tables`);
* **Definition 8 weights and LUB-merge deltas** of whole pools
  (:func:`batch_set_weights`, :func:`batch_union_deltas`);
* **superset elimination and working-set counts** for the one exact
  learner, :class:`~repro.core.exact.ExactLearner`
  (:func:`batch_remove_redundant_masks`, :func:`batch_minimal_products`,
  :func:`batch_cleared_counts`).

**:class:`BatchBoundedLearner`** subclasses
:class:`~repro.core.heuristic.BoundedLearner` and replaces only the
period's message loop, so checkpoints, sharding, ``result()`` and
repro-lint's RL003 containment are untouched. It makes no numpy call:
a message's pool is small and repetitive, and plain ints serve it best.
Model identity with the loop kernel (and the string reference oracle) is
bit-for-bit and asserted by the property suite
``tests/property/test_batch_kernel_props.py``.

Kernel selection goes through the small registry at the top
(:data:`KERNEL_CHOICES`, :func:`resolve_kernel`): ``"auto"`` picks the
batch backend exactly when numpy is importable, so environments without
numpy silently keep the loop kernel.

Implementation notes for the bounded learner
--------------------------------------------

The message step keeps these exact equivalences with the loop kernel:

* **Compact pair interning.** Real traces touch a small fraction of the
  ``t^2`` pair bits (the gm workload: ~130 of 324). Candidate bits are
  re-interned into a dense compact index space, first-seen append-only,
  so in-flight masks fit one or two machine words. Iteration stays in
  *canonical* bit order (ascending pair index), so exploration order —
  and therefore dedup and merge order — is unchanged.
* **Interned masks.** Under fixed statistics a weight is a pure function
  of the pair mask, and with integer distances no sum rounds. So each
  distinct mask of a period is kept once (``masks[i]``) with one weight,
  and a pool key is one int, ``(i << field) | period_mask``. A child by
  bit ``b`` is feasible iff ``period_mask & b == 0``; its mask
  ``masks[i] | b`` is interned once per ``(i, candidate)`` and the child
  key is ``key`` plus a per-``(i, candidate)`` constant. Merging two
  keys of one mask is ``k1 | k2`` at the same weight; merging two masks
  interns their union, and its O(popcount) weight delta runs only when
  the union is new. On the GM trace the pool after a message holds a
  single distinct mask almost every time.
* **Per-weight FIFO pool.** The loop kernel pops its heap in ``(weight,
  sequence)`` order, where sequence numbers only grow and entries leave
  only from the lightest end. One FIFO queue per weight plus the sorted
  list of live weights pops exactly that order.
* **Period end.** :meth:`~repro.core.heuristic.BoundedLearner._finish_period`
  keeps one weight per pair mask and drops period masks, so each
  distinct mask is decoded back to canonical bits once and period masks
  are never decoded.
"""

from __future__ import annotations

import numbers
from bisect import insort
from collections import deque
from typing import Iterable, Sequence

from repro.core import lattice
from repro.core.heuristic import BoundedLearner
from repro.core.instrumentation import hot_loop
from repro.core.interning import WeightKernel
from repro.core.result import LearningResult
from repro.core.weights import DistanceFunction
from repro.errors import EmptyHypothesisSpaceError, LearningError
from repro.trace.period import Period
from repro.trace.trace import Trace

try:  # pragma: no cover - numpy ships with the toolchain
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


# ---------------------------------------------------------------------------
# Kernel registry

#: Accepted kernel names: ``auto`` resolves per numpy availability.
KERNEL_CHOICES = ("auto", "loop", "batch")


def batch_available() -> bool:
    """True when the batch backend can run (numpy importable)."""
    return np is not None


def resolve_kernel(kernel: str = "auto") -> str:
    """Resolve a kernel registry name to ``"loop"`` or ``"batch"``.

    ``"auto"`` selects the batch backend exactly when numpy is
    importable. Asking for ``"batch"`` without numpy is an error rather
    than a silent downgrade.
    """
    if kernel not in KERNEL_CHOICES:
        choices = ", ".join(KERNEL_CHOICES)
        raise ValueError(f"unknown kernel {kernel!r}: choose from {choices}")
    if kernel == "auto":
        return "batch" if np is not None else "loop"
    if kernel == "batch" and np is None:
        raise LearningError(
            "the batch kernel requires numpy, which is not importable; "
            "select kernel='loop'"
        )
    return kernel


# ---------------------------------------------------------------------------
# Mask-column packing

@hot_loop
def pack_masks(masks: Sequence[int], words: int):
    """Pack int bitmasks into a ``(len(masks), words)`` uint64 column array.

    Little-endian word order: bit ``i`` of a mask lands in word
    ``i >> 6``, bit position ``i & 63``.
    """
    if words == 1:
        return np.fromiter(masks, dtype="<u8", count=len(masks)).reshape(-1, 1)
    nbytes = words * 8
    buffer = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    return np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words)


@hot_loop
def unpack_masks(packed) -> list[int]:
    """Inverse of :func:`pack_masks`: uint64 columns back to Python ints."""
    out: list[int] = []
    for row in packed.tolist():
        mask = 0
        for position, word in enumerate(row):
            mask |= word << (64 * position)
        out.append(mask)
    return out


#: One-entry cache for :func:`_term_arrays`. The kernel object is held
#: by strong reference, so its ``id`` cannot be recycled while cached;
#: a hit additionally requires the certainty flags to compare equal to
#: the cached snapshot. Per kernel instance the term tables are a pure
#: function of those flags (the distance constants are fixed at
#: construction), so flag equality implies table equality — a ``flip``
#: or ``unflip`` between calls invalidates the cache exactly.
_TERM_CACHE: dict = {}


def _term_arrays(kernel: WeightKernel):
    """The kernel's Definition 8 term tables as int64 numpy arrays.

    Converting the term lists costs more than the vectorized math on a
    typical per-message matrix, so the arrays (plus the pair-index /
    shift / word vectors every bulk op re-derives from them) are cached
    and rebuilt only when the kernel or its certainty flags change.
    """
    if (
        _TERM_CACHE.get("kernel") is kernel
        and _TERM_CACHE.get("certain") == kernel._certain
    ):
        return _TERM_CACHE["arrays"]
    term_f = np.asarray(kernel._term_f)
    term_b = np.asarray(kernel._term_b)
    term_fb = np.asarray(kernel._term_fb)
    if term_f.dtype.kind != "i":
        raise LearningError(
            "the batch kernel requires an integer-valued distance function"
        )
    mirror = np.asarray(kernel.table.mirror_index, dtype=np.int64)
    index = np.arange(mirror.size, dtype=np.int64)
    arrays = (
        term_f.astype(np.int64),
        term_b.astype(np.int64),
        term_fb.astype(np.int64),
        mirror,
        index >> 6,
        (index & 63).astype(np.uint64),
    )
    _TERM_CACHE.clear()
    _TERM_CACHE.update(
        kernel=kernel, certain=list(kernel._certain), arrays=arrays
    )
    return arrays


# ---------------------------------------------------------------------------
# Bulk kernel operations (canonical pair-index space)

def batch_set_weights(kernel: WeightKernel, masks: Sequence[int]) -> list[int]:
    """Definition 8 weights of many masks at once.

    Bit-for-bit equal to ``[kernel.set_weight(m) for m in masks]``: the
    per-term contribution is reproduced as a branch-free arithmetic
    select over the whole ``(n, t^2)`` bit matrix — terms the mask does
    not touch contribute zero, so summing over all ordered pairs equals
    summing over the touched set.
    """
    term_f, term_b, term_fb, mirror, word, shift = _term_arrays(kernel)
    pair_count = mirror.size
    words = max(1, (pair_count + 63) >> 6)
    packed = pack_masks(masks, words)
    forward = ((packed[:, word] >> shift) & 1).astype(np.int64)
    backward = forward[:, mirror]
    contribution = forward * (
        backward * term_fb + (1 - backward) * term_f
    ) + (1 - forward) * backward * term_b
    return contribution.sum(axis=1).tolist()


def batch_union_deltas(
    kernel: WeightKernel, bases: Sequence[int], others: Sequence[int]
) -> list[int]:
    """LUB-merge weight deltas for many ``(base, other)`` pairs at once.

    ``union_delta(base, other)`` is by definition ``set_weight(base |
    other) - set_weight(base)`` under fixed term tables, so the bulk form
    is two vectorized weight evaluations and a subtraction.
    """
    unions = [base | other for base, other in zip(bases, others)]
    union_weights = batch_set_weights(kernel, unions)
    base_weights = batch_set_weights(kernel, bases)
    return [u - b for u, b in zip(union_weights, base_weights)]


def batch_extension_tables(
    kernel: WeightKernel,
    entries: Sequence[tuple[int, int, int]],
    bits: Sequence[int],
):
    """Feasibility and child weights for every (hypothesis, candidate) cell.

    *entries* are ``(mask, period_mask, weight)`` triples; *bits* the
    message's candidate pair bits. Returns ``(feasible, child_weights)``
    as ``(n, k)`` row lists matching the loop kernel's per-cell
    ``period_mask & bit == 0`` test and
    :meth:`~repro.core.interning.WeightKernel.extension_delta`.
    """
    term_f, term_b, term_fb, mirror_all, _word, _shift = _term_arrays(kernel)
    pair_count = mirror_all.size
    words = max(1, (pair_count + 63) >> 6)
    masks = pack_masks([entry[0] for entry in entries], words)
    period_masks = pack_masks([entry[1] for entry in entries], words)
    weights = np.asarray([entry[2] for entry in entries], dtype=np.int64)
    index = np.fromiter(
        (bit.bit_length() - 1 for bit in bits), dtype=np.int64, count=len(bits)
    )
    mirror = mirror_all[index]
    shift = (index & 63).astype(np.uint64)
    mirror_shift = (mirror & 63).astype(np.uint64)
    present = (masks[:, index >> 6] >> shift) & 1
    mirrored = (masks[:, mirror >> 6] >> mirror_shift) & 1
    feasible = ((period_masks[:, index >> 6] >> shift) & 1) == 0
    delta_new = term_f[index] + term_b[mirror]
    delta_mutual = (
        term_fb[index] - term_b[index] + term_fb[mirror] - term_f[mirror]
    )
    delta = np.where(present == 1, 0, np.where(mirrored == 1, delta_mutual, delta_new))
    child_weights = weights[:, None] + delta
    return feasible.tolist(), child_weights.tolist()


# ---------------------------------------------------------------------------
# Exact learner support (superset elimination, working-set counts)

#: Most uint64 cells one block op of the exact learner's helpers touches
#: at once (bounds their memory).
BLOCK_CELLS = 1 << 18


#: Set bits of every byte value, for row popcounts of packed masks.
_BYTE_POPCOUNT = (
    None if np is None
    else np.array([value.bit_count() for value in range(256)], dtype=np.uint8)
)


def _mask_words(masks: Iterable[int]) -> int:
    """uint64 words needed for the widest of *masks* (at least one)."""
    return max(1, (max(masks, default=0).bit_length() + 63) >> 6)


@hot_loop
def batch_remove_redundant_masks(masks: Iterable[int] | np.ndarray) -> list[int]:
    """Minimal masks under inclusion, in canonical ``(popcount, mask)`` order.

    Deleting strict supersets is the paper's redundancy elimination.
    *masks* are ints or a packed ``(n, words)`` array (:func:`pack_masks`).
    Masks are taken one popcount level at a time: masks of equal popcount
    cannot strictly contain each other, so a mask is minimal exactly when
    no minimal mask of a lower level is a subset of it — one vectorized
    test per level, in blocks of at most :data:`BLOCK_CELLS` cells.
    """
    if np is None:
        minimal: list[int] = []
        for candidate in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
            if not any(kept & candidate == kept for kept in minimal):
                minimal.append(candidate)
        return minimal
    if not isinstance(masks, np.ndarray):
        unique = list(set(masks))
        masks = pack_masks(unique, _mask_words(unique))
    words = masks.shape[1]
    if words == 1:
        packed = np.sort(masks, axis=0)
    else:  # the last key, the most significant word, sorts first
        packed = masks[np.lexsort(masks.T)]
    fresh = np.ones(len(packed), dtype=bool)
    fresh[1:] = (packed[1:] != packed[:-1]).any(axis=1)
    packed = packed[fresh]
    counts = _BYTE_POPCOUNT[packed.view(np.uint8)].sum(axis=1)
    order = np.argsort(counts, kind="stable")
    packed, counts = packed[order], counts[order]
    bounds = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(packed)]
    keep = np.zeros(len(packed), dtype=bool)
    for start, end in zip(bounds, bounds[1:]):
        lower = packed[:start][keep[:start]]
        if not len(lower):
            keep[start:end] = True
            continue
        step = max(1, BLOCK_CELLS // (len(lower) * words))
        for first in range(start, end, step):
            last = min(first + step, end)
            block = packed[first:last, None, :]
            covered = ((block & lower) == lower).all(axis=2).any(axis=1)
            keep[first:last] = ~covered
    return unpack_masks(packed[keep])


@hot_loop
def batch_minimal_products(
    survivors: Sequence[int], assignments: Sequence[int]
) -> list[int]:
    """Minimal elements of ``{s | p : s ∈ survivors, p ∈ assignments}``.

    The exact learner's end of period: the product is built as broadcast
    ORs over packed columns, a block of assignments at a time so memory
    stays near :data:`BLOCK_CELLS` cells; the minimal elements of a union
    are the minimal elements of the blocks' minimal elements.
    """
    if np is None:
        return batch_remove_redundant_masks(
            {mask | p for p in assignments for mask in survivors}
        )
    words = max(_mask_words(survivors), _mask_words(assignments))
    right = pack_masks(survivors, words)[None, :, :]
    step = max(1, BLOCK_CELLS // max(1, len(survivors) * words))
    minimal: list[int] = []
    for first in range(0, len(assignments), step):
        left = pack_masks(assignments[first:first + step], words)[:, None, :]
        minimal += batch_remove_redundant_masks((left | right).reshape(-1, words))
    if len(assignments) > step:
        return batch_remove_redundant_masks(minimal)
    return minimal


@hot_loop
def batch_cleared_counts(masks: Sequence[int], keys: Sequence[int]) -> list[int]:
    """``[len({m & ~key for m in masks}) for key in keys]``.

    One sort per block of keys when every mask fits one word; wider
    masks take the set comprehension per key.
    """
    if np is None or not masks or _mask_words(masks) > 1:
        return [len({mask & ~key for mask in masks}) for key in keys]
    column = pack_masks(masks, 1)[:, 0]
    inverted = ~pack_masks(keys, 1)[:, 0]
    step = max(1, BLOCK_CELLS // len(masks))
    counts: list[int] = []
    for first in range(0, len(keys), step):
        cleared = np.sort(inverted[first:first + step, None] & column, axis=1)
        changes = (cleared[:, 1:] != cleared[:, :-1]).sum(axis=1)
        counts.extend((changes + 1).tolist())
    return counts


# ---------------------------------------------------------------------------
# Batch bounded learner

class BatchBoundedLearner(BoundedLearner):
    """:class:`~repro.core.heuristic.BoundedLearner` on the batch backend.

    Same parameters, same results — bit for bit — different hot loop:
    per message, the pool's few distinct pair masks are interned once
    with one weight each, a child is one integer add on a combined key,
    and the bound cascade pops from per-weight FIFO queues. See the
    module docstring for why each transformation is identity-safe.
    """

    def __init__(
        self,
        tasks: Iterable[str],
        bound: int,
        tolerance: float = 0.0,
        distance: DistanceFunction = lattice.distance,
        incremental_weights: bool = True,
    ):
        super().__init__(tasks, bound, tolerance, distance, incremental_weights)
        #: canonical bit value -> compact index (first-seen, append-only)
        self._compact_of: dict[int, int] = {}
        #: compact index -> canonical bit value
        self._canonical_bit: list[int] = []
        #: compact index -> compact index of its mirror pair (the table
        #: size when the mirror is not interned)
        self._mirror_compact: list[int] = []
        self._field = 64  # period-mask field width of a pool key
        self._checked_kernel: WeightKernel | None = None
        #: The period's interned compact pair masks, their Definition 8
        #: weights, and mask -> index (reset at every period start).
        self._pool_masks: list[int] = []
        self._pool_weights: list[int] = []
        self._pool_index: dict[int, int] = {}

    # -- compact pair interning ----------------------------------------

    @hot_loop
    def _intern_bits(self, bits: Iterable[int]) -> bool:
        """Extend the compact table; True when the key field grew."""
        compact_of = self._compact_of
        for bit in bits:
            if bit not in compact_of:
                compact_of[bit] = len(self._canonical_bit)
                self._canonical_bit.append(bit)
        field = 64 * max(1, (len(self._canonical_bit) + 63) >> 6)
        if field != self._field:
            self._field = field
            return True
        return False

    @hot_loop
    def _encode_mask(self, mask: int) -> int:
        """Canonical mask -> compact mask (bits must be interned)."""
        compact_of = self._compact_of
        out = 0
        while mask:
            low = mask & -mask
            mask ^= low
            out |= 1 << compact_of[low]
        return out

    @hot_loop
    def _decode_compact(self, compact: int) -> int:
        """Compact mask -> canonical mask."""
        canonical = self._canonical_bit
        out = 0
        while compact:
            low = compact & -compact
            compact ^= low
            out |= canonical[low.bit_length() - 1]
        return out

    # -- mirror slots in compact space ---------------------------------

    @hot_loop
    def _refresh_mirrors(self) -> None:
        """Rebuild the compact index of every compact bit's mirror pair.

        Interning a pair whose mirror arrives later changes that pair's
        mirror slot, so the table follows the compact table's size.
        """
        size = len(self._canonical_bit)
        if len(self._mirror_compact) == size:
            return
        mirror = self.table.mirror_index
        compact_of = self._compact_of
        self._mirror_compact = [
            compact_of.get(1 << mirror[bit.bit_length() - 1], size)
            for bit in self._canonical_bit
        ]

    # -- the period's pool: interned masks, combined keys --------------

    @hot_loop
    def _open_pool(
        self, entries: list[tuple[int, int, int]], bits: tuple[int, ...]
    ) -> list[int]:
        """Intern the carried masks and the first message's *bits*; the
        carried keys start with no period bits.

        The carried masks may hold bits that never crossed a candidate
        set (checkpoint restore, shard merge), so those are interned too.
        """
        carried = 0
        for mask, _period_mask, _weight in entries:
            carried |= mask
        fresh = list(bits)
        while carried:
            low = carried & -carried
            carried ^= low
            fresh.append(low)
        self._intern_bits(fresh)
        self._pool_masks = masks = []
        self._pool_weights = weights = []
        self._pool_index = index_of = {}
        field = self._field
        keys = []
        for mask, _period_mask, weight in entries:
            compact = self._encode_mask(mask)
            index = index_of.get(compact)
            if index is None:
                index = index_of[compact] = len(masks)
                masks.append(compact)
                weights.append(weight)
            keys.append(index << field)
        return keys

    @hot_loop
    def _process_period(
        self, period: Period, entries: list[tuple[int, int, int]]
    ) -> list[tuple[int, int, int]]:
        """Run the period's messages over combined keys; returns one
        ``(mask, 0, weight)`` entry per distinct surviving pair mask."""
        kernel = self._kernel
        if kernel is not self._checked_kernel:
            # Interned weights are shared by every hypothesis with the
            # same mask, which is exact only when term sums never round.
            if not all(
                isinstance(value, numbers.Integral)
                for value in (*kernel._d_certain, *kernel._d_maybe)
            ):
                raise LearningError(
                    "the batch kernel requires an integer-valued distance function"
                )
            self._checked_kernel = kernel
        counters = self._counters
        history: list[tuple[int, ...]] = []
        keys: list[int] | None = None
        for message in period.messages:
            bits = self._message_bits(period, message)
            field = self._field
            if keys is None:
                keys = self._open_pool(entries, bits)
            elif self._intern_bits(bits):
                counters.batch_relayouts += 1
                low = (1 << field) - 1
                keys = [
                    ((key >> field) << self._field) | (key & low)
                    for key in keys
                ]
            self._refresh_mirrors()
            history.append(bits)
            keys = self._process_combined(keys, bits, history)
            self._messages += 1
            self._peak = max(self._peak, len(keys))
        if keys is None:
            # Message-free period: the refreshed entries carry through
            # unchanged (same as the loop path).
            return entries
        # _finish_period keeps one weight per pair mask and drops the
        # period masks, so each distinct mask is decoded once.
        field = self._field
        masks = self._pool_masks
        weights = self._pool_weights
        return [
            (self._decode_compact(masks[index]), 0, weights[index])
            for index in dict.fromkeys(key >> field for key in keys)
        ]

    # -- the cascaded message step over combined keys ------------------

    @hot_loop
    def _process_combined(
        self,
        keys: list[int],
        bits: tuple[int, ...],
        history: Sequence[tuple[int, ...]],
    ) -> list[int]:
        """One generalization step on combined keys ``(index << field) |
        period_mask``, returned in pool (insertion) order.

        Rows are consumed in pool order and columns in canonical bit
        order, and the pool pops the lightest weight, first in first
        out, so insertion, dedup and merge order all match the loop
        kernel's heap exactly.
        """
        counters = self._counters
        field = self._field
        low = (1 << field) - 1
        bound = self.bound
        masks = self._pool_masks
        weights = self._pool_weights
        index_of = self._pool_index
        term_f = self._kernel._term_f
        term_b = self._kernel._term_b
        term_fb = self._kernel._term_fb
        mirror_compact = self._mirror_compact
        mirror_index = self.table.mirror_index
        canonical_bit = self._canonical_bit
        columns = [1 << self._compact_of[bit] for bit in bits]
        every = sum(columns)  # distinct: a task runs once per period
        width = len(columns)
        rows: dict[int, list[tuple[int, int, int]]] = {}
        pool: dict[int, int] = {}
        queues: dict[int, deque[int]] = {}
        live: list[int] = []  # weights with a nonempty queue, ascending
        merges = 0
        children = 0

        def union_index(index: int, other: int) -> int:
            """Index of ``masks[index] | other``, interned on first sight
            with an O(popcount) delta on ``weights[index]``."""
            base = masks[index]
            union = base | other
            found = index_of.get(union)
            if found is not None:
                return found
            acquired = union ^ base
            delta = 0
            remaining = acquired
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                i = bit.bit_length() - 1
                mi = mirror_compact[i]
                term = canonical_bit[i].bit_length() - 1
                mirror = mirror_index[term]
                if (acquired >> mi) & 1:  # pair and mirror both new
                    delta += term_fb[term]
                elif (base >> mi) & 1:  # both ordered terms turn mutual
                    delta += (
                        term_fb[term] - term_b[term]
                        + term_fb[mirror] - term_f[mirror]
                    )
                else:
                    delta += term_f[term] + term_b[mirror]
            found = index_of[union] = len(masks)
            masks.append(union)
            weights.append(weights[index] + delta)
            return found

        def insert(key: int, weight: int) -> None:
            """Add a key known to be new, then merge down to the bound."""
            nonlocal merges
            while True:
                pool[key] = weight
                queue = queues.get(weight)
                if queue is None:
                    queues[weight] = deque((key,))
                    insort(live, weight)
                else:
                    queue.append(key)
                if len(pool) <= bound:
                    return
                # Pop the two lightest keys, first in first out.
                weight = live[0]
                queue = queues[weight]
                first = queue.popleft()
                if not queue:
                    del queues[weight]
                    del live[0]
                    queue = queues[live[0]]
                second = queue.popleft()
                if not queue:
                    del queues[live[0]]
                    del live[0]
                del pool[first]
                del pool[second]
                merges += 1
                key = first | second
                if (first ^ second) > low:  # two masks: intern their union
                    index = union_index(first >> field, masks[second >> field])
                    weight = weights[index]
                    key = (index << field) | (key & low)
                if key in pool:
                    return

        for key in keys:
            index = key >> field
            taken = key & every
            if taken == every:
                # Merged-lineage repair runs in canonical space: the
                # backtracking sorts candidate *bit values*, and compact
                # values would explore a different order.
                repaired = self._reassign_period(
                    self._decode_compact(masks[index]), history
                )
                counters.reassignments += 1
                if repaired is not None:
                    repaired_mask, repaired_period = repaired
                    counters.weight_scratch_calls += 1
                    weight = self._kernel.set_weight(repaired_mask)
                    compact = self._encode_mask(repaired_mask)
                    found = index_of.get(compact)
                    if found is None:
                        found = index_of[compact] = len(masks)
                        masks.append(compact)
                        weights.append(weight)
                    key = (found << field) | self._encode_mask(repaired_period)
                    if key not in pool:
                        insert(key, weight)
                continue
            children += width - taken.bit_count()
            row = rows.get(index)
            if row is None:
                # A child by bit b has mask masks[index] | b and key
                # key - (index << field) + (child << field) + b.
                row = rows[index] = []
                for bit in columns:
                    child = union_index(index, bit)
                    row.append((bit, ((child - index) << field) + bit, weights[child]))
            for bit, offset, weight in row:
                if not taken & bit:
                    child_key = key + offset
                    if child_key not in pool:
                        insert(child_key, weight)
        self._merges += merges
        counters.batch_messages += 1
        counters.batch_children += children
        if not pool:
            raise EmptyHypothesisSpaceError(self._periods)
        return list(pool)

    def result(self) -> LearningResult:
        result = super().result()
        result.kernel = "batch"
        return result


# ---------------------------------------------------------------------------
# Convenience driver (mirrors heuristic.learn_bounded)

def learn_bounded_batch(
    trace: Trace,
    bound: int,
    tolerance: float = 0.0,
    distance: DistanceFunction = lattice.distance,
) -> LearningResult:
    """Run the bounded heuristic on the batch kernel over a trace."""
    learner = BatchBoundedLearner(trace.tasks, bound, tolerance, distance)
    learner.feed_trace(trace)
    return learner.result()


__all__ = [
    "KERNEL_CHOICES",
    "batch_available",
    "resolve_kernel",
    "pack_masks",
    "unpack_masks",
    "batch_set_weights",
    "batch_union_deltas",
    "batch_extension_tables",
    "batch_remove_redundant_masks",
    "batch_minimal_products",
    "batch_cleared_counts",
    "BatchBoundedLearner",
    "learn_bounded_batch",
]
