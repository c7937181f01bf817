"""Batched numpy array-of-masks backend of the mask kernel.

The loop kernel (:mod:`repro.core.interning` driven by
:mod:`repro.core.heuristic`) processes one hypothesis × candidate at a
time; this module re-expresses the bounded learner's per-message
operations as bulk bitwise ops over ``uint64`` mask columns (multi-word
for > 64 pairs):

* **candidate-set computation** — the feasibility test ``period_mask &
  bit == 0`` for every (hypothesis, candidate) cell at once;
* **Definition 8 weight refresh** — extension deltas and from-scratch
  set weights from the term tables, vectorized over whole pools
  (:func:`batch_set_weights`, :func:`batch_extension_tables`);
* **LUB merges** — union deltas as bulk weight differences
  (:func:`batch_union_deltas`) plus an O(popcount) inline delta in the
  bounded cascade;
* **superset elimination and working-set counts** for the one exact
  learner, :class:`~repro.core.exact.ExactLearner`
  (:func:`batch_remove_redundant_masks`, :func:`batch_cleared_counts`).

Everything stays behind the existing mask boundary: the learner here
subclasses :class:`~repro.core.heuristic.BoundedLearner` and only
replaces hot-loop internals, so checkpoints, sharding, ``result()`` and
repro-lint's RL003 containment are untouched. Model identity with the
loop kernel (and the string reference oracle) is bit-for-bit and
asserted by the property suite ``tests/property/test_batch_kernel_props.py``.

Kernel selection goes through the small registry at the top
(:data:`KERNEL_CHOICES`, :func:`resolve_kernel`): ``"auto"`` picks the
batch backend exactly when numpy is importable, so environments without
numpy silently keep the loop kernel.

Implementation notes for the bounded cascade
--------------------------------------------

The bounded learner's per-message step keeps three exact equivalences
that make the fast path bit-identical to the loop kernel:

* **Compact pair interning.** Real traces touch a small fraction of the
  ``t^2`` pair bits (the gm workload: ~130 of 324). Candidate bits are
  re-interned into a dense compact index space, first-seen append-only,
  so in-flight masks fit one or two machine words. Iteration stays in
  *canonical* bit order (ascending pair index), so exploration order —
  and therefore dedup and merge order — is unchanged.
* **Combined single-int keys.** An in-flight hypothesis is one int:
  ``(mask << S) | period_mask`` over compact bits, so extension and the
  LUB merge are each a single ``|``.
* **Eager sorted-list pool.** The loop kernel's heap never holds a stale
  entry: inserts push exactly when a key is new and every removal pops
  the matching entry, so the heap multiset always equals the pool key
  set. An eagerly maintained sorted list (lightest at the end, priority
  ``-(weight << SEQ_BITS) - seq``) is therefore observably identical,
  and makes pop O(1). Weights are pure functions of the mask under fixed
  statistics, which licenses the overwrite-dedup ``pool[key] = weight``.
"""

from __future__ import annotations

import time
from bisect import insort
from typing import Iterable, Sequence

from repro.core import lattice
from repro.core.candidates import candidate_pairs
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

#: Bits reserved for the insertion sequence in packed pool priorities.
SEQ_BITS = 32


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
    per message, child generation (feasibility + extension deltas for
    every pool × candidate cell) is one set of numpy column ops, and the
    merge cascade runs over combined single-int compact keys with an
    eager sorted-list pool and an O(popcount) inline union delta. See
    the module docstring for why each transformation is identity-safe.
    """

    def __init__(
        self,
        tasks: Iterable[str],
        bound: int,
        tolerance: float = 0.0,
        distance: DistanceFunction = lattice.distance,
        incremental_weights: bool = True,
    ):
        if np is None:
            raise LearningError(
                "the batch kernel requires numpy, which is not importable; "
                "use BoundedLearner instead"
            )
        super().__init__(tasks, bound, tolerance, distance, incremental_weights)
        #: canonical bit value -> compact index (first-seen, append-only)
        self._compact_of: dict[int, int] = {}
        #: compact index -> canonical bit value / canonical pair index
        self._canonical_bit: list[int] = []
        self._canonical_index: list[int] = []
        self._words = 1        # uint64 words per field
        self._field = 64       # compact field width == mask shift
        self._generation_cache: dict[tuple[int, ...], tuple] = {}
        self._term_epoch: object = None

    # -- compact pair interning ----------------------------------------

    @hot_loop
    def _intern_bits(self, bits: Sequence[int]) -> bool:
        """Extend the compact table; True when the word layout grew."""
        compact_of = self._compact_of
        for bit in bits:
            if bit not in compact_of:
                compact_of[bit] = len(self._canonical_bit)
                self._canonical_bit.append(bit)
                self._canonical_index.append(bit.bit_length() - 1)
        need = max(1, (len(self._canonical_bit) + 63) >> 6)
        if need != self._words:
            self._words = need
            self._field = 64 * need
            return True
        return False

    @hot_loop
    def _intern_mask_bits(self, mask: int) -> None:
        """Intern every set bit of a canonical mask (checkpoint restores
        and shard merges carry masks whose bits never went through a
        candidate set)."""
        compact_of = self._compact_of
        while mask:
            low = mask & -mask
            mask ^= low
            if low not in compact_of:
                compact_of[low] = len(self._canonical_bit)
                self._canonical_bit.append(low)
                self._canonical_index.append(low.bit_length() - 1)

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

    # -- term tables in compact space ----------------------------------

    @hot_loop
    def _refresh_terms(self) -> None:
        """Rebuild compact-indexed branch tables for the inline merge delta.

        Terms change only on a kernel rebuild (new object) or a flip
        (always paired with a statistics version bump, which is strictly
        monotone — so ``(id, version)`` cannot collide); the epoch also
        carries the compact layout, because interning a pair whose
        mirror arrives later changes that pair's mirror slot.
        """
        kernel = self._kernel
        epoch = (
            id(kernel),
            self.stats.version,
            self._field,
            len(self._canonical_bit),
        )
        if self._term_epoch == epoch:
            return
        self._term_epoch = epoch
        term_f = kernel._term_f
        term_b = kernel._term_b
        term_fb = kernel._term_fb
        mirror = self.table.mirror_index
        compact_of = self._compact_of
        field = self._field
        # Inline merge-delta branches for one newly-acquired compact bit i
        # with mirror mi: both new -> fb[i]; mirror already in the base ->
        # both ordered terms step to mutual; mirror absent -> two singles.
        branch_both = []
        branch_mutual = []
        branch_single = []
        mirror_compact = []  # compact mirror index; `field` == never set
        for canonical_index in self._canonical_index:
            mirror_index = mirror[canonical_index]
            branch_both.append(term_fb[canonical_index])
            branch_mutual.append(
                term_fb[canonical_index]
                - term_b[canonical_index]
                + term_fb[mirror_index]
                - term_f[mirror_index]
            )
            branch_single.append(term_f[canonical_index] + term_b[mirror_index])
            compact_mirror = compact_of.get(1 << mirror_index)
            mirror_compact.append(
                field if compact_mirror is None else compact_mirror
            )
        self._branch_both = branch_both
        self._branch_mutual = branch_mutual
        self._branch_single = branch_single
        self._mirror_compact = mirror_compact
        term_f_np = np.asarray(term_f)
        if term_f_np.dtype.kind != "i":
            raise LearningError(
                "the batch kernel requires an integer-valued distance function"
            )
        self._term_f_np = term_f_np.astype(np.int64)
        self._term_b_np = np.asarray(term_b, dtype=np.int64)
        self._term_fb_np = np.asarray(term_fb, dtype=np.int64)
        self._generation_cache.clear()

    def _generation_arrays(self, bits: tuple[int, ...]) -> tuple:
        """Cached per-candidate index/delta arrays for one bits tuple."""
        entry = self._generation_cache.get(bits)
        if entry is None:
            words = self._words
            field = self._field
            compacts = [self._compact_of[bit] for bit in bits]
            canonical = np.asarray(
                [self._canonical_index[c] for c in compacts], dtype=np.int64
            )
            mirror = np.asarray(self.table.mirror_index, dtype=np.int64)[
                canonical
            ]
            compact = np.asarray(compacts, dtype=np.int64)
            word = words + (compact >> 6)
            shift = (compact & 63).astype(np.uint64)
            period_word = compact >> 6
            mirror_c = np.asarray(
                [self._mirror_compact[c] for c in compacts], dtype=np.int64
            )
            seen = (mirror_c < field).astype(np.uint64)
            mirror_safe = np.where(mirror_c < field, mirror_c, 0)
            mirror_word = words + (mirror_safe >> 6)
            mirror_shift = (mirror_safe & 63).astype(np.uint64)
            delta_new = self._term_f_np[canonical] + self._term_b_np[mirror]
            delta_mutual = (
                self._term_fb_np[canonical]
                - self._term_b_np[canonical]
                + self._term_fb_np[mirror]
                - self._term_f_np[mirror]
            )
            extension = [(1 << (field + c)) | (1 << c) for c in compacts]
            entry = (
                word,
                shift,
                period_word,
                mirror_word,
                mirror_shift,
                seen,
                delta_new,
                delta_mutual,
                extension,
            )
            self._generation_cache[bits] = entry
        return entry

    # -- the cascaded message step over combined compact keys ----------

    @hot_loop
    def _process_combined(
        self,
        centries: list[tuple[int, int]],
        bits: tuple[int, ...],
        history: Sequence[tuple[int, ...]],
    ) -> list[tuple[int, int]]:
        """One generalization step on combined compact keys.

        Child generation is vectorized over the whole pool × candidate
        matrix; the bound cascade consumes the rows in canonical order
        through an eager sorted-list pool, so insertion, dedup and merge
        order all match the loop kernel exactly.
        """
        counters = self._counters
        count = len(centries)
        words = self._words
        field = self._field
        nbytes = 16 * words
        keys = [entry[0] for entry in centries]
        weights = [entry[1] for entry in centries]
        (
            word,
            shift,
            period_word,
            mirror_word,
            mirror_shift,
            seen,
            delta_new,
            delta_mutual,
            extension,
        ) = self._generation_arrays(bits)
        columns = np.frombuffer(
            b"".join(key.to_bytes(nbytes, "little") for key in keys),
            dtype="<u8",
        ).reshape(count, 2 * words)
        present = (columns[:, word] >> shift) & 1
        mirrored = (columns[:, mirror_word] >> mirror_shift) & seen & 1
        feasible = ((columns[:, period_word] >> shift) & 1) == 0
        delta = np.where(
            present == 1, 0, np.where(mirrored == 1, delta_mutual, delta_new)
        )
        child_weights = (
            np.asarray(weights, dtype=np.int64)[:, None] + delta
        ).tolist()
        feasible_rows = feasible.tolist()
        counters.batch_messages += 1
        counters.batch_children += int(feasible.sum())

        bound = self.bound
        kernel = self._kernel
        pool: dict[int, int] = {}
        order: list[tuple[int, int]] = []  # ascending priority; lightest last
        pool_pop = pool.pop
        order_pop = order.pop
        branch_both = self._branch_both
        branch_mutual = self._branch_mutual
        branch_single = self._branch_single
        mirror_compact = self._mirror_compact
        merges = 0
        sequence = 0
        size = 0
        for row in range(count):
            key_base = keys[row]
            row_feasible = feasible_rows[row]
            row_weights = child_weights[row]
            any_feasible = False
            for column, ok in enumerate(row_feasible):
                if not ok:
                    continue
                any_feasible = True
                key = key_base | extension[column]
                weight = row_weights[column]
                pool[key] = weight
                if len(pool) == size:
                    continue
                size += 1
                sequence += 1
                insort(order, (-(weight << SEQ_BITS) - sequence, key))
                while size > bound:
                    _priority, first = order_pop()
                    first_weight = pool_pop(first)
                    _priority, second = order_pop()
                    pool_pop(second)
                    size -= 2
                    merged = first | second
                    merges += 1
                    if merged == first:
                        merged_weight = first_weight
                    else:
                        acquired = (second & ~first) >> field
                        if acquired:
                            base_mask = first >> field
                            delta_sum = 0
                            remaining = acquired
                            while remaining:
                                low = remaining & -remaining
                                remaining ^= low
                                i = low.bit_length() - 1
                                mi = mirror_compact[i]
                                if (acquired >> mi) & 1:
                                    delta_sum += branch_both[i]
                                elif (base_mask >> mi) & 1:
                                    delta_sum += branch_mutual[i]
                                else:
                                    delta_sum += branch_single[i]
                            merged_weight = first_weight + delta_sum
                        else:
                            merged_weight = first_weight
                    pool[merged] = merged_weight
                    if len(pool) != size:
                        size += 1
                        sequence += 1
                        insort(
                            order,
                            (-(merged_weight << SEQ_BITS) - sequence, merged),
                        )
            if not any_feasible:
                # Merged-lineage repair runs in canonical space: the
                # backtracking sorts candidate *bit values*, and compact
                # values would explore a different order.
                canonical_mask = self._decode_compact(key_base >> field)
                repaired = self._reassign_period(canonical_mask, history)
                counters.reassignments += 1
                if repaired is not None:
                    repaired_mask, repaired_period = repaired
                    counters.weight_scratch_calls += 1
                    repaired_weight = kernel.set_weight(repaired_mask)
                    key = (
                        self._encode_mask(repaired_mask) << field
                    ) | self._encode_mask(repaired_period)
                    pool[key] = repaired_weight
                    if len(pool) != size:
                        size += 1
                        sequence += 1
                        insort(
                            order,
                            (-(repaired_weight << SEQ_BITS) - sequence, key),
                        )
                        while size > bound:
                            _priority, first = order_pop()
                            first_weight = pool_pop(first)
                            _priority, second = order_pop()
                            pool_pop(second)
                            size -= 2
                            merged = first | second
                            merges += 1
                            if merged == first:
                                merged_weight = first_weight
                            else:
                                base_mask = self._decode_compact(first >> field)
                                other_mask = self._decode_compact(
                                    second >> field
                                )
                                merged_weight = first_weight + (
                                    kernel.union_delta(base_mask, other_mask)
                                )
                            pool[merged] = merged_weight
                            if len(pool) != size:
                                size += 1
                                sequence += 1
                                insort(
                                    order,
                                    (
                                        -(merged_weight << SEQ_BITS)
                                        - sequence,
                                        merged,
                                    ),
                                )
        self._merges += merges
        if not pool:
            raise EmptyHypothesisSpaceError(self._periods)
        return list(pool.items())

    # -- absorb override: combined keys across the message loop --------

    @hot_loop
    def _absorb(
        self, period: Period, dirty: frozenset[tuple[str, str]], mark: float
    ):
        counters = self._counters
        table = self.table
        dirty_indices = table.indices_of(dirty)
        version = self.stats.version
        if self._kernel is None or self._kernel_version != version - 1:
            self._kernel = WeightKernel(table, self.stats, self.distance)
        elif dirty_indices:
            self._kernel.flip(dirty_indices)
        self._kernel_version = version
        try:
            entries = self._refresh_weights(dirty_indices)
            now = time.perf_counter()
            counters.refresh_seconds += now - mark
            mark = now
            history: list[tuple[int, ...]] = []
            centries: list[tuple[int, int]] | None = None
            for message in period.messages:
                pairs = candidate_pairs(period, message, self.tolerance)
                if not pairs:
                    raise EmptyHypothesisSpaceError(self._periods)
                counters.observe_candidates(len(pairs))
                bits = table.bits_of(pairs)
                field_before = self._field
                grew = self._intern_bits(bits)
                if centries is None:
                    # First message: the carried masks may hold bits that
                    # never crossed a candidate set (checkpoint restore),
                    # so intern them before fixing this message's layout.
                    for mask, _period_mask, _weight in entries:
                        self._intern_mask_bits(mask)
                    need = max(1, (len(self._canonical_bit) + 63) >> 6)
                    if need != self._words:
                        self._words = need
                        self._field = 64 * need
                        grew = True
                    field = self._field
                    centries = [
                        (
                            (self._encode_mask(mask) << field)
                            | self._encode_mask(period_mask),
                            weight,
                        )
                        for mask, period_mask, weight in entries
                    ]
                elif grew:
                    counters.batch_relayouts += 1
                    field = self._field
                    low = (1 << field_before) - 1
                    centries = [
                        (
                            ((key >> field_before) << field) | (key & low),
                            weight,
                        )
                        for key, weight in centries
                    ]
                self._refresh_terms()
                history.append(bits)
                centries = self._process_combined(centries, bits, history)
                self._messages += 1
                self._peak = max(self._peak, len(centries))
            counters.process_seconds += time.perf_counter() - mark
            if centries is None:
                # Message-free period: nothing was combined, the refreshed
                # entries carry through unchanged (same as the loop path).
                return entries
            field = self._field
            low = (1 << field) - 1
            return [
                (
                    self._decode_compact(key >> field),
                    self._decode_compact(key & low),
                    weight,
                )
                for key, weight in centries
            ]
        except Exception:
            self._kernel.unflip(dirty_indices)
            raise

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
    "SEQ_BITS",
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
