"""Bulk mask operations over numpy ``uint64`` mask columns.

The learners process one hypothesis × candidate at a time; this module
re-expresses whole-pool kernel operations as bitwise ops over packed
mask columns (multi-word for > 64 pairs):

* **superset elimination and working-set counts** for the exact learner,
  :class:`~repro.core.exact.ExactLearner`
  (:func:`batch_remove_redundant_masks`, :func:`batch_minimal_products`,
  :func:`batch_cleared_counts`);
* **candidate feasibility and child weights** for every (hypothesis,
  candidate) cell at once (:func:`batch_extension_tables`), and
  **Definition 8 weights and LUB-merge deltas** of whole pools
  (:func:`batch_set_weights`, :func:`batch_union_deltas`). These are
  checked against the per-cell :class:`~repro.core.interning.WeightKernel`
  ops by the tests and replayed by the kernel-op benchmark
  (``benchmarks/throughput_json.py``); no learner calls them.

The bounded learner makes no numpy call: a message's pool is small and
repetitive, and plain ints serve it best
(:mod:`repro.core.heuristic`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.instrumentation import hot_loop
from repro.core.interning import WeightKernel
from repro.errors import LearningError

try:  # pragma: no cover - numpy ships with the toolchain
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


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
            "bulk weight ops require an integer-valued distance function"
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
        {"kernel": kernel, "certain": list(kernel._certain), "arrays": arrays}
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
    as ``(n, k)`` row lists matching the per-cell
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


__all__ = [
    "pack_masks",
    "unpack_masks",
    "batch_set_weights",
    "batch_union_deltas",
    "batch_extension_tables",
    "batch_remove_redundant_masks",
    "batch_minimal_products",
    "batch_cleared_counts",
]
