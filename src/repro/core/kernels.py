"""Array-backed inference kernels: flat type state and batched hot-loop math.

The interactive hot loop — lookahead scoring, propagation, type-status
recheck — works *type-wise*: every quantity it needs is a function of the
distinct equality types (bitmasks), the per-type unlabeled counts, and the
consistent space ``(M, N)``.  This module keeps that state in flat parallel
arrays instead of per-type Python objects and exposes each hot-loop operation
as a kernel over those arrays:

* :class:`TypeTable` (via :func:`make_type_table`) — the aligned vectors
  ``masks`` / ``sizes`` / ``certain`` / ``unlabeled``, in the order the
  distinct types were interned by
  :class:`~repro.core.equality_types.EqualityTypeIndex` (itself derived from
  the interned code arrays of :mod:`repro.relational.columnar`).  The table
  is the storage layer of
  :class:`~repro.core.informativeness.TypeStatusCache`.
* :meth:`TypeTable.refresh_certain` — re-derive every (stale) certain label
  against ``(M, N)`` in one vectorized pass, reporting the informative→certain
  flips propagation needs.
* :func:`prune_counts_batch` — the lookahead kernel: score *all* candidate
  restricted types against one informative snapshot at once, sharing the
  resolved-if-positive / resolved-if-negative sub-computations across
  candidates.
* :func:`certain_codes` — batch classification of arbitrary mask lists (the
  loop-guard scan).
* :class:`ShardedTypeTable` — the same contract over K contiguous shards,
  fanning per-shard kernel calls over the thread pool of
  :mod:`repro.core.parallel` and merging exact partial sums; large numpy
  tables shard automatically without changing a single trace.

**Fast path and fallback.**  When numpy is importable and every mask/count
fits in a signed 64-bit lane, the kernels run as numpy array expressions
(bitmask subset tests are exact in int64 two's complement for masks below
bit 63); otherwise a pure-Python implementation over :mod:`array` vectors
with identical semantics is used.  The backend is chosen per table/call by
:func:`default_backend`, overridable with the ``REPRO_KERNEL_BACKEND``
environment variable or the :func:`use_backend` context manager (which is how
the benchmarks compare python-vs-numpy traces in one process).

**Copy-on-write.**  :meth:`TypeTable.copy` is O(1): the clone shares the
array segments with its parent and both sides mark themselves borrowed; the
first mutation on either side copies the (small, per-type) arrays.  This is
what makes :meth:`InferenceState.simulate_label
<repro.core.state.InferenceState.simulate_label>` cheap enough for deep
lookahead.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence

from . import parallel as _parallel

try:  # The numpy fast path is optional; the pure-Python kernels are exact.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: Whether the numpy fast path is importable at all.
HAVE_NUMPY = _np is not None

#: Codes of the ``certain`` vector (one byte per type).
UNKNOWN = 0  # consistent queries disagree -> the type is informative
CERTAIN_POSITIVE = 1
CERTAIN_NEGATIVE = 2

_CODE_OF = {None: UNKNOWN, True: CERTAIN_POSITIVE, False: CERTAIN_NEGATIVE}
_LABEL_OF = {UNKNOWN: None, CERTAIN_POSITIVE: True, CERTAIN_NEGATIVE: False}

#: The numpy kernels hold atom-set bitmasks and counts in int64 lanes, so
#: they only apply below bit 63 (subset tests stay exact in two's complement).
_INT64_LIMIT = 1 << 62

_ENV_VAR = "REPRO_KERNEL_BACKEND"
_forced_backend: str | None = None


def _validate(backend: str) -> str:
    if backend not in ("python", "numpy"):
        raise ValueError(f"unknown kernel backend {backend!r}; use 'python' or 'numpy'")
    return backend


def available_backends() -> tuple[str, ...]:
    """The kernel backends usable in this interpreter."""
    return ("python", "numpy") if HAVE_NUMPY else ("python",)


def default_backend() -> str:
    """The backend new tables and batch kernels use.

    Resolution order: :func:`use_backend` override, then the
    ``REPRO_KERNEL_BACKEND`` environment variable, then numpy when available.
    A request for numpy silently degrades to python when numpy is missing, so
    the same configuration runs everywhere.
    """
    forced = _forced_backend
    if forced is None:
        env = os.environ.get(_ENV_VAR, "").strip().lower()
        forced = _validate(env) if env else None
    if forced == "numpy" and not HAVE_NUMPY:
        return "python"
    return forced if forced is not None else ("numpy" if HAVE_NUMPY else "python")


class use_backend:
    """Force the kernel backend within a ``with`` block (tests, benchmarks)."""

    def __init__(self, backend: str) -> None:
        self.backend = _validate(backend)
        self._previous: str | None = None

    def __enter__(self) -> use_backend:
        global _forced_backend
        self._previous = _forced_backend
        _forced_backend = self.backend
        return self

    def __exit__(self, *_exc: object) -> None:
        global _forced_backend
        _forced_backend = self._previous


def numpy_enabled() -> bool:
    """Whether the resolved backend is the numpy fast path."""
    return default_backend() == "numpy"


# --------------------------------------------------------------------- #
# Scalar reference semantics (shared by the pure-Python kernels)
# --------------------------------------------------------------------- #
def _certain_code(mask: int, positive_mask: int, negative_masks: Sequence[int]) -> int:
    """The certain-label code of one type under ``(M, N)``.

    Mirrors :meth:`ConsistentQuerySpace.certain_label_for
    <repro.core.space.ConsistentQuerySpace.certain_label_for>`: certain
    positive iff ``M ⊆ E(t)`` (no rejecting query), else certain negative iff
    ``M ∩ E(t)`` is contained in some negative type (no selecting query).
    """
    if positive_mask & ~mask == 0:
        return CERTAIN_POSITIVE
    restricted = positive_mask & mask
    for neg in negative_masks:
        if restricted & ~neg == 0:
            return CERTAIN_NEGATIVE
    return UNKNOWN


def _fits_int64(values: Iterable[int]) -> bool:
    return all(-_INT64_LIMIT <= value < _INT64_LIMIT for value in values)


def certain_codes(
    masks: Sequence[int],
    positive_mask: int,
    negative_masks: Sequence[int],
    backend: str | None = None,
) -> Iterator[int]:
    """Certain-label codes for a batch of type masks, lazily.

    The python path yields one code at a time so early-exit consumers (the
    loop-guard scan) stop at the first informative type; the numpy path
    classifies the whole batch in one vector pass.
    """
    chosen = backend or default_backend()
    if (
        chosen == "numpy"
        and HAVE_NUMPY
        and _fits_int64(masks)
        and _fits_int64((positive_mask, *negative_masks))
    ):
        return iter(
            _np_certain_codes(
                _np.asarray(masks, dtype=_np.int64), positive_mask, negative_masks
            ).tolist()
        )
    return (_certain_code(mask, positive_mask, negative_masks) for mask in masks)


def _np_certain_codes(masks_arr, positive_mask: int, negative_masks: Sequence[int]):
    """Vectorized :func:`_certain_code` over an int64 mask vector."""
    m = _np.int64(positive_mask)
    positive = (m & ~masks_arr) == 0
    restricted = m & masks_arr
    negative = _np.zeros(len(masks_arr), dtype=bool)
    for neg in negative_masks:
        negative |= (restricted & ~_np.int64(neg)) == 0
    codes = _np.full(len(masks_arr), UNKNOWN, dtype=_np.int8)
    codes[negative] = CERTAIN_NEGATIVE
    codes[positive] = CERTAIN_POSITIVE  # positive takes precedence, as in the scalar path
    return codes


def prune_counts_batch(
    info_masks: Sequence[int],
    info_counts: Sequence[int],
    restricted_candidates: Sequence[int],
    positive_mask: int,
    negative_masks: Sequence[int],
    backend: str | None = None,
) -> list[tuple[int, int]]:
    """``(resolved_if_positive, resolved_if_negative)`` per candidate type.

    ``info_masks`` / ``info_counts`` are the informative snapshot (full type
    masks and their unlabeled counts); each candidate is given by its
    *restricted* type ``E(t) ∩ M``, which fully determines its counts.  One
    K×I kernel evaluation replaces K independent per-candidate sweeps, and the
    subset tests against the negative list are shared across candidates.
    """
    chosen = backend or default_backend()
    if (
        chosen == "numpy"
        and HAVE_NUMPY
        and info_masks
        and restricted_candidates
        and _fits_int64(info_masks)
        and _fits_int64(restricted_candidates)
        and _fits_int64((positive_mask, sum(info_counts), *negative_masks))
    ):
        return _np_prune_counts(
            info_masks, info_counts, restricted_candidates, positive_mask, negative_masks
        )
    results: list[tuple[int, int]] = []
    for restricted_candidate in restricted_candidates:
        resolved_if_positive = 0
        resolved_if_negative = 0
        for mask, count in zip(info_masks, info_counts, strict=True):
            # If labeled positive: M shrinks to M ∩ E(t).
            restricted = restricted_candidate & mask
            if restricted_candidate & ~mask == 0:
                resolved_if_positive += count
            else:
                for neg in negative_masks:
                    if restricted & ~neg == 0:
                        resolved_if_positive += count
                        break
            # If labeled negative: E(t) joins the negative types.
            if (positive_mask & mask) & ~restricted_candidate == 0:
                resolved_if_negative += count
        results.append((resolved_if_positive, resolved_if_negative))
    return results


def _np_prune_counts(
    info_masks: Sequence[int],
    info_counts: Sequence[int],
    restricted_candidates: Sequence[int],
    positive_mask: int,
    negative_masks: Sequence[int],
) -> list[tuple[int, int]]:
    masks = _np.asarray(info_masks, dtype=_np.int64)[None, :]
    counts = _np.asarray(info_counts, dtype=_np.int64)[None, :]
    cand = _np.asarray(restricted_candidates, dtype=_np.int64)[:, None]
    positive = (cand & ~masks) == 0
    restricted = cand & masks
    negative = _np.zeros(restricted.shape, dtype=bool)
    for neg in negative_masks:
        negative |= (restricted & ~_np.int64(neg)) == 0
    resolved_plus = ((positive | negative) * counts).sum(axis=1)
    under_m = _np.int64(positive_mask) & masks
    resolved_minus = (((under_m & ~cand) == 0) * counts).sum(axis=1)
    return list(zip(resolved_plus.tolist(), resolved_minus.tolist(), strict=True))


# --------------------------------------------------------------------- #
# The type table
# --------------------------------------------------------------------- #
class _BaseTypeTable:
    """Shared surface of the two :class:`TypeTable` implementations.

    Rows are the distinct equality types, in interning order; ``certain`` and
    ``unlabeled`` are the mutable columns.  Mutators go through :meth:`_own`
    so that :meth:`copy` can lend the arrays out instead of duplicating them.
    """

    __slots__ = ("_masks", "_index", "_owned")

    def __init__(self, masks: Sequence[int]) -> None:
        self._masks: tuple[int, ...] = tuple(masks)
        self._index: dict[int, int] = {mask: i for i, mask in enumerate(self._masks)}
        self._owned = True

    def __len__(self) -> int:
        return len(self._masks)

    @property
    def masks(self) -> tuple[int, ...]:
        """The distinct type masks, in table order."""
        return self._masks

    def certain_of(self, mask: int) -> bool | None:
        """The memoised certain label of one type (``None`` = informative)."""
        raise NotImplementedError

    def unlabeled_of(self, mask: int) -> int:
        """Number of unlabeled tuples of one type."""
        raise NotImplementedError

    def decrement_unlabeled(self, mask: int) -> None:
        """One tuple of the type was labeled."""
        raise NotImplementedError

    def refresh_certain(
        self,
        positive_mask: int,
        negative_masks: Sequence[int],
        only_unknown: bool = True,
    ) -> tuple[list[int], list[int]]:
        """Re-derive certain labels against ``(M, N)``; report new flips.

        With ``only_unknown`` (the consistent-mode invariant) only currently
        informative rows are re-evaluated; otherwise every row is.  Returns
        the masks that went informative→certain-positive and
        informative→certain-negative, in table order.
        """
        raise NotImplementedError

    def informative_items(self) -> list[tuple[int, int]]:
        """``(mask, unlabeled_count)`` of every informative type, table order."""
        raise NotImplementedError

    def informative_count(self) -> int:
        """Total unlabeled tuples across informative types."""
        raise NotImplementedError

    def has_informative(self) -> bool:
        """Whether any informative tuple remains."""
        raise NotImplementedError

    def copy(self) -> TypeTable:
        """An O(1) copy-on-write clone sharing the column arrays."""
        raise NotImplementedError

    def prune_counts_informative(
        self,
        restricted_candidates: Sequence[int],
        positive_mask: int,
        negative_masks: Sequence[int],
        backend: str | None = None,
    ) -> list[tuple[int, int]]:
        """Score candidates against this table's own informative snapshot.

        The table-level entry point of the lookahead kernel: the snapshot is
        taken and consumed in one place, which is what lets
        :class:`ShardedTypeTable` override it with a fanned per-shard
        evaluation while callers stay backend- and sharding-agnostic.
        """
        items = self.informative_items()
        return prune_counts_batch(
            [mask for mask, _ in items],
            [count for _, count in items],
            restricted_candidates,
            positive_mask,
            negative_masks,
            backend=backend,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"{type(self).__name__}(types={len(self._masks)}, "
            f"informative={len(self.informative_items())}, owned={self._owned})"
        )


class PyTypeTable(_BaseTypeTable):
    """Pure-Python fallback: :mod:`array` columns, scalar loops."""

    __slots__ = ("_certain", "_unlabeled")

    def __init__(self, masks: Sequence[int], sizes: Sequence[int]) -> None:
        super().__init__(masks)
        self._certain = array("b", bytes(len(self._masks)))
        self._unlabeled = list(sizes)

    def _own(self) -> None:
        if not self._owned:
            self._certain = array("b", self._certain)
            self._unlabeled = list(self._unlabeled)
            self._owned = True

    def certain_of(self, mask: int) -> bool | None:
        return _LABEL_OF[self._certain[self._index[mask]]]

    def unlabeled_of(self, mask: int) -> int:
        return self._unlabeled[self._index[mask]]

    def decrement_unlabeled(self, mask: int) -> None:
        self._own()
        self._unlabeled[self._index[mask]] -= 1

    def refresh_certain(
        self,
        positive_mask: int,
        negative_masks: Sequence[int],
        only_unknown: bool = True,
    ) -> tuple[list[int], list[int]]:
        self._own()
        certain = self._certain
        flipped_positive: list[int] = []
        flipped_negative: list[int] = []
        for i, mask in enumerate(self._masks):
            old = certain[i]
            if only_unknown and old != UNKNOWN:
                continue
            new = _certain_code(mask, positive_mask, negative_masks)
            if new != old:
                certain[i] = new
                if old == UNKNOWN:
                    if new == CERTAIN_POSITIVE:
                        flipped_positive.append(mask)
                    else:
                        flipped_negative.append(mask)
        return flipped_positive, flipped_negative

    def informative_items(self) -> list[tuple[int, int]]:
        certain = self._certain
        unlabeled = self._unlabeled
        return [
            (mask, unlabeled[i])
            for i, mask in enumerate(self._masks)
            if certain[i] == UNKNOWN and unlabeled[i]
        ]

    def informative_count(self) -> int:
        certain = self._certain
        return sum(
            count for i, count in enumerate(self._unlabeled) if certain[i] == UNKNOWN
        )

    def has_informative(self) -> bool:
        certain = self._certain
        unlabeled = self._unlabeled
        return any(
            certain[i] == UNKNOWN and unlabeled[i] for i in range(len(self._masks))
        )

    def copy(self) -> PyTypeTable:
        clone = PyTypeTable.__new__(PyTypeTable)
        clone._masks = self._masks
        clone._index = self._index
        clone._certain = self._certain
        clone._unlabeled = self._unlabeled
        clone._owned = False
        self._owned = False
        return clone


class NumpyTypeTable(_BaseTypeTable):
    """numpy fast path: int64 mask lane, vectorized refresh and reductions."""

    __slots__ = ("_masks_arr", "_certain", "_unlabeled")

    def __init__(self, masks: Sequence[int], sizes: Sequence[int]) -> None:
        super().__init__(masks)
        self._masks_arr = _np.asarray(self._masks, dtype=_np.int64)
        self._certain = _np.zeros(len(self._masks), dtype=_np.int8)
        self._unlabeled = _np.asarray(sizes, dtype=_np.int64)

    def _own(self) -> None:
        if not self._owned:
            self._certain = self._certain.copy()
            self._unlabeled = self._unlabeled.copy()
            self._owned = True

    def certain_of(self, mask: int) -> bool | None:
        return _LABEL_OF[int(self._certain[self._index[mask]])]

    def unlabeled_of(self, mask: int) -> int:
        return int(self._unlabeled[self._index[mask]])

    def decrement_unlabeled(self, mask: int) -> None:
        self._own()
        self._unlabeled[self._index[mask]] -= 1

    def refresh_certain(
        self,
        positive_mask: int,
        negative_masks: Sequence[int],
        only_unknown: bool = True,
    ) -> tuple[list[int], list[int]]:
        self._own()
        certain = self._certain
        new_codes = _np_certain_codes(self._masks_arr, positive_mask, negative_masks)
        if only_unknown:
            stale = certain == UNKNOWN
            flip_pos = stale & (new_codes == CERTAIN_POSITIVE)
            flip_neg = stale & (new_codes == CERTAIN_NEGATIVE)
            certain[stale] = new_codes[stale]
        else:
            was_unknown = certain == UNKNOWN
            flip_pos = was_unknown & (new_codes == CERTAIN_POSITIVE)
            flip_neg = was_unknown & (new_codes == CERTAIN_NEGATIVE)
            certain[:] = new_codes
        masks = self._masks
        flipped_positive = [masks[i] for i in _np.nonzero(flip_pos)[0].tolist()]
        flipped_negative = [masks[i] for i in _np.nonzero(flip_neg)[0].tolist()]
        return flipped_positive, flipped_negative

    def informative_items(self) -> list[tuple[int, int]]:
        selector = (self._certain == UNKNOWN) & (self._unlabeled > 0)
        masks = self._masks
        unlabeled = self._unlabeled
        return [
            (masks[i], int(unlabeled[i])) for i in _np.nonzero(selector)[0].tolist()
        ]

    def informative_count(self) -> int:
        return int(self._unlabeled[self._certain == UNKNOWN].sum())

    def has_informative(self) -> bool:
        return bool(((self._certain == UNKNOWN) & (self._unlabeled > 0)).any())

    def copy(self) -> NumpyTypeTable:
        clone = NumpyTypeTable.__new__(NumpyTypeTable)
        clone._masks = self._masks
        clone._index = self._index
        clone._masks_arr = self._masks_arr
        clone._certain = self._certain
        clone._unlabeled = self._unlabeled
        clone._owned = False
        self._owned = False
        return clone


class ShardedTypeTable:
    """K contiguous shards of one type table, fanned across the shard pool.

    The table's rows (distinct types, interning order) are partitioned into
    contiguous spans via :func:`repro.core.parallel.even_ranges`; each span
    is an ordinary flat :class:`TypeTable` on its own backend.  The full
    contract holds with trace-identical results:

    * per-row reads/writes route to the owning shard through the row index;
    * :meth:`refresh_certain` fans per shard and concatenates the flip lists
      in shard order, which *is* table order (shards are contiguous);
    * :meth:`informative_items` concatenates shard snapshots the same way,
      so downstream tie-breaks (smallest unlabeled id) see the exact
      sequence an unsharded table would produce;
    * :meth:`prune_counts_informative` evaluates per-shard partial sums —
      exact integer sums over a partition of the snapshot — and merges them
      elementwise, reproducing the unsharded kernel bit for bit;
    * :meth:`copy` clones each shard copy-on-write, so clones stay O(1) and
      mutations on either side never leak across.

    :meth:`prune_counts_informative` runs its shards concurrently through
    :func:`repro.core.parallel.fan_out`; every other method loops over the
    shards on the calling thread.
    """

    __slots__ = ("_masks", "_index", "_shards", "_starts")

    def __init__(
        self,
        masks: Sequence[int],
        sizes: Sequence[int],
        shards: int,
        backend: str | None = None,
    ) -> None:
        self._masks: tuple[int, ...] = tuple(masks)
        self._index: dict[int, int] = {mask: i for i, mask in enumerate(self._masks)}
        sizes = list(sizes)
        bounds = _parallel.even_ranges(len(self._masks), shards)
        self._starts: tuple[int, ...] = tuple(start for start, _ in bounds)
        self._shards: tuple[PyTypeTable | NumpyTypeTable, ...] = tuple(
            _make_flat_type_table(self._masks[start:stop], sizes[start:stop], backend)
            for start, stop in bounds
        )

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._masks)

    @property
    def masks(self) -> tuple[int, ...]:
        """The distinct type masks, in table order."""
        return self._masks

    @property
    def shards(self) -> tuple[PyTypeTable | NumpyTypeTable, ...]:
        """The per-shard flat tables, in table order (introspection/tests)."""
        return self._shards

    def _shard_of(self, mask: int) -> PyTypeTable | NumpyTypeTable:
        row = self._index[mask]
        return self._shards[bisect_right(self._starts, row) - 1]

    # ------------------------------------------------------------------ #
    # The TypeTable contract, fanned per shard
    # ------------------------------------------------------------------ #
    def certain_of(self, mask: int) -> bool | None:
        """The memoised certain label of one type (``None`` = informative)."""
        return self._shard_of(mask).certain_of(mask)

    def unlabeled_of(self, mask: int) -> int:
        """Number of unlabeled tuples of one type."""
        return self._shard_of(mask).unlabeled_of(mask)

    def decrement_unlabeled(self, mask: int) -> None:
        """One tuple of the type was labeled."""
        self._shard_of(mask).decrement_unlabeled(mask)

    def refresh_certain(
        self,
        positive_mask: int,
        negative_masks: Sequence[int],
        only_unknown: bool = True,
    ) -> tuple[list[int], list[int]]:
        """Per-shard refresh; flip lists concatenated in shard = table order.

        The shards refresh one after another on the calling thread: one
        refresh is a few vector passes, shorter than a thread hand-off
        (about 100 µs in a loop against 280 µs fanned, 1,500 types on 2
        CPUs).
        """
        flipped_positive: list[int] = []
        flipped_negative: list[int] = []
        for shard in self._shards:
            positive, negative = shard.refresh_certain(positive_mask, negative_masks, only_unknown)
            flipped_positive.extend(positive)
            flipped_negative.extend(negative)
        return flipped_positive, flipped_negative

    def informative_items(self) -> list[tuple[int, int]]:
        """``(mask, unlabeled_count)`` of every informative type, table order."""
        items: list[tuple[int, int]] = []
        for shard in self._shards:
            items.extend(shard.informative_items())
        return items

    def informative_count(self) -> int:
        """Total unlabeled tuples across informative types."""
        return sum(shard.informative_count() for shard in self._shards)

    def has_informative(self) -> bool:
        """Whether any informative tuple remains."""
        return any(shard.has_informative() for shard in self._shards)

    def copy(self) -> ShardedTypeTable:
        """An O(1) clone: per-shard copy-on-write, shared mask column."""
        clone = ShardedTypeTable.__new__(ShardedTypeTable)
        clone._masks = self._masks
        clone._index = self._index
        clone._starts = self._starts
        clone._shards = tuple(shard.copy() for shard in self._shards)
        return clone

    def prune_counts_informative(
        self,
        restricted_candidates: Sequence[int],
        positive_mask: int,
        negative_masks: Sequence[int],
        backend: str | None = None,
    ) -> list[tuple[int, int]]:
        """The lookahead kernel as a sum of per-shard partial evaluations."""
        candidates = list(restricted_candidates)
        if not candidates:
            return []
        partials = _parallel.fan_out(
            lambda shard: shard.prune_counts_informative(
                candidates, positive_mask, negative_masks, backend=backend
            ),
            self._shards,
        )
        return _parallel.merge_partial_counts(partials)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ShardedTypeTable(types={len(self._masks)}, shards={len(self._shards)}, "
            f"informative={len(self.informative_items())})"
        )


TypeTable = PyTypeTable | NumpyTypeTable | ShardedTypeTable


def _numpy_table_fits(masks: Sequence[int], sizes: Sequence[int], backend: str | None) -> bool:
    """Whether a flat table over these rows would be a :class:`NumpyTypeTable`."""
    chosen = backend or default_backend()
    return (
        chosen == "numpy"
        and HAVE_NUMPY
        and _fits_int64(masks)
        and _fits_int64((sum(sizes),))
    )


def _make_flat_type_table(
    masks: Sequence[int], sizes: Sequence[int], backend: str | None
) -> PyTypeTable | NumpyTypeTable:
    if _numpy_table_fits(masks, sizes, backend):
        return NumpyTypeTable(masks, sizes)
    return PyTypeTable(masks, sizes)


def make_type_table(
    masks: Sequence[int],
    sizes: Sequence[int],
    backend: str | None = None,
    shards: int | None = None,
) -> TypeTable:
    """A fresh type table on the resolved backend (all labels UNKNOWN).

    The numpy table requires every mask to fit the int64 lane and the total
    tuple count to stay summable in int64; tables that do not fit (universes
    past 62 atoms) silently use the pure-Python implementation instead.

    Large numpy tables shard automatically: with
    ``k = repro.core.parallel.auto_shards(len(masks))`` at 2 or more, the
    result is a :class:`ShardedTypeTable` of ``k`` shards fanned over
    threads; otherwise it is the flat table.  An explicit ``shards`` always
    builds a :class:`ShardedTypeTable` of that many shards (clamped to the
    row count), on any backend.
    """
    if shards is None:
        shards = _parallel.auto_shards(len(masks))
        if shards < 2 or not _numpy_table_fits(masks, sizes, backend):
            return _make_flat_type_table(masks, sizes, backend)
    return ShardedTypeTable(masks, sizes, shards=shards, backend=backend)
