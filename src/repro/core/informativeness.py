"""Classifying candidate tuples: informative, certain, or already labeled.

After each answered membership query JIM partitions the unlabeled candidate
tuples into

* **informative** tuples — consistent queries disagree on them, so labeling
  one of them narrows the space; these are the only tuples worth asking about;
* **certain-positive** tuples — every consistent query selects them; their
  label is implied, so they are "grayed out";
* **certain-negative** tuples — no consistent query selects them; likewise
  grayed out.

The classification of a tuple depends only on its equality type, the positive
mask ``M`` and the negative types (see :mod:`repro.core.space`), so all the
functions here work type-wise and are linear in the number of distinct types.

**Incremental classification.**  :class:`TypeStatusCache` memoises the
per-type certain label and the per-type count of unlabeled tuples, and
refreshes them with a *delta* after each label instead of re-deriving them
from scratch.  The invalidation rule exploits a monotonicity invariant of the
consistent space: while the example set stays consistent, a label only ever
shrinks ``M`` and grows the negative list, so a type that is already certain
can never become informative again (and never flips between certain-positive
and certain-negative).  After a label it therefore suffices to re-evaluate the
currently *informative* types; when the example set has become inconsistent
(non-strict mode) the invariant no longer holds and the cache falls back to a
full per-type recomputation.  The cache is the single source of truth for the
interactive loop's guard (:func:`has_informative_tuple` and
:meth:`InferenceState.has_informative_tuple` are both driven by it).
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence

from .equality_types import EqualityTypeIndex
from .examples import ExampleSet, Label
from .kernels import UNKNOWN, TypeTable, certain_codes, make_type_table
from .space import ConsistentQuerySpace


class TupleStatus(enum.Enum):
    """The status of one candidate tuple with respect to the current examples."""

    LABELED_POSITIVE = "labeled+"
    LABELED_NEGATIVE = "labeled-"
    CERTAIN_POSITIVE = "certain+"
    CERTAIN_NEGATIVE = "certain-"
    INFORMATIVE = "informative"

    @property
    def is_labeled(self) -> bool:
        """Whether the tuple was explicitly labeled by the user."""
        return self in (TupleStatus.LABELED_POSITIVE, TupleStatus.LABELED_NEGATIVE)

    @property
    def is_certain(self) -> bool:
        """Whether the tuple's label is implied but was not given by the user."""
        return self in (TupleStatus.CERTAIN_POSITIVE, TupleStatus.CERTAIN_NEGATIVE)

    @property
    def is_uninformative(self) -> bool:
        """Whether labeling the tuple would bring no new information.

        Both explicitly labeled tuples and certain tuples are uninformative;
        only :attr:`INFORMATIVE` tuples are worth presenting to the user.
        """
        return self is not TupleStatus.INFORMATIVE

    @property
    def implied_label(self) -> Label | None:
        """The label the status implies, when there is one."""
        if self in (TupleStatus.LABELED_POSITIVE, TupleStatus.CERTAIN_POSITIVE):
            return Label.POSITIVE
        if self in (TupleStatus.LABELED_NEGATIVE, TupleStatus.CERTAIN_NEGATIVE):
            return Label.NEGATIVE
        return None


def classify_tuple(
    space: ConsistentQuerySpace,
    examples: ExampleSet,
    tuple_id: int,
) -> TupleStatus:
    """Status of a single tuple under the current examples."""
    label = examples.label_of(tuple_id)
    if label is Label.POSITIVE:
        return TupleStatus.LABELED_POSITIVE
    if label is Label.NEGATIVE:
        return TupleStatus.LABELED_NEGATIVE
    certain = space.certain_label_for(space.type_index.mask(tuple_id))
    if certain is True:
        return TupleStatus.CERTAIN_POSITIVE
    if certain is False:
        return TupleStatus.CERTAIN_NEGATIVE
    return TupleStatus.INFORMATIVE


def classify_all(
    space: ConsistentQuerySpace,
    examples: ExampleSet,
    tuple_ids: Iterable[int] | None = None,
) -> dict[int, TupleStatus]:
    """Status of every tuple (or of the given ids), computed type-wise.

    The per-type certain label is computed once per distinct equality type,
    so the cost is O(#distinct types × #negatives) plus O(#tuples).
    """
    type_index = space.type_index
    if tuple_ids is not None:
        pairs = ((tuple_id, type_index.mask(tuple_id)) for tuple_id in tuple_ids)
    else:
        # Full sweep: stream the masks in tuple_id order — cheaper than a
        # per-id decode on factorized tables, without caching an O(#tuples)
        # materialisation on the index.
        pairs = zip(range(len(type_index)), type_index.iter_masks(), strict=True)
    certain_by_type: dict[int, bool | None] = {}
    statuses: dict[int, TupleStatus] = {}
    for tuple_id, mask in pairs:
        label = examples.label_of(tuple_id)
        if label is Label.POSITIVE:
            statuses[tuple_id] = TupleStatus.LABELED_POSITIVE
            continue
        if label is Label.NEGATIVE:
            statuses[tuple_id] = TupleStatus.LABELED_NEGATIVE
            continue
        if mask not in certain_by_type:
            certain_by_type[mask] = space.certain_label_for(mask)
        certain = certain_by_type[mask]
        if certain is True:
            statuses[tuple_id] = TupleStatus.CERTAIN_POSITIVE
        elif certain is False:
            statuses[tuple_id] = TupleStatus.CERTAIN_NEGATIVE
        else:
            statuses[tuple_id] = TupleStatus.INFORMATIVE
    return statuses


class TypeStatusCache:
    """Per-equality-type statuses, kept up to date by deltas.

    For every distinct equality type of the table the cache holds

    * the *certain label* the consistent space implies for the type
      (``True`` / ``False`` / ``None`` when consistent queries disagree), and
    * the number of *unlabeled* tuples of that type.

    A type is *informative* exactly when its certain label is ``None`` and it
    still has unlabeled tuples.  The state lives in an array-backed
    :class:`~repro.core.kernels.TypeTable` (numpy fast path, pure-Python
    fallback): :meth:`apply_label` refreshes all stale rows in one vectorized
    pass — certain types are never re-evaluated while the example set stays
    consistent (see the module docstring for why that is sound) — and
    :meth:`copy` is an O(1) copy-on-write of the column arrays, which makes
    cloning an inference state for lookahead simulation cheap.
    """

    def __init__(self, space: ConsistentQuerySpace, examples: ExampleSet) -> None:
        type_index = space.type_index
        masks = type_index.distinct_masks
        sizes = type_index.type_sizes()
        # Type-level: start from the cached type sizes and subtract the
        # (few) labeled tuples, instead of enumerating every tuple per type.
        self._table = make_type_table(masks, [sizes[mask] for mask in masks])
        self._table.refresh_certain(space.positive_mask, space.negative_masks)
        for tuple_id in examples.labeled_ids:
            self._table.decrement_unlabeled(type_index.mask(tuple_id))

    @property
    def kernel_table(self) -> TypeTable:
        """The underlying array-backed table (introspection/tests)."""
        return self._table

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def certain_label_for(self, type_mask: int) -> bool | None:
        """The memoised certain label of a type (``None`` = informative)."""
        return self._table.certain_of(type_mask)

    def unlabeled_count(self, type_mask: int) -> int:
        """Number of unlabeled tuples of the type."""
        return self._table.unlabeled_of(type_mask)

    def informative_types(self) -> Iterator[tuple[int, int]]:
        """``(type_mask, unlabeled_count)`` for every informative type."""
        return iter(self._table.informative_items())

    def informative_count(self) -> int:
        """Number of informative tuples (unlabeled tuples of informative types)."""
        return self._table.informative_count()

    def has_informative(self) -> bool:
        """Whether at least one informative tuple remains (the loop's guard)."""
        return self._table.has_informative()

    def prune_counts_for_restricted(
        self,
        restricted_masks: Sequence[int],
        positive_mask: int,
        negative_masks: Sequence[int],
    ) -> list[tuple[int, int]]:
        """Prune counts per restricted candidate type, via the table kernel.

        Delegates to :meth:`TypeTable.prune_counts_informative
        <repro.core.kernels._BaseTypeTable.prune_counts_informative>`, so a
        sharded table fans the evaluation across the shard pool while flat
        tables run the single batched kernel — callers (the strategies, via
        :class:`~repro.core.state.InferenceState`) never know the difference.
        """
        return self._table.prune_counts_informative(
            restricted_masks, positive_mask, negative_masks
        )

    @classmethod
    def scan_has_informative(
        cls, space: ConsistentQuerySpace, examples: ExampleSet
    ) -> bool:
        """One-shot loop-guard check, stopping at the first informative type.

        For callers without a long-lived cache: answers the same question as
        :meth:`has_informative` without materialising per-type state.  The
        per-type certain labels come from the batch
        :func:`~repro.core.kernels.certain_codes` kernel; its pure-Python
        path is lazy, so the scan still stops at the first informative type.
        """
        type_index = space.type_index
        labeled_per_type: dict[int, int] = {}
        for tuple_id in examples.labeled_ids:
            mask = type_index.mask(tuple_id)
            labeled_per_type[mask] = labeled_per_type.get(mask, 0) + 1
        sizes = type_index.type_sizes()
        masks = type_index.distinct_masks
        codes = certain_codes(masks, space.positive_mask, space.negative_masks)
        for mask, code in zip(masks, codes, strict=True):
            if code == UNKNOWN and sizes[mask] > labeled_per_type.get(mask, 0):
                return True
        return False

    # ------------------------------------------------------------------ #
    # Delta maintenance
    # ------------------------------------------------------------------ #
    def apply_label(
        self,
        space: ConsistentQuerySpace,
        tuple_id: int,
        newly_labeled: bool,
        consistent: bool = True,
    ) -> tuple[list[int], list[int]]:
        """Refresh the cache after one label against the post-label ``space``.

        Returns ``(types_now_certain_positive, types_now_certain_negative)``
        — the types that were informative before the label and are certain
        after it, which is exactly what a
        :class:`~repro.core.propagation.PropagationResult` needs.  The
        refresh is one vectorized pass over the stale rows; when the example
        set has become inconsistent the monotonicity invariant no longer
        holds and every row is re-evaluated.
        """
        if newly_labeled:
            self._table.decrement_unlabeled(space.type_index.mask(tuple_id))
        return self._table.refresh_certain(
            space.positive_mask, space.negative_masks, only_unknown=consistent
        )

    def copy(self) -> TypeStatusCache:
        """An independent copy (O(1) copy-on-write of the column arrays)."""
        clone = TypeStatusCache.__new__(TypeStatusCache)
        clone._table = self._table.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        informative = len(self._table.informative_items())
        return f"TypeStatusCache(types={len(self._table)}, informative_types={informative})"


def unlabeled_ids_of_types(
    type_index: EqualityTypeIndex,
    type_masks: Iterable[int],
    labeled_ids: frozenset[int],
) -> list[int]:
    """The unlabeled tuple ids of the given equality types, ascending.

    The shared materialisation step of :meth:`InferenceState.informative_ids
    <repro.core.state.InferenceState.informative_ids>` and
    :func:`~repro.core.propagation.delta_result`: per-type id lists come from
    the (possibly factorized, numpy-accelerated) index and are merged here.
    """
    ids = [
        tuple_id
        for mask in type_masks
        for tuple_id in type_index.tuples_with_mask(mask)
        if tuple_id not in labeled_ids
    ]
    ids.sort()
    return ids


def informative_ids(space: ConsistentQuerySpace, examples: ExampleSet) -> list[int]:
    """Ids of the informative tuples, in tuple-id order."""
    return [
        tuple_id
        for tuple_id, status in classify_all(space, examples).items()
        if status is TupleStatus.INFORMATIVE
    ]


def uninformative_ids(space: ConsistentQuerySpace, examples: ExampleSet) -> list[int]:
    """Ids of the unlabeled tuples whose label is already implied (grayed out)."""
    return [
        tuple_id
        for tuple_id, status in classify_all(space, examples).items()
        if status.is_certain
    ]


def has_informative_tuple(space: ConsistentQuerySpace, examples: ExampleSet) -> bool:
    """Whether at least one informative tuple remains (the loop's guard).

    Single source of truth for the guard: both this function and
    :meth:`InferenceState.has_informative_tuple` answer it through
    :class:`TypeStatusCache` — the state through its long-lived incremental
    cache, this convenience wrapper through the early-exit
    :meth:`TypeStatusCache.scan_has_informative`.
    """
    return TypeStatusCache.scan_has_informative(space, examples)
