"""Tests for the per-tuple equality-type index."""

from __future__ import annotations

import pytest

from repro import EqualityAtom, EqualityTypeIndex


@pytest.fixture
def index(figure1_universe) -> EqualityTypeIndex:
    return EqualityTypeIndex(figure1_universe)


class TestMasks:
    def test_one_mask_per_tuple(self, index, figure1_table):
        assert len(index) == len(figure1_table)
        assert len(index.masks) == 12

    def test_selected_by_matches_query_evaluation(self, index, figure1_universe, query_q1):
        mask = query_q1.mask(figure1_universe)
        assert index.selected_by(mask) == query_q1.evaluate(figure1_universe.table)

    def test_selected_by_matches_query_evaluation_q2(self, index, figure1_universe, query_q2):
        mask = query_q2.mask(figure1_universe)
        assert index.selected_by(mask) == query_q2.evaluate(figure1_universe.table)

    def test_count_selected_by(self, index, figure1_universe, query_q1):
        mask = query_q1.mask(figure1_universe)
        assert index.count_selected_by(mask) == len(query_q1.evaluate(figure1_universe.table))

    def test_empty_query_selects_everything(self, index):
        assert index.count_selected_by(0) == 12

    def test_atom_count(self, index, figure1_universe):
        tuple3 = 2
        assert index.atom_count(tuple3) == 2


class TestFactorizedIndex:
    @pytest.fixture
    def product_index(self):
        from repro.core.atoms import AtomUniverse
        from repro.datasets.synthetic import SyntheticConfig, generate_instance
        from repro.relational.candidate import CandidateTable

        instance = generate_instance(
            SyntheticConfig(
                num_relations=2, attributes_per_relation=2, tuples_per_relation=6, domain_size=3
            )
        )
        table = CandidateTable.cross_product(instance)
        return EqualityTypeIndex(AtomUniverse.from_table(table))

    def test_construction_does_not_materialize_rows(self, product_index):
        assert not product_index.table.is_materialized()

    def test_type_sizes_cover_the_table_without_enumeration(self, product_index):
        assert sum(product_index.type_sizes().values()) == len(product_index.table)
        assert not product_index.table.is_materialized()

    def test_masks_match_row_at_a_time_evaluation(self, product_index):
        universe = product_index.universe
        expected = tuple(universe.equality_mask(row) for row in product_index.table.rows)
        assert product_index.masks == expected
        assert [product_index.mask(tid) for tid in range(len(expected))] == list(expected)

    def test_tuples_with_mask_enumerated_lazily_and_sorted(self, product_index):
        for mask in product_index.distinct_masks:
            ids = product_index.tuples_with_mask(mask)
            assert list(ids) == sorted(ids)
            assert len(ids) == product_index.type_sizes()[mask]

    def test_iter_masks_streams_without_caching(self, product_index):
        universe = product_index.universe
        expected = [universe.equality_mask(row) for row in product_index.table]
        assert list(product_index.iter_masks()) == expected
        assert product_index._masks is None  # no O(#tuples) cache left behind

    def test_distinct_masks_and_type_sizes_are_cached(self, product_index):
        assert product_index.distinct_masks is product_index.distinct_masks
        assert product_index.type_sizes() is product_index.type_sizes()

    def test_type_sizes_view_is_read_only(self, product_index):
        with pytest.raises(TypeError):
            product_index.type_sizes()[0] = 99


class TestGrouping:
    def test_groups_partition_the_tuples(self, index):
        grouped = [tid for mask in index.distinct_masks for tid in index.tuples_with_mask(mask)]
        assert sorted(grouped) == list(range(12))

    def test_tuples_sharing_a_type_are_indistinguishable(self, index, figure1_universe):
        # Tuples (3) and (4) of the paper share the type {To≍City, Airline≍Discount}.
        mask = figure1_universe.mask_of(
            [EqualityAtom.of("To", "City"), EqualityAtom.of("Airline", "Discount")]
        )
        assert set(index.tuples_with_mask(mask)) == {2, 3}

    def test_type_sizes_sum_to_table_size(self, index):
        assert sum(index.type_sizes().values()) == 12

    def test_unknown_mask_has_no_tuples(self, index, figure1_universe):
        assert index.tuples_with_mask(figure1_universe.full_mask) == ()

    def test_distinct_types_fewer_than_tuples(self, index):
        assert 1 <= len(index.distinct_masks) <= 12

    def test_iteration_yields_masks(self, index):
        assert list(index) == list(index.masks)


class _NoArrays:
    """Stands in for numpy: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used under the python backend")


def test_python_backend_switches_off_every_array_fast_path(monkeypatch, figure1_universe):
    from repro.core import equality_types, kernels
    from repro.core.atoms import AtomUniverse
    from repro.datasets.synthetic import SyntheticConfig, generate_instance, random_goal_query
    from repro.relational import columnar
    from repro.relational.candidate import CandidateTable

    product = CandidateTable.cross_product(
        generate_instance(
            SyntheticConfig(
                num_relations=2, attributes_per_relation=2, tuples_per_relation=6, domain_size=3
            )
        )
    )
    goal = random_goal_query(product, num_atoms=1, seed=0)
    monkeypatch.setattr(columnar, "_np", _NoArrays())
    monkeypatch.setattr(equality_types, "_np", _NoArrays())
    with kernels.use_backend("python"):
        flat = EqualityTypeIndex(figure1_universe)  # columnar equality masks
        factorized = EqualityTypeIndex(AtomUniverse.from_table(product))
        sizes = [len(factorized.tuples_with_mask(mask)) for mask in factorized.distinct_masks]
        selected = goal.evaluate(product)  # per-combination id expansion
    assert len(flat) == len(figure1_universe.table)
    assert sum(sizes) == len(product)
    assert selected and not product.is_materialized()
