import numpy as np
import pytest

from embadapt import (
    EmbeddingTable,
    ItemSet,
    RelevanceSet,
    TextItem,
    split_train_val,
)
from embadapt.errors import DataError


def make_items(prefix, n):
    return ItemSet(TextItem(id=f"{prefix}{i}", text=f"text {i}") for i in range(1, n + 1))


class TestItemSet:
    def test_preserves_order_and_lookup(self):
        items = make_items("q", 3)
        assert items.ids == ["q1", "q2", "q3"]
        assert items["q2"].text == "text 2"

    def test_duplicate_id_rejected(self):
        with pytest.raises(DataError, match="q1"):
            ItemSet([TextItem(id="q1"), TextItem(id="q1")])

    def test_empty_id_rejected(self):
        with pytest.raises(DataError):
            TextItem(id="")


class TestRelevanceSet:
    def test_grades_and_implicit_negatives(self):
        rels = RelevanceSet([("q1", "c1", 2.0), ("q1", "c2", 1.0)])
        assert rels.grade("q1", "c1") == 2.0
        assert rels.grade("q1", "c9") == 0.0

    def test_duplicate_pair_rejected(self):
        with pytest.raises(DataError):
            RelevanceSet([("q1", "c1", 1.0), ("q1", "c1", 2.0)])

    def test_negative_grade_rejected(self):
        with pytest.raises(DataError):
            RelevanceSet([("q1", "c1", -0.5)])


class TestEmbeddingTable:
    def test_lookup_is_bit_exact(self):
        rng = np.random.default_rng(3)
        vecs = rng.standard_normal((5, 8)).astype(np.float32)
        table = EmbeddingTable([f"x{i}" for i in range(5)], vecs, "enc")
        for i in range(5):
            assert np.array_equal(table.vector(f"x{i}"), vecs[i])

    def test_vectors_are_read_only(self):
        table = EmbeddingTable(["a"], np.ones((1, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            table.vectors[0, 0] = 2.0

    def test_callers_writable_array_is_copied(self):
        vecs = np.ones((2, 3), dtype=np.float32)
        table = EmbeddingTable(["a", "b"], vecs)
        vecs[0, 0] = 5.0
        assert table.vector("a")[0] == 1.0
        assert vecs.flags.writeable

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            EmbeddingTable(["a"], np.array([[1.0, np.nan]], dtype=np.float32))

    def test_ragged_dim_rejected(self):
        with pytest.raises(DataError):
            EmbeddingTable(["a", "b"], np.ones((1, 4), dtype=np.float32))


class TestSplitTrainVal:
    @staticmethod
    def rels_for(n_queries):
        return RelevanceSet([(f"q{i}", f"c{i}", 1.0) for i in range(n_queries)])

    def test_80_20_split_of_10(self):
        train, val = split_train_val(self.rels_for(10), 0.8, seed=7)
        assert len(set(train.query_ids)) == 8
        assert len(set(val.query_ids)) == 2
        assert not set(train.query_ids) & set(val.query_ids)

    def test_deterministic(self):
        a = split_train_val(self.rels_for(10), 0.8, seed=7)
        b = split_train_val(self.rels_for(10), 0.8, seed=7)
        assert sorted(a[0].query_ids) == sorted(b[0].query_ids)
        assert sorted(a[1].query_ids) == sorted(b[1].query_ids)

    def test_partition_property(self):
        # brute-force set check: union is everything, intersection empty
        rels = self.rels_for(100)
        for seed in range(5):
            for ratio in (0.2, 0.5, 0.8):
                train, val = split_train_val(rels, ratio, seed)
                t, v = set(train.query_ids), set(val.query_ids)
                assert t | v == set(rels.query_ids)
                assert not t & v

    def test_triplets_follow_their_query(self):
        rels = RelevanceSet(
            [("q1", "c1", 1.0), ("q1", "c2", 2.0), ("q2", "c1", 1.0), ("q3", "c3", 1.0)]
        )
        train, val = split_train_val(rels, 0.67, seed=0)
        for side in (train, val):
            for qid in side.query_ids:
                assert side.grades_for(qid) == rels.grades_for(qid)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DataError):
            split_train_val(self.rels_for(1), 0.8, seed=0)
        with pytest.raises(DataError):
            split_train_val(self.rels_for(10), 0.01, seed=0)
        with pytest.raises(DataError):
            split_train_val(self.rels_for(10), 1.5, seed=0)
