import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from embadapt import EmbeddingTable, RelevanceSet, evaluate, init_adapter, transform
from embadapt import adapter, evaluation
from embadapt.errors import DataError, TagMismatchError
from embadapt.evaluation import ndcg_at_k, rank_candidates, ranked_lists, score_all
from embadapt.objectives import unit_rows

from synth import planted_task, seeded_output_layers


def table(ids, vecs, tag="enc"):
    return EmbeddingTable(ids, np.asarray(vecs, dtype=np.float32), tag)


def lexsort_oracle(q_rows, c_rows, cids, k):
    """Each query's float64 top k over every column: both sides cast to
    float64 and normalised by unit_rows, each pair's products summed over d
    and clipped, then the first k of a lexsort on (id, -score)."""
    q_unit, c_unit = (unit_rows(np.asarray(x, dtype=np.float64))[0] for x in (q_rows, c_rows))
    scores = np.clip((q_unit[:, None, :] * c_unit[None, :, :]).sum(axis=2), -1.0, 1.0)
    cids = np.array(cids)
    return [[(str(cids[j]), float(row[j])) for j in np.lexsort((cids, -row))[:k]]
            for row in scores]


class TestScoreAll:
    def test_hand_cosine_ranking(self):
        q = table(["q1"], [[1.0, 0.0]])
        c = table(["c1", "c2"], [[1.0, 0.0], [0.0, 1.0]])
        lists = ranked_lists(q, c)
        assert lists[0].entries[0] == ("c1", pytest.approx(1.0))
        assert lists[0].entries[1] == ("c2", pytest.approx(0.0))

    def test_zero_init_model_equals_zero_shot(self):
        rng = np.random.default_rng(0)
        q = table(["q1", "q2"], rng.standard_normal((2, 8)))
        c = table([f"c{i}" for i in range(5)], rng.standard_normal((5, 8)))
        model = init_adapter(8, 8, seed=1, encoder_tag="enc")
        assert np.array_equal(score_all(q, c), score_all(q, c, model))

    def test_corpus_permutation_invariance(self):
        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((6, 4))
        ids = [f"c{i}" for i in range(6)]
        q = table(["q"], rng.standard_normal((1, 4)))
        base = ranked_lists(q, table(ids, vecs))[0]
        perm = rng.permutation(6)
        shuffled = ranked_lists(q, table([ids[i] for i in perm], vecs[perm]))[0]
        assert base.entries == shuffled.entries

    def test_tie_break_ascending_id(self):
        q = table(["q"], [[1.0, 0.0]])
        c = table(["cb", "ca", "cc"], [[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        entries = ranked_lists(q, c)[0].entries
        assert [cid for cid, _ in entries] == ["ca", "cb", "cc"]

    def test_tag_mismatch_unforced(self):
        q = table(["q"], [[1.0, 0.0]], tag="enc-a")
        c = table(["c"], [[1.0, 0.0]], tag="enc-a")
        model = init_adapter(2, 2, seed=0, encoder_tag="enc-b")
        with pytest.raises(TagMismatchError):
            score_all(q, c, model)
        score_all(q, c, model, force=True)

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            score_all(table(["q"], [[1.0, 0.0]]), table(["c"], [[1.0, 0.0, 0.0]]))

    def test_k_capping(self):
        entries = rank_candidates(["c1", "c2"], np.array([0.5, 0.9]), k=3)
        assert len(entries) == 2


class TestTopK:
    def test_matches_lexsort_oracle_with_ties(self):
        # scores rounded to 2 decimals put runs of ties across the k-th position
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 300))
            ids = [f"doc{int(rng.integers(0, 4))}-{i:03d}" for i in rng.permutation(n)]
            scores = np.round(rng.uniform(-0.1, 0.1, n), 2)
            expected = np.lexsort((np.array(ids), -scores))
            for k in (1, 10, n - 1, n, n + 5, 2**64, None):
                got = rank_candidates(ids, scores, k)
                assert got == [(ids[i], float(scores[i])) for i in expected[:k]]

    def test_returns_the_callers_ids(self):
        # NumPy's U dtype drops trailing NULs, which would return the id "a"
        entries = rank_candidates(["a\x00", "b"], np.array([0.9, 0.1]), 2)
        assert entries == [("a\x00", 0.9), ("b", 0.1)]
        q = table(["q"], [[1.0, 0.0]])
        c = table(["b", "a\x00"], [[0.0, 1.0], [1.0, 0.0]])
        assert [cid for cid, _ in ranked_lists(q, c)[0].entries] == ["a\x00", "b"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            rank_candidates(["c1", "c2"], np.array([0.5, 0.9]), k)
        q = table(["q"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="k must be >= 1"):
            ranked_lists(q, table(["c"], [[1.0, 0.0]]), k=k)
        # checked before any scoring: the dim mismatch is never reached
        with pytest.raises(ValueError, match="k must be >= 1"):
            evaluate(q, table(["c"], [[1.0, 0.0, 0.0]]), RelevanceSet([("q", "c", 1.0)]), k=k)


class TestNdcg:
    def test_relevant_first_is_one(self):
        ranked = [("c1", 0.9), ("c2", 0.1)]
        assert ndcg_at_k(ranked, {"c1": 1.0}, k=10) == pytest.approx(1.0)

    def test_relevant_second_fixture(self):
        ranked = [("c2", 0.9), ("c1", 0.1)]
        got = ndcg_at_k(ranked, {"c1": 1.0}, k=10)
        assert got == pytest.approx(1 / math.log2(3), abs=1e-9)
        assert got == pytest.approx(0.63093, abs=1e-5)

    def test_graded_ideal_order_is_one(self):
        ranked = [("c1", 0.8), ("c2", 0.5)]
        for gain in ("standard", "paper-literal"):
            assert ndcg_at_k(ranked, {"c1": 3.0, "c2": 2.0}, k=10, gain=gain) == pytest.approx(1.0)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            ids = [f"c{i}" for i in range(n)]
            scores = rng.standard_normal(n)
            grades = {ids[i]: float(g) for i, g in enumerate(rng.choice([0, 0, 1, 2], n))}
            grades[ids[0]] = 1.0  # ensure at least one positive
            ranked = rank_candidates(ids, scores)
            v = ndcg_at_k(ranked, grades, k=5)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_monotone_transform_invariance(self):
        # binary grades, k >= M: any strictly increasing transform of scores
        rng = np.random.default_rng(4)
        ids = [f"c{i}" for i in range(6)]
        scores = rng.standard_normal(6)
        grades = {"c1": 1.0, "c4": 1.0}
        base = ndcg_at_k(rank_candidates(ids, scores), grades, k=6)
        for fn in (lambda s: 2 * s + 1, np.tanh, lambda s: s**3):
            got = ndcg_at_k(rank_candidates(ids, fn(scores)), grades, k=6)
            assert got == pytest.approx(base, abs=1e-12)

    def test_relabeling_invariance(self):
        ids = ["c1", "c2", "c3"]
        scores = np.array([0.3, 0.9, 0.5])
        grades = {"c2": 1.0, "c3": 2.0}
        base = ndcg_at_k(rank_candidates(ids, scores), grades, k=3)
        relabel = {"c1": "x9", "c2": "x5", "c3": "x7"}
        got = ndcg_at_k(
            rank_candidates([relabel[i] for i in ids], scores),
            {relabel[c]: g for c, g in grades.items()},
            k=3,
        )
        assert got == pytest.approx(base, abs=1e-12)

    def test_no_positive_rejected(self):
        with pytest.raises(DataError):
            ndcg_at_k([("c1", 0.5)], {}, k=10)

    def test_adds_left_to_right_on_every_python(self):
        # Python 3.12's sum() compensates and rounds this case to ...314
        ranked = [(f"c{i}", 1.0 - i / 10) for i in range(6)]
        grades = {"c3": 2.0, "c4": 2.0, "c5": 1.0}
        assert ndcg_at_k(ranked, grades, k=10).hex() == (0.5208427674883315).hex()

    def test_unknown_gain_rejected(self):
        with pytest.raises(ValueError, match="unknown gain mode: 'bogus'"):
            ndcg_at_k([("c1", 0.5)], {"c1": 1.0}, k=10, gain="bogus")
        # evaluate checks it before any scoring: the dim mismatch is never reached
        q = table(["q"], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="unknown gain mode: 'bogus'"):
            evaluate(q, table(["c"], [[1.0, 0.0, 0.0]]), RelevanceSet([("q", "c", 1.0)]),
                     gain="bogus")

    def test_paper_literal_gain_differs(self):
        # with 2^y gain, a retrieved zero-grade item still contributes
        ranked = [("c9", 0.9), ("c1", 0.1)]
        standard = ndcg_at_k(ranked, {"c1": 1.0}, k=2, gain="standard")
        literal = ndcg_at_k(ranked, {"c1": 1.0}, k=2, gain="paper-literal")
        assert standard == pytest.approx(1 / math.log2(3))
        expected_literal = (1.0 + 2.0 / math.log2(3)) / (2.0 + 1.0 / math.log2(3))
        assert literal == pytest.approx(expected_literal, abs=1e-9)


class TestEvaluate:
    def test_mean_of_per_query_values(self):
        q = table(["q1", "q2"], [[1.0, 0.0], [0.0, 1.0]])
        c = table(["c1", "c2"], [[1.0, 0.0], [0.0, 1.0]])
        rels = RelevanceSet([("q1", "c1", 1.0), ("q2", "c1", 1.0)])
        report = evaluate(q, c, rels, k=10)
        assert report.per_query_ndcg["q1"] == pytest.approx(1.0)
        assert report.per_query_ndcg["q2"] == pytest.approx(1 / math.log2(3))
        assert report.mean_ndcg == pytest.approx((1.0 + 1 / math.log2(3)) / 2)

    def test_queries_without_positives_excluded(self):
        q = table(["q1", "q2"], [[1.0, 0.0], [0.0, 1.0]])
        c = table(["c1"], [[1.0, 0.0]])
        rels = RelevanceSet([("q1", "c1", 1.0)])
        report = evaluate(q, c, rels)
        assert report.n_evaluated == 1
        assert report.n_skipped == 1
        assert "q2" not in report.per_query_ndcg

    def test_no_evaluable_query_errors(self):
        q = table(["q1"], [[1.0, 0.0]])
        c = table(["c1"], [[1.0, 0.0]])
        with pytest.raises(DataError):
            evaluate(q, c, RelevanceSet([]))

    def test_dangling_positive_of_a_scored_query_refused(self):
        q = table(["q1"], [[1.0, 0.0]])
        c = table(["c1"], [[1.0, 0.0]])
        with pytest.raises(DataError, match="missing embeddings"):
            evaluate(q, c, RelevanceSet([("q1", "c1", 1.0), ("q1", "zz", 1.0)]))
        # a qrels file may judge more queries than the query table holds
        assert evaluate(q, c, RelevanceSet([("q1", "c1", 1.0), ("q9", "zz", 1.0)])).mean_ndcg == 1.0

    def test_zero_init_model_bit_identical(self):
        rng = np.random.default_rng(2)
        q = table(["q1", "q2"], rng.standard_normal((2, 6)))
        c = table([f"c{i}" for i in range(8)], rng.standard_normal((8, 6)))
        rels = RelevanceSet([("q1", "c2", 1.0), ("q2", "c5", 2.0)])
        model = init_adapter(6, 6, seed=3, encoder_tag="enc")
        with_model = evaluate(q, c, rels, model)
        without = evaluate(q, c, rels)
        assert with_model.per_query_ndcg == without.per_query_ndcg

    @pytest.mark.parametrize("block", [1, 16])
    def test_blocked_equals_brute_force(self, monkeypatch, block):
        # more queries than one block, tied corpus rows, graded and missing
        # positives: every per-query nDCG equals a full sort of score_all
        n_q, n_c, k = block + 37, 60, 5
        q, base, _ = planted_task(n_queries=n_q, n_corpus=n_c, dim=8, seed=3)
        rng = np.random.default_rng(5)
        rows = base.vectors[rng.integers(0, 20, n_c)]
        c = EmbeddingTable([f"c{int(rng.integers(0, 3))}{i}" for i in range(n_c)],
                           rows, base.encoder_tag)
        triplets = [(qid, c.ids[j], float(rng.integers(1, 3)))
                    for qid in q.ids[:-3] for j in rng.choice(n_c, 3, replace=False)]
        rels = RelevanceSet(triplets)
        model = init_adapter(8, 8, seed=2, encoder_tag=base.encoder_tag)
        model.f_params.w2 = rng.standard_normal((8, 8)).astype(np.float32)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 8 * n_c * block)

        report = evaluate(q, c, rels, model, k=k)
        scores = score_all(q, c, model)
        cids = np.array(c.ids)
        expected = {}
        for i, qid in enumerate(q.ids[:-3]):
            order = np.lexsort((cids, -scores[i]))
            ranked = [(cids[j], float(scores[i, j])) for j in order]
            expected[qid] = ndcg_at_k(ranked, rels.positives_for(qid), k)
        assert report.per_query_ndcg == expected
        assert report.n_skipped == 3
        lists = ranked_lists(q, c, model, k=k)
        assert [r.query_id for r in lists] == q.ids
        for r, row in zip(lists, scores):
            assert [cid for cid, _ in r.entries] == list(cids[np.lexsort((cids, -row))[:k]])
        # evaluate scores exactly the lists that ranked_lists returns, and
        # skips exactly the queries without a positive
        skipped = {qid for qid in q.ids if not rels.positives_for(qid)}
        assert skipped == set(q.ids[-3:])
        assert set(q.ids) - set(report.per_query_ndcg) == skipped
        for r in lists:
            if r.query_id not in skipped:
                assert report.per_query_ndcg[r.query_id] == ndcg_at_k(
                    r.entries, rels.positives_for(r.query_id), k)

    def test_identity_model_skips_the_network(self, monkeypatch):
        q, c, rels = planted_task(n_queries=30, n_corpus=200, dim=8, seed=4)
        calls = []
        forward = adapter.mlp_forward
        monkeypatch.setattr(adapter, "mlp_forward",
                            lambda params, x: calls.append(len(x)) or forward(params, x))
        for separate in (False, True):
            fresh = init_adapter(8, 8, seed=1, separate_adapters=separate,
                                 encoder_tag=q.encoder_tag)
            assert evaluate(q, c, rels, fresh).to_json() == evaluate(q, c, rels).to_json()
        assert calls == []
        # without the skip connection a zero output layer maps every row to 0
        no_skip = init_adapter(8, 8, seed=1, use_skip=False, encoder_tag=q.encoder_tag)
        assert not score_all(q, c, no_skip).any()
        assert sum(calls) == len(q) + len(c)

    def test_tables_from_different_encoders_refused_unless_forced(self):
        q = table(["q1"], [[1.0, 0.0]], tag="enc-a")
        c = table(["c1"], [[1.0, 0.0]], tag="enc-b")
        rels = RelevanceSet([("q1", "c1", 1.0)])
        with pytest.raises(TagMismatchError, match="enc-a"):
            evaluate(q, c, rels)
        with pytest.raises(TagMismatchError, match="enc-a"):
            ranked_lists(q, c)
        assert evaluate(q, c, rels, force=True).mean_ndcg == 1.0
        assert ranked_lists(q, c, force=True)[0].entries[0][0] == "c1"

    def test_report_serialization(self):
        q = table(["q1"], [[1.0, 0.0]])
        c = table(["c1"], [[1.0, 0.0]])
        report = evaluate(q, c, RelevanceSet([("q1", "c1", 1.0)]))
        assert '"mean_ndcg": 1.0' in report.to_json()
        assert "mean nDCG@10" in report.to_text()


class TestBlockedSidePass:
    """Each side is adapted and normalised in row blocks; the results do not
    depend on the block size."""

    @staticmethod
    def task():
        # 50 corpus rows, rows 25..49 repeat rows 0..24 under other ids, so
        # every tie spans two blocks once a block holds fewer than 25 rows
        q, base, _ = planted_task(n_queries=13, n_corpus=25, dim=8, seed=6)
        rows = np.concatenate([base.vectors, base.vectors])
        c = EmbeddingTable([f"d{i % 5}-{i:02d}" for i in range(50)], rows, base.encoder_tag)
        rng = np.random.default_rng(8)
        rels = RelevanceSet([(qid, c.ids[j], float(rng.integers(1, 3)))
                             for qid in q.ids for j in rng.choice(50, 2, replace=False)])
        model = init_adapter(8, 8, seed=2, encoder_tag=base.encoder_tag)
        model.f_params.w2 = rng.standard_normal((8, 8)).astype(np.float32)
        model.f_params.b2 = rng.standard_normal(8).astype(np.float32)
        return q, c, rels, model

    @staticmethod
    def outputs(q, c, rels, model):
        values = [score_all(q, c, model)]
        if model is not None:
            values.append(transform(model, c.vectors, "corpus"))
        return (evaluate(q, c, rels, model, k=5).per_query_ndcg,
                [[cid for cid, _ in r.entries] for r in ranked_lists(q, c, model, k=20)],
                *values)

    def test_query_blocks_are_near_equal(self, monkeypatch):
        # a budget of 39 queries' scores cuts 40 queries into 20 and 20, not
        # 39 and a 1-row remainder, which BLAS would round differently
        q, c, rels = planted_task(n_queries=40, n_corpus=50, dim=8, seed=4)
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", 8 * len(c) * 39)
        blocks = []
        original = evaluation._screen

        def counted(q_side, c_side, rows, k):
            blocks.append(rows.stop - rows.start)
            return original(q_side, c_side, rows, k)

        monkeypatch.setattr(evaluation, "_screen", counted)
        evaluate(q, c, rels)
        assert blocks == [20, 20]
        blocks.clear()
        assert len(ranked_lists(q, c, k=3)) == 40
        assert blocks == [20, 20]

    @pytest.mark.parametrize("with_model", [True, False])
    def test_small_blocks_equal_one_block(self, monkeypatch, with_model):
        q, c, rels, model = self.task()
        model = model if with_model else None
        one = self.outputs(q, c, rels, model)
        # 7 rows of 8 float64 per block: 50 rows are 8 blocks of 6 or 7, not
        # seven blocks of 7 and a 1-row remainder
        monkeypatch.setattr(adapter, "ROW_BLOCK_BYTES", 7 * 8 * 8)
        assert [b.stop - b.start for b in adapter.row_blocks(50, 8)] == [6, 6, 6, 7, 6, 6, 6, 7]
        assert len(adapter.row_blocks(len(q), 8)) == 2
        many = self.outputs(q, c, rels, model)
        assert many[0] == one[0]
        assert many[1] == one[1]
        for blocked, whole in zip(many[2:], one[2:]):
            np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12)
        # the tied rows still score equally, so each tie is ordered by id
        scores = many[2]
        assert np.array_equal(scores[:, :25], scores[:, 25:])


class TestSearchPrecision:
    """ranked_lists, evaluate and score_all adapt each side with transform,
    in float32, and normalise and score in float64; training's loss alone
    adapts in float64."""

    @pytest.mark.parametrize("block_bytes", [None, 8 * 24 * 7])
    @pytest.mark.parametrize("separate", [False, True])
    def test_model_search_equals_search_over_transformed_tables(
            self, monkeypatch, separate, block_bytes):
        # bit for bit: the same ids, the same float64 scores and the same nDCG
        q, c, rels = planted_task(n_queries=30, n_corpus=200, dim=16, seed=7)
        model = seeded_output_layers(
            init_adapter(16, 24, seed=3, separate_adapters=separate,
                         encoder_tag=q.encoder_tag), seed=5)
        if block_bytes is not None:
            monkeypatch.setattr(adapter, "ROW_BLOCK_BYTES", block_bytes)
            assert len(adapter.row_blocks(len(c), 24)) > 1
        adapted_q = table(q.ids, transform(model, q.vectors, "query"), q.encoder_tag)
        adapted_c = table(c.ids, transform(model, c.vectors, "corpus"), c.encoder_tag)

        def bits(lists):
            return [(r.query_id, [(cid, s.hex()) for cid, s in r.entries]) for r in lists]

        assert bits(ranked_lists(q, c, model, k=10)) == bits(ranked_lists(adapted_q, adapted_c,
                                                                          k=10))

        def hexes(scores):
            return [[s.hex() for s in row] for row in scores.tolist()]

        assert hexes(score_all(q, c, model)) == hexes(score_all(adapted_q, adapted_c))
        assert (evaluate(q, c, rels, model).per_query_ndcg
                == evaluate(adapted_q, adapted_c, rels).per_query_ndcg)

    def test_model_that_overflows_float32_is_refused(self):
        # finite parameters, so load_checkpoint accepts them, but every output
        # column is 4 * 1e38, past the float32 range
        q = table(["q1"], [[1.0, 0.0, 0.0, 0.0]])
        c = table(["c1", "c2"], [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        model = init_adapter(4, seed=0, encoder_tag="enc")
        model.f_params.b1[...] = 100.0
        model.f_params.w2[...] = 1e38
        rels = RelevanceSet([("q1", "c1", 1.0)])
        for call in (lambda: transform(model, q.vectors), lambda: ranked_lists(q, c, model),
                     lambda: evaluate(q, c, rels, model), lambda: score_all(q, c, model)):
            with pytest.raises(DataError, match="query embeddings are not all finite"):
                call()

    def test_float32_forward_stays_near_float64_at_benchmark_shape(self):
        # d = hidden = 384 and the fixed checkpoint of the benchmark's infer workload
        q, c, rels = planted_task(n_queries=32, n_corpus=2000, dim=384, seed=1)
        model = seeded_output_layers(init_adapter(384, seed=1, encoder_tag=q.encoder_tag), 1)
        p = model.f_params

        def forward64(x):
            x = np.asarray(x, dtype=np.float64)
            w1, b1, w2, b2 = (a.astype(np.float64) for a in p.arrays())
            return x + np.tanh(x @ w1 + b1) @ w2 + b2

        def unit(x):
            return x / np.linalg.norm(x, axis=1, keepdims=True)

        adapted_c = forward64(c.vectors)
        out = transform(model, c.vectors, "corpus")
        assert out.dtype == np.float32
        assert np.max(np.abs(out - adapted_c)) <= 1e-5
        scores = unit(forward64(q.vectors)) @ unit(adapted_c).T
        cids = np.array(c.ids)
        index = {cid: j for j, cid in enumerate(c.ids)}
        # evaluate's nDCG equals the float64 reference's, the benchmark's 1e-9 rule
        expected = {qid: ndcg_at_k([(cids[j], row[j]) for j in np.lexsort((cids, -row))[:10]],
                                   rels.positives_for(qid), 10)
                    for qid, row in zip(q.ids, scores)}
        assert evaluate(q, c, rels, model).per_query_ndcg == expected
        for r, row in zip(ranked_lists(q, c, model, k=10), scores):
            reference = np.lexsort((cids, -row))[:10]
            got = [index[cid] for cid, _ in r.entries]
            assert len(got) == 10
            # a swap is allowed only among scores within 1e-6
            for (_, score), g, j in zip(r.entries, got, reference):
                assert abs(row[g] - row[j]) <= 1e-6
                assert abs(score - row[g]) <= 1e-6


class TestScreen:
    """ranked_lists screens every column in float32 and rescores in float64
    only those within screen_bound of each query's k-th screen score."""

    def test_float64_order_wins_over_planted_near_ties(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((1, 16)).astype(np.float32)
        # 60 rows along q whose cosines differ by about 1e-9, far below float32
        # resolution, and 40 random rows
        near = q * rng.uniform(0.5, 2.0, (60, 1)) + 1e-4 * rng.standard_normal((60, 16))
        rows = np.concatenate([near, rng.standard_normal((40, 16))]).astype(np.float32)
        ids = [f"c{i:03d}" for i in rng.permutation(100)]
        expected = lexsort_oracle(q, rows, ids, 10)[0]
        # float32 cosines, as the screen computes them, put other planted rows
        # in the top 10
        screen = (q / np.linalg.norm(q)) @ rows.T / np.linalg.norm(rows, axis=1)
        assert screen.dtype == np.float32
        by_screen = {ids[j] for j in np.lexsort((np.array(ids), -screen[0]))[:10]}
        assert {cid for cid, _ in expected} - by_screen
        assert ranked_lists(table(["q"], q), table(ids, rows), k=10)[0].entries == expected

    def test_identical_rows_all_survive_in_bounded_memory(self, monkeypatch):
        n_q, n_c = 400, 500
        rng = np.random.default_rng(1)
        q = table([f"q{i:03d}" for i in range(n_q)], rng.standard_normal((n_q, 4)))
        ids = [f"c{i:04d}" for i in rng.permutation(n_c)]
        c = table(ids, np.tile(rng.standard_normal((1, 4)), (n_c, 1)))
        block = 8 * n_c * 8  # 8 queries a block
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", block)
        kept = []
        screen = evaluation._screen

        def spy(*args):
            r, j = screen(*args)
            # every pair of the block's 8 queries, in (query, column) order
            kept.append(np.array_equal(r * n_c + j, np.arange(8 * n_c)))
            return r, j

        monkeypatch.setattr(evaluation, "_screen", spy)
        ranked_lists(q, c, k=3)
        assert len(kept) == n_q // 8 and all(kept)
        monkeypatch.undo()
        monkeypatch.setattr(evaluation, "SCORE_BLOCK_BYTES", block)
        tracemalloc.start()
        try:
            lists = ranked_lists(q, c, k=3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for r in lists:
            assert [cid for cid, _ in r.entries] == sorted(ids)[:3]
            assert len({s for _, s in r.entries}) == 1
        # beyond the lists returned: the scores of every pair would take 50
        # blocks, their float64 unit rows 200
        assert peak - kept < 12 * block

    @settings(deadline=None, max_examples=40, database=None)
    @given(st.data())
    def test_equals_float64_lexsort_oracle(self, data):
        # few distinct values give duplicate rows, zero rows and exact ties;
        # 1e-13 rows are degenerate, 1e-11 and 1e20 rows are outside the
        # screened norms
        values = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-13, 1e-11, 1e20]),
                           st.floats(-2.0, 2.0, width=32))
        d = data.draw(st.integers(1, 4), "d")

        def rows(n):
            return np.array(data.draw(st.lists(st.lists(values, min_size=d, max_size=d),
                                               min_size=n, max_size=n)), dtype=np.float32)

        q_rows, c_rows = rows(data.draw(st.integers(1, 5), "n_q")), rows(
            data.draw(st.integers(1, 12), "n_c"))
        n_c = len(c_rows)
        k = data.draw(st.sampled_from([k for k in (1, n_c - 1, n_c, n_c + 5) if k >= 1]), "k")
        model = None
        if data.draw(st.booleans(), "with model"):
            model = seeded_output_layers(
                init_adapter(d, seed=0, separate_adapters=data.draw(st.booleans()),
                             encoder_tag="enc"), data.draw(st.integers(0, 9), "model seed"))
            q_adapted = transform(model, q_rows, "query")
            c_adapted = transform(model, c_rows, "corpus")
        else:
            q_adapted, c_adapted = q_rows, c_rows
        qids = [f"q{i}" for i in range(len(q_rows))]
        cids = [f"c{i}" for i in data.draw(st.permutations(range(n_c)), "ids")]
        lists = ranked_lists(table(qids, q_rows), table(cids, c_rows), model, k=k)
        assert [r.query_id for r in lists] == qids
        assert [r.entries for r in lists] == lexsort_oracle(q_adapted, c_adapted, cids, k)


class TestGroupFloor:
    """_screen floors each query's screen by the k-th largest of its strided
    group maxima and lone tail columns, and gathers survivors only from the
    groups whose maximum reaches the floor. With GROUPS at 8, a corpus of 53
    columns is 8 groups of 6, column j < 48 in group j mod 8, and 5 lone
    columns. The lists equal the float64 oracle in every case."""

    @pytest.fixture(autouse=True)
    def eight_groups(self, monkeypatch):
        monkeypatch.setattr(evaluation, "GROUPS", 8)

    @staticmethod
    def ranked(q_rows, c_rows, k):
        """Each query's top k as column numbers, after checking the lists
        against lexsort_oracle."""
        cids = [f"c{i:02d}" for i in np.random.default_rng(0).permutation(len(c_rows))]
        lists = ranked_lists(table([f"q{i}" for i in range(len(q_rows))], q_rows),
                             table(cids, c_rows), k=k)
        expected = lexsort_oracle(q_rows, c_rows, cids, k)
        assert [r.entries for r in lists] == expected
        return [[cids.index(cid) for cid, _ in entries] for entries in expected]

    @staticmethod
    def rows(seed, n, d=6):
        return np.random.default_rng(seed).standard_normal((n, d)).astype(np.float32)

    @staticmethod
    def along(q, cols, c_rows):
        # rows along q at growing lengths, each a little off its direction
        noise = 1e-2 * np.random.default_rng(1).standard_normal((len(cols), q.shape[0]))
        c_rows[cols] = q * np.arange(1, len(cols) + 1)[:, None] + noise

    def test_top_k_in_one_group(self):
        q, c = self.rows(0, 3), self.rows(1, 53)
        self.along(q[0], [3, 11, 19, 27, 35], c)
        # the group maxima put one of the five in the pool, so the floor
        # falls below the 4th screen score
        top = self.ranked(q, c, 4)[0]
        assert {j % 8 for j in top} == {3}

    def test_top_columns_in_the_tail(self, monkeypatch):
        q, c = self.rows(2, 3), self.rows(3, 53)
        self.along(q[0], [48, 49, 50, 51, 52], c)
        self.along(q[1], [50, 2, 52], c)
        survivors = []
        screen = evaluation._screen
        monkeypatch.setattr(evaluation, "_screen",
                            lambda *args: survivors.append(screen(*args)) or survivors[-1])
        top = self.ranked(q, c, 3)
        assert all(j >= 48 for j in top[0])
        assert set(top[1]) == {50, 2, 52}
        # the lone columns are in the pool, so query 0's floor is its 3rd
        # screen score less the bound, and only its top 3 survive
        [(r, j)] = survivors
        assert sorted(j[r == 0].tolist()) == sorted(top[0])

    def test_wild_rows_on_either_side(self):
        q, c = self.rows(4, 4), self.rows(5, 53)
        # wild columns in a group and among the lone ones, one too large and
        # one too small to screen, both along q[0]; a zero row is degenerate
        c[5], c[50], c[12] = 1e20 * q[0], 1e-11 * q[0], 0.0
        # a query too small and one too large to screen
        q[1] *= np.float32(1e-11)
        q[2] *= np.float32(1e20)
        top = self.ranked(q, c, 4)
        assert {5, 50} <= set(top[0])

    @pytest.mark.parametrize("n_c", [1, 8, 12, 15])
    def test_corpus_smaller_than_two_groups(self, n_c):
        q, c = self.rows(6, 3), self.rows(7, n_c)
        for k in {1, 3, max(1, n_c - 1), n_c}:
            assert [len(t) for t in self.ranked(q, c, k)] == [min(k, n_c)] * 3

    @pytest.mark.parametrize("k", [8, 9, 10, 20, 52])
    def test_k_at_least_groups(self, k):
        q, c = self.rows(8, 3), self.rows(9, 53)
        self.along(q[0], list(range(0, 53, 5)), c)
        assert [len(t) for t in self.ranked(q, c, k)] == [k] * 3

    def test_ties_at_the_kth_score(self):
        # three distinct rows repeated over groups and lone columns: each
        # query's k-th score is tied across many columns, ordered by id
        base = self.rows(10, 3)
        c = base[np.random.default_rng(11).integers(0, 3, 53)]
        q = self.rows(12, 5)
        for k in (1, 5, 20):
            self.ranked(q, c, k)

    def test_random_group_counts(self, monkeypatch):
        rng = np.random.default_rng(13)
        values = np.array([0.0, 1.0, -1.0, 0.5, 1e-13, 1e-11, 1e20], dtype=np.float32)
        for _ in range(150):
            monkeypatch.setattr(evaluation, "GROUPS", int(rng.integers(1, 10)))
            n_c, d = int(rng.integers(1, 60)), int(rng.integers(1, 5))
            # few distinct values give ties; some rows are degenerate or wild
            c = np.where(rng.random((n_c, d)) < 0.3, rng.choice(values, (n_c, d)),
                         rng.standard_normal((n_c, d))).astype(np.float32)
            q = np.where(rng.random((4, d)) < 0.1, rng.choice(values, (4, d)),
                         rng.standard_normal((4, d))).astype(np.float32)
            self.ranked(q, c, int(rng.integers(1, n_c + 3)))

    def test_default_groups_on_a_corpus_below_two_groups(self, monkeypatch):
        monkeypatch.setattr(evaluation, "GROUPS", 1024)
        q, c = self.rows(14, 3, d=4), self.rows(15, 1500, d=4)
        self.along(q[0], [7, 1031, 1400], c)
        top = self.ranked(q, c, 10)
        assert {7, 1031, 1400} <= set(top[0])
