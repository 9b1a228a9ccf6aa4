import math
import warnings

import numpy as np
import pytest

import embadapt
from embadapt import (
    EmbeddingTable,
    RelevanceSet,
    TrainConfig,
    evaluate,
    init_adapter,
    split_train_val,
    train,
)
from embadapt.errors import DataError, TagMismatchError, TrainingDivergedError
from embadapt.objectives import LOSS_VARIANTS
from embadapt import trainer
from embadapt.trainer import _flatten_trainable, loss_and_param_grads, make_batch

from synth import planted_task, seeded_output_layers

REL_TOL = 1e-4
ABS_FLOOR = 1e-6
# small step keeps central differences away from the L1 kinks in the
# recovery and prediction terms; forward math is float64 so noise stays low
FD_STEP = 1e-5


def small_dataset(seed=0, n_q=6, n_c=20, dim=8):
    rng = np.random.default_rng(seed)
    qids = [f"q{i}" for i in range(n_q)]
    cids = [f"c{j}" for j in range(n_c)]
    q = EmbeddingTable(qids, rng.standard_normal((n_q, dim)).astype(np.float32), "t")
    c = EmbeddingTable(cids, rng.standard_normal((n_c, dim)).astype(np.float32), "t")
    rels = RelevanceSet([(qids[i], cids[i], 1.0) for i in range(n_q)])
    return q, c, rels


def scanning_make_batch(train_rels, query_ids, corpus_ids, ratio, rng):
    """make_batch as it was before O(batch) sampling: the negative pool is a
    list of every corpus id that is not a batch positive. Kept as the
    reference for the candidates, grades and RNG stream of make_batch."""
    positive_ids, seen = [], set()
    for qid in query_ids:
        for cid in train_rels.positives_for(qid):
            if cid not in seen:
                seen.add(cid)
                positive_ids.append(cid)
    pool = [cid for cid in corpus_ids if cid not in seen]
    n_neg = min(ratio * len(positive_ids), len(pool))
    negatives = (
        [pool[i] for i in rng.choice(len(pool), size=n_neg, replace=False)]
        if n_neg > 0
        else []
    )
    candidates = positive_ids + negatives
    grades = np.zeros((len(query_ids), len(candidates)), dtype=np.float32)
    col = {cid: j for j, cid in enumerate(candidates)}
    for i, qid in enumerate(query_ids):
        for cid, y in train_rels.positives_for(qid).items():
            if cid in col:
                grades[i, col[cid]] = y
    return candidates, grades


def positives(rels):
    """make_batch's first argument, as train builds it."""
    return {qid: rels.positives_for(qid) for qid in rels.query_ids}


def id_table(corpus_ids):
    return EmbeddingTable(corpus_ids, np.ones((len(corpus_ids), 1), dtype=np.float32))


def batch_ids(rels, query_ids, corpus_ids, ratio, rng):
    """make_batch over a table of corpus_ids, with the rows turned back into ids."""
    rows, grades = make_batch(positives(rels), query_ids, id_table(corpus_ids), ratio, rng)
    return [corpus_ids[r] for r in rows], grades


class TestMakeBatch:
    def test_candidate_count_with_headroom(self):
        rels = RelevanceSet([("q0", "c0", 1.0), ("q1", "c1", 1.0), ("q1", "c2", 1.0)])
        corpus_ids = [f"c{j}" for j in range(100)]
        rng = np.random.default_rng(0)
        candidates, grades = batch_ids(rels, ["q0", "q1"], corpus_ids, 10, rng)
        assert len(candidates) == 3 + 30
        assert grades.shape == (2, 33)

    def test_negatives_capped_at_corpus(self):
        rels = RelevanceSet([("q0", "c0", 1.0), ("q1", "c1", 1.0)])
        rng = np.random.default_rng(0)
        candidates, _ = batch_ids(rels, ["q0", "q1"], ["c0", "c1"], 10, rng)
        assert sorted(candidates) == ["c0", "c1"]

    def test_positives_always_included(self):
        rels = RelevanceSet([(f"q{i}", f"c{i}", 1.0) for i in range(5)])
        corpus_ids = [f"c{j}" for j in range(50)]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            candidates, grades = batch_ids(rels, ["q1", "q3"], corpus_ids, 3, rng)
            assert {"c1", "c3"} <= set(candidates)
            assert grades[0, candidates.index("c1")] == 1.0
            assert grades[1, candidates.index("c3")] == 1.0

    def test_grades_filled_from_rels(self):
        rels = RelevanceSet([("q0", "c0", 2.0), ("q0", "c1", 1.0)])
        rng = np.random.default_rng(1)
        candidates, grades = batch_ids(rels, ["q0"], [f"c{j}" for j in range(10)], 2, rng)
        assert grades[0, candidates.index("c0")] == 2.0
        assert grades[0, candidates.index("c1")] == 1.0

    def test_query_without_positive_rejected(self):
        rels = RelevanceSet([("q0", "c0", 1.0)])
        with pytest.raises(DataError):
            batch_ids(rels, ["q9"], ["c0", "c1"], 2, np.random.default_rng(0))

    def test_deterministic_given_rng_state(self):
        rels = RelevanceSet([(f"q{i}", f"c{i}", 1.0) for i in range(4)])
        corpus_ids = [f"c{j}" for j in range(40)]
        a = batch_ids(rels, ["q0", "q2"], corpus_ids, 5, np.random.default_rng(9))
        b = batch_ids(rels, ["q0", "q2"], corpus_ids, 5, np.random.default_rng(9))
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("seed", range(60))
    def test_equals_pool_scan(self, seed):
        rng = np.random.default_rng(seed)
        n_c = int(rng.integers(1, 400))
        corpus_ids = [f"c{j:03d}" for j in rng.permutation(n_c)]
        n_q = int(rng.integers(1, 12))
        judged = {}
        for i in range(n_q):
            k = int(rng.integers(1, min(4, n_c) + 1))
            cols = rng.choice(n_c, size=k, replace=False)
            # multi-positive, graded, shared between queries, and grade-0 judged ids
            grades = rng.choice([0.0, 1.0, 2.0], size=k)
            grades[0] = 1.0
            judged.update({(f"q{i}", corpus_ids[j]): y for j, y in zip(cols, grades)})
        if seed % 5 == 0:  # positives at the first and last corpus rows
            judged[("q0", corpus_ids[0])] = 3.0
            judged[(f"q{n_q - 1}", corpus_ids[-1])] = 2.0
        rels = RelevanceSet((q, c, y) for (q, c), y in judged.items())
        query_ids = [f"q{i}" for i in rng.permutation(n_q)]
        # a ratio of 50 often asks for more negatives than the pool holds
        ratio = int(rng.choice([1, 3, 10, 50]))
        old_rng, new_rng = (np.random.default_rng(seed + 1000) for _ in range(2))
        old_ids, old_grades = scanning_make_batch(rels, query_ids, corpus_ids, ratio, old_rng)
        new_ids, new_grades = batch_ids(rels, query_ids, corpus_ids, ratio, new_rng)
        assert new_ids == old_ids
        assert np.array_equal(new_grades, old_grades)
        assert new_grades.dtype == old_grades.dtype
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    def test_returns_table_rows(self):
        rels = RelevanceSet([("q0", "c3", 1.0)])
        table = id_table([f"c{j}" for j in range(6)])
        rows, _ = make_batch(positives(rels), ["q0"], table, 2, np.random.default_rng(0))
        assert rows.dtype == np.intp
        assert rows[0] == 3
        assert len(set(rows.tolist())) == 3


class TestLossAndParamGrads:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("separate,skip", [(False, True), (True, True), (False, False)])
    def test_param_grads_match_fd(self, seed, separate, skip):
        rng = np.random.default_rng(seed)
        d, h = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        n_q, n_c = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        model = init_adapter(d, seed=seed, config=TrainConfig(hidden=h, use_skip=skip,
                                                        separate_adapters=separate))
        for _, params in model.trainable():
            for arr in params.arrays():
                arr += 0.2 * rng.standard_normal(arr.shape).astype(np.float32)
        q = rng.standard_normal((n_q, d))
        c = rng.standard_normal((n_c, d))
        grades = rng.choice([0.0, 0.0, 1.0, 2.0], size=(n_q, n_c))
        grades[0, 0] = 1.0  # at least one positive pair
        cfg = TrainConfig(alpha=0.1, beta=0.01)

        def objective():
            loss, _ = loss_and_param_grads(model, q, c, grades, cfg)
            return loss.value

        _, grads = loss_and_param_grads(model, q, c, grades, cfg)
        flat_params = _flatten_trainable(model)
        for p_arr, g_arr in zip(flat_params, grads):
            p64 = p_arr.astype(np.float64)
            for idx in range(p_arr.size):
                orig = p64.ravel()[idx]
                p_arr.ravel()[idx] = np.float32(orig + FD_STEP)
                step_up = float(p_arr.ravel()[idx]) - orig
                plus = objective()
                p_arr.ravel()[idx] = np.float32(orig - FD_STEP)
                step_down = orig - float(p_arr.ravel()[idx])
                minus = objective()
                p_arr.ravel()[idx] = np.float32(orig)
                numeric = (plus - minus) / (step_up + step_down)
                analytic = float(g_arr.ravel()[idx])
                denom = max(abs(numeric), ABS_FLOOR / REL_TOL)
                assert abs(analytic - numeric) <= 2 * (REL_TOL * denom + ABS_FLOOR)

    def test_one_unit_rows_per_side(self, monkeypatch):
        """The backward reuses the forward's unit rows and norms."""
        calls = []
        original = embadapt.objectives.unit_rows

        def counted(x):
            calls.append(len(x))
            return original(x)

        for module in vars(embadapt).values():
            if getattr(module, "unit_rows", None) is original:
                monkeypatch.setattr(module, "unit_rows", counted)
        rng = np.random.default_rng(0)
        model = init_adapter(4, seed=0, config=TrainConfig(hidden=3))
        q, c = rng.standard_normal((2, 4)), rng.standard_normal((5, 4))
        grades = np.zeros((2, 5))
        grades[0, 0] = grades[1, 1] = 1.0
        loss_and_param_grads(model, q, c, grades, TrainConfig())
        assert calls == [2, 5]

    def test_one_predictor_forward(self, monkeypatch):
        """The step runs the predictor once, and only through predict_query."""
        model = init_adapter(4, seed=0, config=TrainConfig(hidden=3))
        calls = []

        def counting(name, original):
            def counted(net, x):
                calls.append((name, net is model.p_params))
                return original(net, x)
            return counted

        for name in ("predict_query", "mlp_forward"):
            original = getattr(embadapt.adapter, name)
            for module in vars(embadapt).values():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name, original))
        rng = np.random.default_rng(0)
        q, c = rng.standard_normal((2, 4)), rng.standard_normal((5, 4))
        grades = np.zeros((2, 5))
        grades[0, 0] = grades[1, 1] = grades[1, 3] = 1.0
        loss_and_param_grads(model, q, c, grades, TrainConfig())
        assert [name for name, _ in calls].count("predict_query") == 1
        # the one predictor forward is the one inside predict_query
        assert calls.count(("mlp_forward", True)) == 1


def spy_on_step(monkeypatch):
    """Record the dtypes of each step's rows and gradients in train."""
    seen = []
    original = trainer.loss_and_param_grads

    def spied(model, q_orig, c_orig, grades, cfg):
        loss, grads = original(model, q_orig, c_orig, grades, cfg)
        seen.append((q_orig.dtype, c_orig.dtype, {g.dtype for g in grads}))
        return loss, grads

    monkeypatch.setattr(trainer, "loss_and_param_grads", spied)
    return seen


class TestStepDtype:
    """The step computes in its rows' dtype: float32 from train, float64 for
    float64 rows (criterion 2's finite differences) and for tables whose
    components lie outside 2**32."""

    @pytest.fixture(scope="class")
    def batch(self):
        # train-l's batch: 128 queries, 128 positives and 1280 negatives, d = 64
        q, c, rels = planted_task(n_queries=200, n_corpus=3000, dim=64, seed=3)
        qids = rels.query_ids[:128]
        rows, grades = make_batch(positives(rels), qids, c, 10, np.random.default_rng(0))
        return q.rows_for(qids), c.vectors[rows], grades

    @pytest.mark.parametrize("separate", [False, True])
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_float32_step_matches_float64(self, batch, variant, separate):
        q32, c32, grades = batch
        assert q32.shape == (128, 64) and c32.shape == (1408, 64) and grades.shape == (128, 1408)
        model = seeded_output_layers(
            init_adapter(64, seed=1, config=TrainConfig(separate_adapters=separate)), 5)
        cfg = TrainConfig(loss_variant=variant)
        loss32, grads32 = loss_and_param_grads(model, q32, c32, grades, cfg)
        loss64, grads64 = loss_and_param_grads(
            model, q32.astype(np.float64), c32.astype(np.float64), grades, cfg)
        assert {g.dtype for g in grads32} == {np.dtype(np.float32)}
        assert {g.dtype for g in grads64} == {np.dtype(np.float64)}
        for g32, g64 in zip(grads32, grads64):
            assert np.linalg.norm(g32 - g64) <= 1e-4 * np.linalg.norm(g64)
        for name, value in loss64.components.items():
            assert loss32.components[name] == pytest.approx(value, rel=1e-6)

    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_grades_take_the_dtype_of_the_rows(self, variant):
        # multiples of 0.3 round differently in float32 and float64, so a
        # float64 step that computed with float32 grades would differ from
        # the same step given float64 grades
        rng = np.random.default_rng(4)
        q64, c64 = rng.standard_normal((6, 8)), rng.standard_normal((12, 8))
        g32 = (0.3 * rng.integers(0, 4, size=(6, 12))).astype(np.float32)
        g32[np.arange(6), np.arange(6)] = 0.9  # a positive for every query
        model = seeded_output_layers(init_adapter(8, seed=2, config=TrainConfig(hidden=5)), 6)
        cfg = TrainConfig(loss_variant=variant)
        loss, grads = loss_and_param_grads(model, q64, c64, g32, cfg)
        ref_loss, ref_grads = loss_and_param_grads(model, q64, c64, g32.astype(np.float64), cfg)
        assert loss.components == ref_loss.components
        assert len(grads) == len(ref_grads)
        for g, ref in zip(grads, ref_grads):
            assert g.dtype == np.float64 and np.array_equal(g, ref)

    def test_train_steps_in_float32(self, monkeypatch):
        # under numpy 2's promotion rules one float64 scalar in the step
        # would make every later array float64
        seen = spy_on_step(monkeypatch)
        q, c, rels = planted_task(n_queries=40, n_corpus=120, seed=1)
        tr, va = split_train_val(rels, 0.8, seed=1)
        for variant in LOSS_VARIANTS:
            cfg = TrainConfig(seed=1, max_iterations=3, batch_size=16, loss_variant=variant)
            train(q, c, tr, va, cfg)
        f32 = np.dtype(np.float32)
        assert seen == [(f32, f32, {f32})] * 3 * len(LOSS_VARIANTS)

    @pytest.mark.parametrize("component, dtype", [
        (2.0**32, np.float32),
        (-(2.0**32), np.float32),
        (float(np.nextafter(np.float32(2**32), np.float32(np.inf))), np.float64),
        (float(np.nextafter(np.float32(-(2**32)), np.float32(-np.inf))), np.float64),
    ], ids=["2^32", "-2^32", "above", "below"])
    def test_range_picks_the_dtype(self, monkeypatch, component, dtype):
        seen = spy_on_step(monkeypatch)
        q, c, rels = small_dataset(seed=1)
        vectors = c.vectors.copy()
        vectors[-1, 0] = component  # a row that no query ranks first
        c = EmbeddingTable(c.ids, vectors, c.encoder_tag)
        tr, va = split_train_val(rels, 0.67, seed=0)
        train(q, c, tr, va, TrainConfig(batch_size=4, max_iterations=2, seed=0))
        assert [rows for rows, _, _ in seen] == [np.dtype(dtype)] * 2

    def test_tables_past_float32_range_train_in_float64(self, monkeypatch):
        # float32 squares of components near 1e20 overflow; float64 ones do not
        seen = spy_on_step(monkeypatch)
        q, c, rels = planted_task(100, 400, 16)
        q, c = (EmbeddingTable(t.ids, t.vectors * np.float32(1e20), t.encoder_tag)
                for t in (q, c))
        tr, va = split_train_val(rels, 0.8, seed=0)
        cfg = TrainConfig(batch_size=16, max_iterations=30, patience=30, eval_every=10, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, report = train(q, c, tr, va, cfg)
        f64 = np.dtype(np.float64)
        assert seen == [(f64, f64, {f64})] * 30
        assert [e.iteration for e in report.entries] == [0, 10, 20, 30]


class TestTrain:
    def test_iteration_zero_is_zero_shot(self):
        q, c, rels = small_dataset()
        tr, va = split_train_val(rels, 0.67, seed=0)
        cfg = TrainConfig(batch_size=4, max_iterations=5, patience=5, eval_every=5, seed=0)
        model, report = train(q, c, tr, va, cfg)
        val_q = q.subset([qid for qid in q.ids if va.positives_for(qid)])
        zero_shot = evaluate(val_q, c, va, k=10).mean_ndcg
        assert report.entries[0].iteration == 0
        assert report.entries[0].val_ndcg == pytest.approx(zero_shot, abs=1e-12)

    def test_best_is_max_of_log(self):
        q, c, rels = small_dataset(seed=3)
        tr, va = split_train_val(rels, 0.67, seed=1)
        cfg = TrainConfig(batch_size=4, max_iterations=40, patience=40, eval_every=5, seed=1)
        _, report = train(q, c, tr, va, cfg)
        values = [e.val_ndcg for e in report.entries]
        assert report.best_val_ndcg == pytest.approx(max(values), abs=1e-12)
        assert report.best_val_ndcg >= values[0]

    def test_determinism(self):
        q, c, rels = small_dataset(seed=5)
        tr, va = split_train_val(rels, 0.67, seed=2)
        cfg = TrainConfig(batch_size=4, max_iterations=30, patience=30, eval_every=5, seed=7)
        m1, r1 = train(q, c, tr, va, cfg)
        m2, r2 = train(q, c, tr, va, cfg)
        assert r1.to_jsonl() == r2.to_jsonl()
        for (_, pa), (_, pb) in zip(m1.trainable(), m2.trainable()):
            for a, b in zip(pa.arrays(), pb.arrays()):
                assert np.array_equal(a, b)

    def test_early_stop_reason(self):
        q, c, rels = small_dataset(seed=2)
        tr, va = split_train_val(rels, 0.67, seed=0)
        cfg = TrainConfig(batch_size=4, max_iterations=2000, patience=10, eval_every=5, seed=0)
        _, report = train(q, c, tr, va, cfg)
        assert report.stop_reason == "early-stop"
        assert report.entries[-1].iteration < 2000

    def test_synthetic_improvement(self):
        q, c, rels = planted_task(n_queries=60, n_corpus=200, seed=0)
        tr, va = split_train_val(rels, 0.8, seed=0)
        cfg = TrainConfig(seed=0, max_iterations=300, batch_size=48)
        _, report = train(q, c, tr, va, cfg)
        assert report.best_val_ndcg >= report.entries[0].val_ndcg + 0.05

    def test_alpha_shrinks_residuals(self):
        # stronger recovery weight => smaller mean L1 residual, monotonically
        q, c, rels = planted_task(n_queries=40, n_corpus=120, seed=1)
        tr, va = split_train_val(rels, 0.8, seed=1)
        residuals = []
        for alpha in (0.0, 0.5, 5.0):
            cfg = TrainConfig(seed=1, max_iterations=120, batch_size=32, alpha=alpha,
                              patience=120)
            model, _ = train(q, c, tr, va, cfg)
            from embadapt import transform

            adapted = transform(model, q.vectors, "query")
            residuals.append(float(np.abs(adapted - q.vectors).mean()))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_nan_loss_aborts_with_term_name(self, monkeypatch):
        # finite parameters keep every loss term finite, so one is made nan
        # here; training must stop and name the bad term
        original = trainer.loss_and_param_grads

        def nan_recovery(*args):
            loss, grads = original(*args)
            loss.recovery_value = math.nan
            return loss, grads

        monkeypatch.setattr(trainer, "loss_and_param_grads", nan_recovery)
        q, c, rels = small_dataset(seed=4)
        tr, va = split_train_val(rels, 0.67, seed=0)
        cfg = TrainConfig(batch_size=4, max_iterations=50, patience=50, eval_every=10, seed=0)
        with pytest.raises(TrainingDivergedError, match="recovery loss became nan"):
            train(q, c, tr, va, cfg)

    @pytest.mark.parametrize("lr", [1e160, 1e308, 1e20, 1e30])
    def test_parameter_overflow_is_a_divergence(self, lr):
        # 1e160 and 1e308: step 1 overflows the float32 parameters, and the
        # error names the network and the parameter. 1e20 and 1e30 leave them
        # finite, and the float32 step 2 overflows: its loss is NaN, not a
        # loss over rows zeroed by an infinite norm. No numpy warning either way.
        message = ("^Adam step 1 made the f network diverge: w1 contains non-finite entries$"
                   if lr > 1e38 else "^step 2: rank loss became nan$")
        q, c, rels = small_dataset(seed=4)
        tr, va = split_train_val(rels, 0.67, seed=0)
        cfg = TrainConfig(batch_size=4, max_iterations=50, patience=50, eval_every=10,
                          seed=0, learning_rate=lr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError, match=message):
                train(q, c, tr, va, cfg)

    def test_tag_mismatch_between_tables(self):
        q, c, rels = small_dataset()
        c2 = EmbeddingTable(c.ids, c.vectors, "other")
        tr, va = split_train_val(rels, 0.67, seed=0)
        with pytest.raises(TagMismatchError, match="encoder tag does not match"):
            train(q, c2, tr, va, TrainConfig(batch_size=4))

    @pytest.mark.parametrize("case", ["train-query", "judged-corpus-id", "val-positive"])
    def test_dangling_ids_rejected(self, case):
        q, c, rels = small_dataset()
        tr, va = split_train_val(rels, 0.67, seed=0)
        if case == "train-query":  # a training query missing from the query table
            tr = RelevanceSet(tr.triplets + [("ghost-query", "c0", 1.0)])
        elif case == "judged-corpus-id":  # a training positive missing from the corpus
            tr = RelevanceSet(tr.triplets + [(tr.query_ids[0], "ghost-doc", 1.0)])
        else:  # a validation positive missing from the corpus
            va = RelevanceSet(va.triplets + [(va.query_ids[0], "ghost-doc", 1.0)])
        with pytest.raises(DataError, match="missing embeddings"):
            train(q, c, tr, va, TrainConfig(batch_size=4, max_iterations=2, seed=0))

    def test_grade_zero_row_is_not_checked_against_the_corpus(self):
        # a grade-0 row is no row at all, as for load_qrels_tsv and the CLI
        q, c, rels = small_dataset()
        tr, va = split_train_val(rels, 0.67, seed=0)
        cfg = TrainConfig(batch_size=4, max_iterations=2, eval_every=1, seed=0)
        _, plain = train(q, c, tr, va, cfg)
        ghost = (tr.query_ids[0], "ghost-doc", 0.0), ("ghost-query", "c0", 0.0)
        _, with_zeros = train(q, c, RelevanceSet(tr.triplets + list(ghost)),
                              RelevanceSet(va.triplets + list(ghost)), cfg)
        assert with_zeros.to_jsonl() == plain.to_jsonl()


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 1.5),  # int: an int
        ("seed", True),  # int: not a bool
        ("hidden", "4"),  # int | None: an int or None
        ("alpha", "0.1"),  # float: a float or an int
        ("beta", False),  # float: not a bool
        ("learning_rate", float("nan")),  # float: finite
        ("alpha", float("inf")),
        ("use_skip", "no"),  # bool: exactly a bool
        ("separate_adapters", 1),
        ("gain", None),  # str: exactly a str
    ])
    def test_wrongly_typed_value_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("hidden", None), ("hidden", 4), ("alpha", 1), ("learning_rate", 0.5),
        ("use_skip", False), ("loss_variant", "ranknet"),
    ])
    def test_value_of_its_type_accepted(self, field, value):
        assert getattr(TrainConfig(**{field: value}), field) == value
