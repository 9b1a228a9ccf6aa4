"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Criterion 9 is a soft check by design: it reports the
observed ordering and warns on violations instead of failing the build.
"""

import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import embadapt
from embadapt import (
    EmbeddingTable,
    TrainConfig,
    evaluate,
    init_adapter,
    load_checkpoint,
    read_embeddings,
    save_checkpoint,
    split_train_val,
    train,
    write_embeddings,
)
from embadapt.adapter import predict_query, transform_forward
from embadapt.cli import main as cli_main
from embadapt.evaluation import ndcg_at_k, rank_candidates
from embadapt.objectives import ranking_loss, softplus_sigmoid, total_loss
from embadapt.trainer import loss_and_param_grads, _flatten_trainable

from synth import planted_task


def verdict(number: int, passed: bool, detail: str) -> None:
    print(f"\ncriterion {number} [{'PASS' if passed else 'FAIL'}]: {detail}")


class TestCriterion1ZeroShotEquivalence:
    def test_fresh_adapter_equals_no_adapter(self):
        start = time.monotonic()
        q, c, rels = planted_task(n_queries=30, n_corpus=100, seed=11)
        baseline = evaluate(q, c, rels, model=None, k=10)
        fresh = init_adapter(q.dim, seed=3, encoder_tag=q.encoder_tag)
        adapted = evaluate(q, c, rels, model=fresh, k=10)
        elapsed = time.monotonic() - start
        exact = baseline.per_query_ndcg == adapted.per_query_ndcg
        verdict(1, exact and elapsed < 1.0,
                f"fresh-adapter per-query nDCG@10 identical to no-adapter "
                f"(exact match={exact}, {elapsed:.2f}s)")
        assert exact
        assert elapsed < 1.0


class TestCriterion2GradientCorrectness:
    def test_fd_matches_analytic_gradients(self):
        """Central differences, step 1e-4, rel 1e-4, abs floor 1e-6.

        Parameters whose perturbation flips the sign of an L1 residual
        component are excluded: the objective is non-differentiable at
        those kinks, so finite differences are not a valid oracle there.
        """
        step, rel_tol, abs_floor = 1e-4, 1e-4, 1e-6
        start = time.monotonic()

        def residual_signs(model, q, c, pq, pc):
            # the forward that loss_and_param_grads runs, in float64 because
            # its inputs are, so the kinks found are the objective's own
            aq, _ = transform_forward(model, q, "query")
            ac, _ = transform_forward(model, c, "corpus")
            pred = (predict_query(model, ac[pc])[0] if len(pc)
                    else np.zeros((0, q.shape[1])))
            return np.sign(np.concatenate([
                (aq - q).ravel(), (ac - c).ravel(), (aq[pq] - pred).ravel(),
            ]))

        checked = skipped = 0
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            d, h = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            n_q, n_c = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            model = init_adapter(d, seed=seed, config=TrainConfig(
                hidden=h,
                use_skip=seed % 3 != 2,
                separate_adapters=seed % 3 == 1,
            ))
            for _, params in model.trainable():
                for arr in params.arrays():
                    arr += 0.2 * rng.standard_normal(arr.shape).astype(np.float32)
            q = rng.standard_normal((n_q, d))
            c = rng.standard_normal((n_c, d))
            grades = rng.choice([0.0, 0.0, 1.0, 2.0], size=(n_q, n_c))
            grades[0, 0] = 1.0
            pq, pc = np.nonzero(grades > 0)
            cfg = TrainConfig(alpha=0.1, beta=0.01)

            def objective():
                loss, _ = loss_and_param_grads(model, q, c, grades, cfg)
                return loss.value

            _, grads = loss_and_param_grads(model, q, c, grades, cfg)
            for p_arr, g_arr in zip(_flatten_trainable(model), grads):
                p64 = p_arr.astype(np.float64)
                for idx in range(p_arr.size):
                    orig = p64.ravel()[idx]
                    p_arr.ravel()[idx] = np.float32(orig + step)
                    step_up = float(p_arr.ravel()[idx]) - orig
                    plus = objective()
                    s_plus = residual_signs(model, q, c, pq, pc)
                    p_arr.ravel()[idx] = np.float32(orig - step)
                    step_down = orig - float(p_arr.ravel()[idx])
                    minus = objective()
                    s_minus = residual_signs(model, q, c, pq, pc)
                    p_arr.ravel()[idx] = np.float32(orig)
                    if np.any(s_plus != s_minus):
                        skipped += 1
                        continue
                    numeric = (plus - minus) / (step_up + step_down)
                    analytic = float(g_arr.ravel()[idx])
                    checked += 1
                    scale = max(abs(numeric), abs(analytic), abs_floor / rel_tol)
                    worst = max(worst, abs(analytic - numeric) / scale)
                    assert abs(analytic - numeric) <= rel_tol * scale + abs_floor

        elapsed = time.monotonic() - start
        verdict(2, elapsed < 30.0,
                f"{checked} parameter gradients match FD within rel 1e-4 "
                f"(worst rel diff {worst:.2e}; {skipped} L1-kink points excluded; "
                f"{elapsed:.1f}s)")
        assert elapsed < 30.0


def brute_force_ranking_loss(scores: np.ndarray, grades: np.ndarray) -> float:
    total = 0.0
    n_q, n_c = scores.shape
    for i in range(n_q):
        for j in range(n_c):
            for k in range(n_c):
                gap = grades[i, j] - grades[i, k]
                if gap > 0:
                    x = scores[i, k] - scores[i, j]
                    total += gap * (max(x, 0.0) + math.log1p(math.exp(-abs(x))))
    return total


class TestCriterion3RankingLossOracle:
    def test_batched_loss_equals_triple_sum(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n_q, n_c = int(rng.integers(1, 6)), int(rng.integers(2, 9))
            scores = rng.standard_normal((n_q, n_c))
            grades = rng.choice([0.0, 0.0, 1.0, 2.0, 3.0], size=(n_q, n_c))
            value, _ = ranking_loss(scores, grades)
            oracle = brute_force_ranking_loss(scores, grades)
            worst = max(worst, abs(value - oracle))
            assert value == pytest.approx(oracle, abs=1e-6)
        verdict(3, True,
                f"batched ranking loss equals brute-force triple sum on 100 "
                f"instances (worst abs diff {worst:.2e} <= 1e-6)")

    @pytest.mark.parametrize("dtype, big", [(np.float64, 1e3), (np.float64, 1e30),
                                            (np.float32, 1e3)])
    def test_margins_beyond_the_exponent_clamp(self, dtype, big):
        # every margin is 0, +-big or +-2 big, far past the kernel's clamp of e^margin
        scores = np.array([[-big, big, big, -big], [big, -big, 0.0, big]], dtype=dtype)
        grades = np.array([[2.0, 0.0, 1.0, 0.0], [1.0, 0.0, 3.0, 0.0]], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = ranking_loss(scores, grades)
        oracle = brute_force_ranking_loss(scores.astype(np.float64), grades.astype(np.float64))
        assert value == pytest.approx(oracle, rel=1e-7)
        assert np.isfinite(grad).all()

        def one_pair(s_relevant, s_other):
            return ranking_loss(np.array([[s_relevant, s_other]], dtype=dtype),
                                np.array([[1.0, 0.0]], dtype=dtype))

        for margin in (1000.0, -1000.0):
            value, grad = one_pair(0.0, margin)
            assert value == softplus_sigmoid(np.array(margin, dtype))[0] == max(margin, 0.0)
            # the margin's sigmoid is 1 or 0 exactly
            assert grad.tolist() == [[-float(margin > 0), float(margin > 0)]]


class TestCriterion4LossFixtures:
    def test_hand_computed_values(self):
        single, _ = ranking_loss(np.array([[0.5, 0.7]]), np.array([[1.0, 0.0]]))
        graded, _ = ranking_loss(np.array([[0.1, 0.4]]), np.array([[2.0, 1.0]]))

        margin = math.log(math.exp(0.8) - 1)  # softplus(margin) == 0.8 exactly
        aq = np.array([[1.0, 0.0]])
        oq = np.array([[0.75, 0.25]])
        ac = np.array([[1.0, 1.0]])
        combined = total_loss(
            np.array([[0.0, margin]]),
            np.array([[1.0, 0.0]]),
            "search-adaptor",
            alpha=0.1,
            beta=0.01,
            recovery_inputs=(aq, oq, ac, ac),
            prediction_inputs=(aq, np.array([[0.5, 0.5]]), np.array([0]), np.array([1.0])),
        )

        checks = {
            "ranking single-pair 0.79814": (single, 0.79814),
            "ranking graded-pair 0.85436": (graded, 0.85436),
            "recovery 0.5": (combined.recovery_value, 0.5),
            "prediction 1.0": (combined.prediction_value, 1.0),
            "combined 0.86": (combined.value, 0.86),
        }
        ok = all(abs(got - want) <= 1e-5 for got, want in checks.values())
        verdict(4, ok, "loss fixtures "
                + ", ".join(f"{name}={got:.6f}" for name, (got, _) in checks.items())
                + " all within 1e-5")
        for name, (got, want) in checks.items():
            assert got == pytest.approx(want, abs=1e-5), name


class TestCriterion5NdcgFixtures:
    def test_hand_cases_and_invariances(self):
        perfect = ndcg_at_k(
            [("a", 1.0), ("b", 0.5)], {"a": 2.0, "b": 1.0}, k=10)
        second = ndcg_at_k(
            [("a", 0.9), ("b", 0.4)], {"b": 1.0}, k=10)
        assert perfect == pytest.approx(1.0, abs=1e-9)
        assert second == pytest.approx(1.0 / math.log2(3.0), abs=1e-9)

        rng = np.random.default_rng(0)
        ids = [f"c{j}" for j in range(12)]
        scores = rng.standard_normal(12)
        grades = {ids[j]: float(g) for j, g in
                  enumerate(rng.choice([0.0, 1.0, 2.0], size=12)) if g > 0}
        base = ndcg_at_k(rank_candidates(ids, scores), grades, k=10)

        perm = rng.permutation(12)
        permuted = ndcg_at_k(
            rank_candidates([ids[j] for j in perm], scores[perm]), grades, k=10)
        assert permuted == pytest.approx(base, abs=1e-12)

        monotone = ndcg_at_k(
            rank_candidates(ids, 3.0 * scores + 7.0), grades, k=10)
        assert monotone == pytest.approx(base, abs=1e-12)

        verdict(5, True,
                f"nDCG fixtures (perfect={perfect:.9f}, "
                f"second-of-two={second:.9f} vs 0.630929...) within 1e-9; "
                f"permutation and affine-score invariance hold")


@pytest.fixture(scope="module")
def synthetic_run():
    """Full-size planted task trained once with the default configuration."""
    q, c, rels = planted_task(n_queries=200, n_corpus=1000, dim=32, seed=0)
    train_rels, val_rels = split_train_val(rels, 0.8, seed=0)
    start = time.monotonic()
    model, report = train(q, c, train_rels, val_rels, TrainConfig(seed=0))
    elapsed = time.monotonic() - start
    return q, c, rels, model, report, elapsed


class TestCriterion6SyntheticImprovement:
    def test_trained_beats_zero_shot_by_margin(self, synthetic_run):
        _, _, _, _, report, elapsed = synthetic_run
        zero_shot = report.entries[0].val_ndcg
        gain = report.best_val_ndcg - zero_shot
        ok = gain >= 0.05 and elapsed < 120.0
        verdict(6, ok,
                f"planted task (200 queries, 1000 corpus, d=32): zero-shot "
                f"nDCG@10 {zero_shot:.4f} -> trained {report.best_val_ndcg:.4f}, "
                f"gain {gain:+.4f} >= 0.05, {elapsed:.1f}s < 120s")
        assert gain >= 0.05
        assert elapsed < 120.0


class TestCriterion7ModelSelection:
    def test_best_never_below_zero_shot(self, synthetic_run):
        _, _, _, _, report, _ = synthetic_run
        ok = report.best_val_ndcg >= report.entries[0].val_ndcg
        verdict(7, ok,
                f"returned checkpoint validation nDCG@10 {report.best_val_ndcg:.4f} "
                f">= iteration-0 value {report.entries[0].val_ndcg:.4f}")
        assert ok


class TestCriterion8Determinism:
    def test_cmd_train_byte_identical(self, tmp_path):
        q, c, rels = planted_task(n_queries=40, n_corpus=150, seed=7)
        qp, cp, rp = tmp_path / "q.sadp", tmp_path / "c.sadp", tmp_path / "r.tsv"
        write_embeddings(q, qp)
        write_embeddings(c, cp)
        rp.write_text("".join(f"{a}\t{b}\t{s:g}\n" for a, b, s in rels.triplets))

        def argv(name):
            return ["train", "--queries", str(qp), "--corpus", str(cp), "--qrels", str(rp),
                    "--out", str(tmp_path / f"{name}.sadc"),
                    "--max-iters", "80", "--batch-size", "32", "--seed", "13"]

        def outputs(name):
            return ((tmp_path / f"{name}.sadc").read_bytes(),
                    (tmp_path / f"{name}.sadc.log.jsonl").read_bytes())

        assert cli_main(argv("run1")) == 0
        # the second run in another process, whose string hashes are salted otherwise
        hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(embadapt.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "embadapt.cli", *argv("run2")], check=True,
                       capture_output=True,
                       env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path})
        same = outputs("run1") == outputs("run2")
        verdict(8, same,
                "two cmd_train runs with identical inputs and seed, one in another "
                "process with another hash seed, produced byte-identical "
                "checkpoints and training logs")
        assert same


class TestCriterion9AblationDirection:
    def test_default_vs_ablations_soft(self):
        """Soft check: report the ordering, warn on violation, never fail."""
        seeds = (0, 1, 2)
        results = {"default": [], "separate-adapters": [], "no-skip": []}
        for seed in seeds:
            q, c, rels = planted_task(n_queries=200, n_corpus=1000, dim=32,
                                      seed=seed)
            train_rels, val_rels = split_train_val(rels, 0.8, seed=seed)
            for name, kwargs in (
                ("default", {}),
                ("separate-adapters", {"separate_adapters": True}),
                ("no-skip", {"use_skip": False}),
            ):
                cfg = TrainConfig(seed=seed, max_iterations=400, **kwargs)
                _, report = train(q, c, train_rels, val_rels, cfg)
                results[name].append(report.best_val_ndcg)
                if name != "default" and report.best_val_ndcg > results["default"][-1]:
                    warnings.warn(
                        f"seed {seed}: {name} ({report.best_val_ndcg:.4f}) "
                        f"outperformed default ({results['default'][-1]:.4f})"
                    )
        means = {name: float(np.mean(vals)) for name, vals in results.items()}
        ordered = (means["default"] >= means["separate-adapters"]
                   and means["default"] >= means["no-skip"])
        detail = (f"mean validation nDCG@10 over seeds {seeds}: "
                  f"default {means['default']:.4f}, "
                  f"separate-adapters {means['separate-adapters']:.4f}, "
                  f"no-skip {means['no-skip']:.4f}; expected ordering "
                  f"{'holds' if ordered else 'VIOLATED (reported, soft check)'}")
        verdict(9, True, detail)
        if not ordered:
            warnings.warn("ablation ordering violated on the synthetic task: "
                          + detail)


class TestCriterion10RoundTrips:
    def test_embedding_and_checkpoint_files_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(1, 20))
            d = int(rng.integers(1, 48))
            ids = [f"item-{trial}-{i}" for i in range(n)]
            table = EmbeddingTable(
                ids,
                (rng.standard_normal((n, d)) * 10.0 ** int(rng.integers(-3, 4)))
                .astype(np.float32),
                encoder_tag=f"enc-{trial}",
            )
            path = tmp_path / f"t{trial}.sadp"
            write_embeddings(table, path)
            back = read_embeddings(path)
            assert back.ids == table.ids
            assert back.encoder_tag == table.encoder_tag
            assert back.vectors.tobytes() == table.vectors.tobytes()

            model = init_adapter(d, seed=trial, encoder_tag=f"enc-{trial}", config=TrainConfig(
                hidden=int(rng.integers(1, 16)),
                use_skip=bool(rng.integers(0, 2)),
                separate_adapters=bool(rng.integers(0, 2)),
            ))
            for _, params in model.trainable():
                for arr in params.arrays():
                    arr += rng.standard_normal(arr.shape).astype(np.float32)
            ckpt = tmp_path / f"m{trial}.sadc"
            save_checkpoint(model, ckpt)
            loaded = load_checkpoint(ckpt)
            assert loaded.encoder_tag == model.encoder_tag
            for (name_a, pa), (name_b, pb) in zip(model.trainable(),
                                                  loaded.trainable()):
                assert name_a == name_b
                for a, b in zip(pa.arrays(), pb.arrays()):
                    assert a.tobytes() == b.tobytes()
        verdict(10, True,
                "100 randomized embedding tables and checkpoints round-tripped "
                "bit-exactly (ids, tags, float32 payloads)")
