import math
import warnings

import numpy as np
import pytest

from embadapt.objectives import (
    LOSS_VARIANTS,
    NORM_EPS,
    PAIR_BLOCK_FLOATS,
    BatchScores,
    cosine_scores,
    cosine_scores_backward,
    prediction_loss,
    rank_loss,
    ranking_loss,
    recovery_loss,
    softplus_sigmoid,
    total_loss,
    unit_rows,
    unit_scores,
)

REL_TOL = 1e-4
ABS_FLOOR = 1e-6
FD_STEP = 1e-4


def fd_close(analytic, numeric):
    denom = max(abs(numeric), ABS_FLOOR / REL_TOL)
    return abs(analytic - numeric) <= REL_TOL * denom + ABS_FLOOR


def cosine_similarity(u, v):
    """Independent oracle: the cosine of one pair of vectors, 0 for a vector
    of near-zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < NORM_EPS or nv < NORM_EPS:
        return 0.0
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def pair_cosine(u, v):
    """cosine_scores of one pair, checked against cosine_similarity."""
    got = float(cosine_scores(u[None, :], v[None, :])[0, 0])
    assert got == pytest.approx(cosine_similarity(u, v), abs=1e-12)
    return got


def brute_force_ranking_loss(scores, grades):
    """Independent oracle: literal triple sum over (i, j, k)."""
    n_q, n_c = scores.shape
    total = 0.0
    for i in range(n_q):
        for j in range(n_c):
            for k in range(n_c):
                if grades[i, j] > grades[i, k]:
                    total += (grades[i, j] - grades[i, k]) * math.log1p(
                        math.exp(scores[i, k] - scores[i, j])
                    )
    return total


def brute_force_variant_loss(variant, scores, grades):
    """Independent oracle for the non-default variants: literal per-query sums."""
    tau = 0.05
    total = 0.0
    for s, y in zip(scores.tolist(), grades.tolist()):
        if variant == "ranknet":
            total += sum(math.log1p(math.exp(sk - sj))
                         for sj, yj in zip(s, y) for sk, yk in zip(s, y) if yj > yk)
        elif variant == "sigmoid-ce":
            # -log sigmoid(s / tau) for a positive, -log(1 - sigmoid(s / tau)) otherwise
            total += sum(math.log1p(math.exp(-sj / tau if yj > 0 else sj / tau))
                         for sj, yj in zip(s, y))
        elif sum(y) > 0:  # softmax-ce (temperature 1) and contrastive (tau)
            t = tau if variant == "contrastive" else 1.0
            log_z = math.log(sum(math.exp(sj / t) for sj in s))
            total -= sum(yj / sum(y) * (sj / t - log_z) for sj, yj in zip(s, y))
    return total


def per_query_ranking_loss(batch, gap_weighted=True):
    """The pairwise kernel as one loop iteration per query, kept as the
    reference that the blocked ranking_loss must equal bit for bit. It calls
    the kernel's elementwise helper, so it checks the blocking alone."""
    s, y = batch.scores, batch.grades
    total = 0.0
    grad = np.zeros_like(s)
    for i in range(batch.n_q):
        yi, si = y[i], s[i]
        y_min = yi.min() if yi.size else 0.0
        rows = np.nonzero(yi > y_min)[0]
        if rows.size == 0:
            continue
        gap = yi[rows, None] - yi[None, :]
        w = np.where(gap > 0, gap if gap_weighted else 1.0, 0.0)
        margin = si[None, :] - si[rows, None]
        loss, g = softplus_sigmoid(margin)
        loss *= w
        g *= w
        total += float(np.sum(loss))
        grad[i] += g.sum(axis=0)
        grad[i, rows] -= g.sum(axis=1)
    return total, grad


def random_batch(rng, n_q=None, n_c=None):
    n_q = n_q or int(rng.integers(1, 5))
    n_c = n_c or int(rng.integers(2, 7))
    scores = rng.uniform(-1, 1, size=(n_q, n_c))
    grades = rng.choice([0.0, 0.0, 1.0, 2.0], size=(n_q, n_c))
    return BatchScores(scores=scores, grades=grades)


class TestCosine:
    """The hand cases run through cosine_scores on one pair, which must
    agree with the per-pair oracle."""

    def test_self_similarity(self):
        assert pair_cosine(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert pair_cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        got = pair_cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_degenerate_norm_guard(self):
        assert pair_cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u, v = rng.standard_normal(5), rng.standard_normal(5)
            c = rng.uniform(0.1, 100)
            assert pair_cosine(c * u, v) == pytest.approx(pair_cosine(u, v), abs=1e-12)

    def test_matrix_agrees_with_pairwise(self):
        rng = np.random.default_rng(1)
        q, c = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        scores = cosine_scores(q, c)
        for i in range(3):
            for j in range(5):
                assert scores[i, j] == pytest.approx(cosine_similarity(q[i], c[j]), abs=1e-12)

    @pytest.mark.parametrize("side", ["query", "corpus"])
    def test_degenerate_rows_score_positive_zero(self, side):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((5, 4)), rng.standard_normal((6, 4))
        x[1] = 0.0
        x[3] = [1e-13, 0.0, 0.0, 0.0]  # norm 1e-13 < NORM_EPS
        scores = cosine_scores(x, y) if side == "query" else cosine_scores(y, x).T
        degenerate = np.zeros(scores.shape, dtype=bool)
        degenerate[[1, 3]] = True
        assert np.all(scores[degenerate] == 0.0)
        assert not np.any(np.signbit(scores[degenerate]))
        for i, j in zip(*np.nonzero(~degenerate)):
            assert scores[i, j] == pytest.approx(cosine_similarity(x[i], y[j]), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_backward_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((3, 4))
        c = rng.standard_normal((4, 4))
        g = rng.standard_normal((3, 4))
        # a degenerate row on each side: it scores 0, so it passes no gradient;
        # any finite step would lift it above NORM_EPS, so it is not differenced
        q[1] = 0.0
        c[2] = 1e-13
        (q_unit, q_norm), (c_unit, c_norm) = unit_rows(q), unit_rows(c)
        grad_q, grad_c = cosine_scores_backward(q_unit, q_norm, c_unit, c_norm, g)
        assert not np.any(grad_q[1]) and not np.any(grad_c[2])

        def objective():
            return float(np.sum(g * cosine_scores(q, c)))

        for arr, grad, skip in ((q, grad_q, 1), (c, grad_c, 2)):
            flat = arr.ravel()
            for idx in range(flat.size):
                if idx // arr.shape[1] == skip:
                    continue
                orig = flat[idx]
                flat[idx] = orig + FD_STEP
                plus = objective()
                flat[idx] = orig - FD_STEP
                minus = objective()
                flat[idx] = orig
                assert fd_close(float(grad.ravel()[idx]), (plus - minus) / (2 * FD_STEP))


class TestRankingLoss:
    def test_single_pair_fixture(self):
        batch = BatchScores(scores=np.array([[0.5, 0.7]]), grades=np.array([[1.0, 0.0]]))
        value, _ = ranking_loss(batch)
        assert value == pytest.approx(0.79814, abs=1e-5)

    def test_graded_pair_fixture(self):
        batch = BatchScores(scores=np.array([[0.1, 0.4]]), grades=np.array([[2.0, 1.0]]))
        value, _ = ranking_loss(batch)
        assert value == pytest.approx(0.85436, abs=1e-5)

    def test_equal_grades_zero(self):
        batch = BatchScores(scores=np.array([[0.2, -0.1, 0.9]]), grades=np.zeros((1, 3)))
        value, grad = ranking_loss(batch)
        assert value == 0.0
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng)
        value, _ = ranking_loss(batch)
        assert value == pytest.approx(
            brute_force_ranking_loss(batch.scores, batch.grades), abs=1e-6
        )

    @pytest.mark.parametrize("gap_weighted", [True, False])
    @pytest.mark.parametrize("seed", range(40))
    def test_blocked_kernel_equals_per_query_loop(self, seed, gap_weighted):
        rng = np.random.default_rng(seed)
        n_q = int(rng.integers(1, 40))
        # every fourth case is wide enough that one query spans several blocks
        n_c = int(rng.integers(PAIR_BLOCK_FLOATS // 4, PAIR_BLOCK_FLOATS // 2)
                  if seed % 4 == 0 else rng.integers(0, 80))
        scores = rng.uniform(-1, 1, size=(n_q, n_c))
        grades = np.zeros((n_q, n_c))
        for i in range(n_q):
            # 0-5 graded candidates from three grade levels; some rows get none
            k = int(rng.integers(0, min(5, n_c) + 1))
            grades[i, rng.choice(n_c, size=k, replace=False)] = rng.choice([1.0, 2.0, 3.0], k)
        if seed % 3 == 1:
            grades += 1.0  # a non-zero grade floor
        if n_q > 2:
            grades[-1] = 2.0  # every candidate equally graded
        batch = BatchScores(scores=scores, grades=grades)
        value, grad = ranking_loss(batch, gap_weighted)
        ref_value, ref_grad = per_query_ranking_loss(batch, gap_weighted)
        assert value == ref_value
        assert np.array_equal(grad, ref_grad)

    @pytest.mark.parametrize("n_q", [0, 3])
    def test_no_candidates(self, n_q):
        batch = BatchScores(scores=np.zeros((n_q, 0)), grades=np.zeros((n_q, 0)))
        value, grad = ranking_loss(batch)
        assert value == 0.0
        assert grad.shape == (n_q, 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, n_q=3, n_c=6)
        value, _ = ranking_loss(batch)
        perm = rng.permutation(6)
        permuted = BatchScores(scores=batch.scores[:, perm], grades=batch.grades[:, perm])
        assert ranking_loss(permuted)[0] == pytest.approx(value, abs=1e-12)

    def test_gradient_sign_structure(self):
        # raising the relevant score must lower the loss; raising the
        # irrelevant one must raise it
        batch = BatchScores(scores=np.array([[0.5, 0.7]]), grades=np.array([[1.0, 0.0]]))
        _, grad = ranking_loss(batch)
        assert grad[0, 0] < 0
        assert grad[0, 1] > 0

    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    @pytest.mark.parametrize("seed", range(4))
    def test_gradients_match_fd(self, variant, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng)
        _, grad = rank_loss(batch, variant)
        s = batch.scores
        for idx in range(s.size):
            flat = s.ravel()
            orig = flat[idx]
            flat[idx] = orig + FD_STEP
            plus = rank_loss(BatchScores(s, batch.grades), variant)[0]
            flat[idx] = orig - FD_STEP
            minus = rank_loss(BatchScores(s, batch.grades), variant)[0]
            flat[idx] = orig
            assert fd_close(float(grad.ravel()[idx]), (plus - minus) / (2 * FD_STEP))

    @pytest.mark.parametrize("variant", ["ranknet", "softmax-ce", "contrastive", "sigmoid-ce"])
    @pytest.mark.parametrize("seed", range(10))
    def test_variant_matches_brute_force_oracle(self, variant, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng)
        # one row with no positive grade, one where all grades are equal
        grades = np.vstack([batch.grades, np.zeros(batch.n_c), np.full(batch.n_c, 2.0)])
        scores = np.vstack([batch.scores, rng.uniform(-1, 1, size=(2, batch.n_c))])
        value, _ = rank_loss(BatchScores(scores=scores, grades=grades), variant)
        assert value == pytest.approx(
            brute_force_variant_loss(variant, scores, grades), rel=1e-9, abs=1e-9
        )

    def test_ranknet_coincides_for_unit_gap(self):
        batch = BatchScores(scores=np.array([[0.3, -0.2]]), grades=np.array([[1.0, 0.0]]))
        assert rank_loss(batch, "ranknet")[0] == pytest.approx(
            rank_loss(batch, "search-adaptor")[0], abs=1e-12
        )

    def test_unknown_variant(self):
        batch = random_batch(np.random.default_rng(0))
        with pytest.raises(ValueError, match="variant"):
            rank_loss(batch, "nope")

    def test_softplus_overflow_safe(self):
        assert softplus_sigmoid(np.array([1000.0]))[0][0] == pytest.approx(1000.0)
        assert softplus_sigmoid(np.array([-1000.0]))[0][0] == 0.0
        for dtype in (np.float32, np.float64):
            x = np.array([1000.0, -1000.0, 40.5, -40.5, 0.0, np.inf, -np.inf], dtype)
            plus, sig = softplus_sigmoid(x)
            assert plus.tolist() == [1000.0, 0.0, 40.5,
                                     pytest.approx(math.exp(-40.5), rel=1e-6),
                                     pytest.approx(math.log(2), rel=1e-7), np.inf, 0.0]
            assert sig.tolist() == [1.0, 0.0, 1.0, pytest.approx(math.exp(-40.5), rel=1e-6),
                                    0.5, 1.0, 0.0]
            assert plus.dtype == sig.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_exponential_is_exact_to_rounding(self, dtype):
        # against math.log1p / math.exp in double precision, each side of the clamp
        x = np.concatenate([np.linspace(-60, 60, 2401), [-39.99, 39.99, 40.0, 40.01]])
        x = x.astype(dtype)
        plus, sig = softplus_sigmoid(x)
        exact_plus = [max(v, 0.0) + math.log1p(math.exp(-abs(v))) for v in x.tolist()]
        exact_sig = [1 / (1 + math.exp(-v)) for v in x.tolist()]
        tol = 4 * np.finfo(dtype).eps
        assert plus.tolist() == pytest.approx(exact_plus, rel=tol, abs=1e-300)
        assert sig.tolist() == pytest.approx(exact_sig, rel=tol, abs=1e-300)

    def test_nan_scores_give_a_nan_loss_without_a_warning(self):
        scores = np.array([[0.5, np.nan, 0.1], [0.2, 0.3, 0.4]])
        grades = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for variant in ("search-adaptor", "ranknet", "sigmoid-ce"):
                value, grad = rank_loss(BatchScores(scores, grades), variant)
                assert math.isnan(value)
                assert np.isnan(grad[0]).any() and not np.isnan(grad[1]).any()


class TestRecoveryLoss:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 4))
        c = rng.standard_normal((5, 4))
        value, (gq, gc) = recovery_loss(q, q, c, c)
        assert value == 0.0
        assert np.all(gq == 0.0) and np.all(gc == 0.0)

    def test_single_term_fixture(self):
        value, _ = recovery_loss(
            np.array([[1.5, 2.0]]), np.array([[1.0, 2.0]]),
            np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]]),
        )
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_l1_homogeneity(self):
        rng = np.random.default_rng(3)
        oq, oc = rng.standard_normal((2, 4)), rng.standard_normal((3, 4))
        dq, dc = rng.standard_normal((2, 4)), rng.standard_normal((3, 4))
        v1, _ = recovery_loss(oq + dq, oq, oc + dc, oc)
        v2, _ = recovery_loss(oq + 2 * dq, oq, oc + 2 * dc, oc)
        assert v2 == pytest.approx(2 * v1, rel=1e-12)

    def test_gradient_is_scaled_sign(self):
        oq = np.zeros((2, 3))
        aq = np.array([[1.0, -2.0, 0.0], [0.5, 0.0, -0.1]])
        oc = np.zeros((4, 3))
        value, (gq, gc) = recovery_loss(aq, oq, oc, oc)
        assert np.array_equal(gq, np.sign(aq) / 2)
        assert np.all(gc == 0.0)
        assert value == pytest.approx(np.abs(aq).sum() / 2, rel=1e-12)


class TestPredictionLoss:
    def test_perfect_prediction_zero(self):
        aq = np.array([[1.0, 2.0], [3.0, 4.0]])
        value, gq, gp = prediction_loss(aq, aq[[0, 1]], [0, 1], [1.0, 1.0])
        assert value == 0.0
        assert np.all(gq == 0.0) and np.all(gp == 0.0)

    def test_single_pair_fixture(self):
        value, _, _ = prediction_loss(
            np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]), [0], [1.0]
        )
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_zero_weight_pair_contributes_nothing(self):
        aq = np.array([[1.0, 0.0]])
        value_with, _, _ = prediction_loss(
            aq, np.array([[0.5, 0.5], [9.0, 9.0]]), [0, 0], [1.0, 0.0]
        )
        value_without, _, _ = prediction_loss(aq, np.array([[0.5, 0.5]]), [0], [1.0])
        assert value_with == pytest.approx(value_without, rel=1e-12)

    def test_no_positive_pairs_returns_zero(self):
        aq = np.ones((2, 3))
        value, gq, gp = prediction_loss(aq, np.zeros((0, 3)), [], [])
        assert value == 0.0
        assert np.all(gq == 0.0)

    def test_grade_weighted_normalization(self):
        aq = np.array([[1.0, 0.0], [0.0, 1.0]])
        pred = np.array([[0.0, 0.0], [0.0, 0.0]])
        # grades 3 and 1: value = (3*1 + 1*1) / 4
        value, _, _ = prediction_loss(aq, pred, [0, 1], [3.0, 1.0])
        assert value == pytest.approx(1.0, rel=1e-12)


class TestTotalLoss:
    def test_degenerate_weights_equal_rank_loss(self):
        rng = np.random.default_rng(2)
        batch = random_batch(rng)
        aq = rng.standard_normal((batch.n_q, 3))
        ac = rng.standard_normal((batch.n_c, 3))
        out = total_loss(
            batch,
            "search-adaptor",
            alpha=0.0,
            beta=0.0,
            recovery_inputs=(aq, aq * 2, ac, ac * 2),
            prediction_inputs=(aq, aq[[0]], [0], [1.0]),
        )
        assert out.value == pytest.approx(ranking_loss(batch)[0], rel=1e-12)

    def test_linear_combination_fixture(self):
        # components engineered to (0.8, 0.5, 1.0); total = 0.8 + 0.05 + 0.01
        target_rank = 0.8
        margin = math.log(math.exp(target_rank) - 1)  # softplus(margin) == 0.8
        batch = BatchScores(
            scores=np.array([[0.0, margin]]), grades=np.array([[1.0, 0.0]])
        )
        aq = np.array([[1.0, 0.0]])
        oq = np.array([[0.75, 0.25]])  # L1 drift 0.5
        ac = np.array([[1.0, 1.0]])
        pred = np.array([[0.5, 0.5]])  # grade-1 pair, L1 error 1.0
        out = total_loss(
            batch,
            "search-adaptor",
            alpha=0.1,
            beta=0.01,
            recovery_inputs=(aq, oq, ac, ac),
            prediction_inputs=(aq, pred, [0], [1.0]),
        )
        assert out.rank_value == pytest.approx(0.8, abs=1e-9)
        assert out.recovery_value == pytest.approx(0.5, abs=1e-9)
        assert out.prediction_value == pytest.approx(1.0, abs=1e-9)
        assert out.value == pytest.approx(0.86, abs=1e-5)

    def test_variant_replaces_only_rank_term(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng)
        aq = rng.standard_normal((batch.n_q, 3))
        ac = rng.standard_normal((batch.n_c, 3))
        kwargs = dict(
            recovery_inputs=(aq, aq * 1.5, ac, ac * 0.5),
            prediction_inputs=(aq, aq[[0]] * 0.3, [0], [2.0]),
        )
        base = total_loss(batch, "search-adaptor", alpha=0.1, beta=0.01, **kwargs)
        alt = total_loss(batch, "ranknet", alpha=0.1, beta=0.01, **kwargs)
        assert alt.recovery_value == pytest.approx(base.recovery_value, rel=1e-12)
        assert alt.prediction_value == pytest.approx(base.prediction_value, rel=1e-12)
        assert alt.rank_value == pytest.approx(rank_loss(batch, "ranknet")[0], rel=1e-12)


class TestDtype:
    """Each function computes in its input's float dtype; integer and list
    inputs become float64."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_results_keep_the_input_dtype(self, dtype):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((3, 4)).astype(dtype)
        c = rng.standard_normal((5, 4)).astype(dtype)
        grades = rng.choice([0, 1, 2], size=(3, 5)).astype(np.float32)
        grades[:, 0] = 1
        (q_unit, q_norm), (c_unit, c_norm) = unit_rows(q), unit_rows(c)
        batch = BatchScores(unit_scores(q_unit, c_unit), grades)
        arrays = [*softplus_sigmoid(q), q_unit, q_norm, batch.scores, batch.grades]
        for variant in LOSS_VARIANTS:
            arrays.append(rank_loss(batch, variant)[1])
        arrays += cosine_scores_backward(q_unit, q_norm, c_unit, c_norm, rank_loss(batch)[1])
        arrays += recovery_loss(q, q * 2, c, c * 2)[1]
        arrays += prediction_loss(q, c[:2], [0, 2], grades[[0, 2], 0])[1:]
        assert [a.dtype for a in arrays] == [np.dtype(dtype)] * len(arrays)
        # cosine_scores is the dense float64 reference
        assert cosine_scores(q, c).dtype == np.float64

    def test_integer_and_list_inputs_become_float64(self):
        assert softplus_sigmoid([0, 1])[0].dtype == np.float64
        assert unit_rows(np.array([[3, 4]]))[0].dtype == np.float64
        batch = BatchScores([[0.5, -0.5]], np.array([[1, 0]]))
        assert batch.scores.dtype == batch.grades.dtype == np.float64
        assert recovery_loss([[1]], [[0]], [[2]], [[0]])[1][0].dtype == np.float64

    def test_a_norm_past_the_dtype_makes_a_nan_row(self):
        # 1e20 squared overflows float32: dividing by the infinite norm would
        # make a zero row that scores 0 against everything
        x = np.array([[1e20, 1e20], [3.0, 4.0]], dtype=np.float32)
        with np.errstate(over="ignore"):
            unit, norm = unit_rows(x)
        assert norm[0] == np.inf and np.isnan(unit[0]).all()
        assert unit[1].tolist() == [np.float32(0.6), np.float32(0.8)]
        assert unit_rows(x.astype(np.float64))[0][0].tolist() == pytest.approx([2**-0.5] * 2)
