"""Tests for the baseline classifiers."""

import numpy as np
import pytest

from warpcode.classifiers import (
    KNN_BLOCK,
    _multinomial_grad,
    _nearest,
    _vote,
    classify_knn,
    fit_logistic_regression,
    fit_pca,
    knn_accuracy,
)
from warpcode.errors import DataError, DimensionError


def multinomial_loss_and_grad(weights, intercept, features, one_hot, l2):
    """Mean cross-entropy with L2 on the weights (not the intercept), and
    the (weight, intercept) gradient ``_multinomial_grad`` gives for it."""
    features_t, one_hot_t = (np.ascontiguousarray(a.T) for a in (features, one_hot))
    probabilities, grad_w, grad_b = _multinomial_grad(
        weights, intercept, features, features_t, one_hot_t, l2
    )
    loss = -np.log(
        np.maximum((probabilities * one_hot.T).sum(axis=0), 1e-300)
    ).mean() + 0.5 * l2 * float(np.sum(weights * weights))
    return float(loss), grad_w, grad_b


def reference_fit(features, labels, l2=1e-3, learning_rate=1.0, momentum=0.9):
    """fit_logistic_regression's loop, evaluating the loss at every step."""
    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    scale[scale < 1e-8] = 1.0
    standardized = (features - mean) / scale
    classes = np.unique(labels)
    one_hot = (labels[:, None] == classes[None, :]).astype(np.float64)
    weights = np.zeros((features.shape[1], classes.size))
    intercept = np.zeros(classes.size)
    velocity_w = np.zeros_like(weights)
    velocity_b = np.zeros_like(intercept)
    weight_rate = min(learning_rate, 1.0 / l2)
    for _ in range(600):
        _, grad_w, grad_b = multinomial_loss_and_grad(
            weights, intercept, standardized, one_hot, l2
        )
        velocity_w = momentum * velocity_w - weight_rate * grad_w
        velocity_b = momentum * velocity_b - learning_rate * grad_b
        weights += velocity_w
        intercept += velocity_b
    return weights, intercept


def reference_knn(train_features, train_labels, test_features, k):
    """classify_knn's former per-query body: one gemv, one stable sort and
    one vote per query."""
    train_sq = (train_features**2).sum(axis=1)
    predictions = np.empty(test_features.shape[0], dtype=train_labels.dtype)
    for i, point in enumerate(test_features):
        distances = train_sq - 2.0 * (train_features @ point) + point @ point
        neighbor_idx = np.argsort(distances, kind="stable")[:k]
        neighbor_labels = train_labels[neighbor_idx]
        neighbor_dist = distances[neighbor_idx]
        candidates = np.unique(neighbor_labels)
        counts = np.array([(neighbor_labels == c).sum() for c in candidates])
        best = candidates[counts == counts.max()]
        if best.size > 1:
            mean_dist = np.array(
                [neighbor_dist[neighbor_labels == c].mean() for c in best]
            )
            best = best[mean_dist == mean_dist.min()]
        predictions[i] = best.min()
    return predictions


class TestLogisticRegression:
    def test_separable_two_class_problem_fits_perfectly(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((40, 3)) + np.array([4.0, 0.0, 0.0])
        b = rng.standard_normal((40, 3)) - np.array([4.0, 0.0, 0.0])
        features = np.vstack([a, b])
        labels = np.array([0] * 40 + [1] * 40)
        model = fit_logistic_regression(features, labels, l2=1e-6)
        assert model.accuracy(features, labels) == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_penalty_degrades_to_majority_class(self):
        rng = np.random.default_rng(2)
        features = rng.standard_normal((60, 4))
        majority_rate = 45 / 60
        # both labelings, so a NaN fit read as class 0 cannot pass
        for majority in (0, 1):
            labels = np.array([majority] * 45 + [1 - majority] * 15)
            model = fit_logistic_regression(features, labels, l2=1e6)
            assert np.isfinite(model.weights).all()
            assert np.isfinite(model.intercept).all()
            assert model.accuracy(features, labels) == pytest.approx(
                majority_rate, abs=0.05
            )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        features = rng.standard_normal((12, 5))
        labels = rng.integers(0, 3, size=12)
        classes = np.unique(labels)
        one_hot = (labels[:, None] == classes[None, :]).astype(float)
        weights = rng.standard_normal((5, classes.size)) * 0.3
        intercept = rng.standard_normal(classes.size) * 0.1
        _, grad_w, grad_b = multinomial_loss_and_grad(
            weights, intercept, features, one_hot, l2=0.01
        )
        step = 1e-6
        for grad, param in ((grad_w, weights), (grad_b, intercept)):
            flat_param = param.reshape(-1)
            flat_grad = grad.reshape(-1)
            for i in range(flat_param.size):
                original = flat_param[i]
                flat_param[i] = original + step
                up = multinomial_loss_and_grad(
                    weights, intercept, features, one_hot, 0.01
                )[0]
                flat_param[i] = original - step
                down = multinomial_loss_and_grad(
                    weights, intercept, features, one_hot, 0.01
                )[0]
                flat_param[i] = original
                numeric = (up - down) / (2 * step)
                assert abs(flat_grad[i] - numeric) <= 1e-5 * max(1.0, abs(numeric))

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            fit_logistic_regression(np.zeros((5, 2)), np.zeros(5))

    @pytest.mark.parametrize(
        "n, d, n_classes",
        # the last three rows are fig4's shapes: 10 glyph classes
        [(60, 8, 3), (20, 40, 4), (50, 6, 2), (100, 32, 10), (300, 200, 10), (1000, 256, 10)],
    )
    def test_fit_equals_loss_evaluating_reference_bitwise(self, n, d, n_classes):
        rng = np.random.default_rng(n + d)
        features = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, size=d)
        labels = np.arange(n) % n_classes
        model = fit_logistic_regression(features, labels)
        weights, intercept = reference_fit(features, labels)
        assert np.array_equal(model.weights, weights)
        assert np.array_equal(model.intercept, intercept)

    def test_nan_features_rejected_before_fitting(self):
        features = np.random.default_rng(6).standard_normal((20, 3))
        features[4, 1] = np.nan
        with pytest.raises(DataError, match="logistic-regression features"):
            fit_logistic_regression(features, np.arange(20) % 2)

    def test_predict_rejects_nan_row(self):
        rng = np.random.default_rng(7)
        model = fit_logistic_regression(rng.standard_normal((20, 3)), np.arange(20) % 2)
        rows = rng.standard_normal((4, 3))
        rows[2, 0] = np.nan
        with pytest.raises(DataError, match="features to predict"):
            model.predict(rows)

    def test_predict_rejects_wrong_width(self):
        rng = np.random.default_rng(8)
        model = fit_logistic_regression(rng.standard_normal((20, 3)), np.arange(20) % 2)
        with pytest.raises(DimensionError):
            model.predict(rng.standard_normal((4, 4)))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, size=30)
        a = fit_logistic_regression(features, labels)
        b = fit_logistic_regression(features, labels)
        np.testing.assert_array_equal(a.weights, b.weights)


class TestKnn:
    def test_exact_match_wins_with_k_one(self):
        train = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        labels = np.array([3, 1, 4])
        out = classify_knn(train, labels, np.array([[1.0, 1.0]]), k=1)
        assert out[0] == 1

    def test_k_equal_to_train_size_votes_majority(self):
        train = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([7, 7, 7, 2])
        out = classify_knn(train, labels, np.array([[10.0]]), k=4)
        assert out[0] == 7

    def test_tie_breaks_by_mean_distance_then_label(self):
        # Documented 1-D fixture: point 0.5 between labels 0 (at 0.0) and
        # 1 (at 1.2), k=2: label 0 is nearer on average.
        train = np.array([[0.0], [1.2], [9.0]])
        labels = np.array([0, 1, 2])
        out = classify_knn(train, labels, np.array([[0.5]]), k=2)
        assert out[0] == 0
        # exact distance tie: lowest label wins
        train = np.array([[-1.0], [1.0]])
        labels = np.array([5, 3])
        out = classify_knn(train, labels, np.array([[0.0]]), k=2)
        assert out[0] == 3

    def test_nan_query_rejected(self):
        train = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(DataError, match="query features"):
            classify_knn(train, np.array([0, 1]), np.array([[np.nan, 0.0]]), k=1)

    def test_inf_training_row_rejected(self):
        train = np.array([[0.0, 0.0], [np.inf, 1.0]])
        with pytest.raises(DataError, match="training features"):
            classify_knn(train, np.array([0, 1]), np.array([[0.5, 0.0]]), k=1)

    def test_query_width_off_the_training_width_rejected(self):
        train = np.zeros((3, 4))
        for query in (np.zeros((2, 5)), np.zeros((2, 3))):
            with pytest.raises(DimensionError, match="k-NN query features"):
                classify_knn(train, np.arange(3), query, k=1)

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            classify_knn(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), 1)

    @pytest.mark.parametrize("k", [1, 2, 4, 15])
    def test_blocks_equal_the_per_query_reference(self, k):
        rng = np.random.default_rng(20 + k)
        # duplicated training rows tie distances; few distinct rows tie votes
        distinct = rng.standard_normal((12, 6))
        train = distinct[rng.integers(0, 12, size=90)]
        labels = np.array([3, 7, 9])[rng.integers(0, 3, size=90)]
        # part copies of training rows, part noise; not a multiple of a block
        queries = np.vstack(
            [
                train[rng.integers(0, 90, size=70)],
                rng.standard_normal((2 * KNN_BLOCK + 3, 6)),
            ]
        )
        expected = reference_knn(train, labels, queries, k)
        np.testing.assert_array_equal(classify_knn(train, labels, queries, k), expected)
        for count in (1, KNN_BLOCK - 1, KNN_BLOCK + 1):
            np.testing.assert_array_equal(
                classify_knn(train, labels, queries[:count], k), expected[:count]
            )

    def test_rounding_decides_like_the_per_query_products(self):
        # each training row has a reversed twin under another label, and
        # every query is a palindrome, so the twins tie in exact arithmetic
        # and only the rounding of each product picks the nearer one; a
        # products matrix from one gemm rounds differently
        rng = np.random.default_rng(41)
        rows = rng.standard_normal((200, 32))
        train = np.vstack([rows, rows[:, ::-1]])
        labels = rng.integers(0, 5, size=200)
        labels = np.concatenate([labels, (labels + 1) % 5])
        half = rng.standard_normal((300, 32))
        queries = half + half[:, ::-1]
        np.testing.assert_array_equal(
            classify_knn(train, labels, queries, 1),
            reference_knn(train, labels, queries, 1),
        )

    @pytest.mark.parametrize(
        "k, label_set", [(15, [4, 2, 8]), (18, [4, 2]), (20, [4, 2])]
    )
    def test_mean_distance_tie_break_equals_the_reference(self, k, label_set):
        # every training point twice, so distances tie, under random labels
        # so votes tie often; with two labels, k=18 and 20 tie means of 9
        # and 10 distances, which numpy sums pairwise, not left to right
        rng = np.random.default_rng(31)
        train = np.repeat(rng.uniform(0, 1, size=(60, 1)) ** 3, 2, axis=0)
        labels = rng.choice(label_set, size=120)
        queries = rng.uniform(0, 1, size=(300, 1))
        predictions = classify_knn(train, labels, queries, k)
        np.testing.assert_array_equal(
            predictions, reference_knn(train, labels, queries, k)
        )
        # the fixture must exercise the tie-break: some tied votes are won
        # by a label other than the lowest tied one
        train_sq = (train**2).sum(axis=1)
        decided_by_mean = 0
        for query, prediction in zip(queries, predictions):
            distances = train_sq - 2.0 * (train @ query) + query @ query
            voters = labels[np.argsort(distances, kind="stable")[:k]]
            values, counts = np.unique(voters, return_counts=True)
            tied = values[counts == counts.max()]
            decided_by_mean += tied.size > 1 and prediction != tied.min()
        assert decided_by_mean >= 10

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 40])
    def test_nearest_equals_the_head_of_a_stable_sort(self, k):
        # few distinct distances, so most rows tie across the k-th place
        distances = np.random.default_rng(k).integers(0, 6, size=(200, 40)) * 0.5
        np.testing.assert_array_equal(
            _nearest(distances, k), np.argsort(distances, axis=1, kind="stable")[:, :k]
        )

    @pytest.mark.parametrize("m", [3, 9, 12])
    def test_vote_means_are_each_class_alone(self, m):
        # two classes with m neighbors each, the second class's distances a
        # shuffle of the first's: their means are equal in exact arithmetic,
        # and which float mean is smaller depends on the order of summation
        rng = np.random.default_rng(m)
        rows = 500
        first = rng.uniform(0, 1, size=(rows, m))
        second = rng.permuted(first, axis=1)
        dist = np.hstack([first, second])
        cls = np.repeat([[0, 1]], m, axis=1).repeat(rows, axis=0)
        order = rng.permuted(np.tile(np.arange(2 * m), (rows, 1)), axis=1)
        cls = np.take_along_axis(cls, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        expected = [
            int(dist[i][cls[i] == 1].mean() < dist[i][cls[i] == 0].mean())
            for i in range(rows)
        ]
        np.testing.assert_array_equal(_vote(cls, dist, 2), expected)

    def test_accuracy_helper(self):
        train = np.array([[0.0], [10.0]])
        labels = np.array([0, 1])
        acc = knn_accuracy(train, labels, np.array([[1.0], [9.0]]), [0, 1], 1)
        assert acc == 1.0


class TestPca:
    def test_projects_onto_leading_directions(self):
        rng = np.random.default_rng(7)
        direction = np.array([3.0, 4.0]) / 5.0
        features = np.outer(rng.standard_normal(50) * 5, direction)
        features += 0.01 * rng.standard_normal((50, 2))
        projector = fit_pca(features, 1)
        assert abs(abs(projector.components[:, 0] @ direction) - 1.0) <= 1e-3

    def test_component_count_capped_by_samples(self):
        rng = np.random.default_rng(9)
        projector = fit_pca(rng.standard_normal((4, 10)), 200)
        assert projector.components.shape[1] == 3

    def test_nan_features_rejected(self):
        features = np.random.default_rng(10).standard_normal((6, 3))
        features[0, 2] = np.nan
        with pytest.raises(DataError, match="PCA features"):
            fit_pca(features, 2)

    def test_transform_rejects_a_nan_row_and_a_wrong_width(self):
        projector = fit_pca(np.random.default_rng(11).standard_normal((6, 3)), 2)
        rows = np.ones((4, 3))
        rows[1, 0] = np.nan
        with pytest.raises(DataError, match="^features to project row 1 holds non-finite"):
            projector.transform(rows)
        with pytest.raises(DimensionError):
            projector.transform(np.ones((4, 2)))
