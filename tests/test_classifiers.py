"""Tests for the baseline classifiers."""

import numpy as np
import pytest

from warpcode.classifiers import (
    classify_knn,
    fit_logistic_regression,
    fit_pca,
    knn_accuracy,
    multinomial_loss_and_grad,
)
from warpcode.errors import DataError


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

    def test_empty_train_rejected(self):
        with pytest.raises(DataError):
            classify_knn(np.zeros((0, 2)), np.zeros(0), np.zeros((1, 2)), 1)

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
