"""Baseline classifiers for the rotated-glyph benchmark.

Multinomial logistic regression (full-batch gradient descent with an L2
penalty on the weights, intercept unpenalized), brute-force k-nearest
neighbors with deterministic tie-breaking, and PCA feature projection.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def multinomial_loss_and_grad(weights, intercept, features, one_hot, l2):
    """Mean cross-entropy with L2 on the weights (not the intercept).

    Returns (loss, weight gradient, intercept gradient).
    """
    n = features.shape[0]
    probabilities = softmax(features @ weights + intercept)
    loss = -np.log(
        np.maximum((probabilities * one_hot).sum(axis=1), 1e-300)
    ).mean() + 0.5 * l2 * float(np.sum(weights * weights))
    delta = (probabilities - one_hot) / n
    grad_w = features.T @ delta + l2 * weights
    grad_b = delta.sum(axis=0)
    return float(loss), grad_w, grad_b


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    classes: np.ndarray

    def predict(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        standardized = (features - self.feature_mean) / self.feature_scale
        logits = standardized @ self.weights + self.intercept
        return self.classes[np.argmax(logits, axis=1)]

    def accuracy(self, features, labels) -> float:
        return float((self.predict(features) == np.asarray(labels)).mean())


def fit_logistic_regression(
    features,
    labels,
    l2: float = 1e-3,
    learning_rate: float = 1.0,
    momentum: float = 0.9,
    n_iterations: int = 600,
) -> LogisticModel:
    """Deterministic full-batch gradient-descent fit (zero initialization).

    Features are standardized internally; the returned model folds the
    scaler in, so ``predict`` takes raw features.  The weight step is capped
    at ``1 / l2``, beyond which the penalty alone makes the iteration
    diverge; the unpenalized intercept keeps ``learning_rate``.  A fit that
    still ends non-finite raises ``DataError``.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise DimensionError("features and labels disagree in length")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DataError("logistic regression needs at least two classes")
    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    scale[scale < 1e-8] = 1.0
    standardized = (features - mean) / scale
    one_hot = (labels[:, None] == classes[None, :]).astype(np.float64)
    weights = np.zeros((features.shape[1], classes.size))
    intercept = np.zeros(classes.size)
    velocity_w = np.zeros_like(weights)
    velocity_b = np.zeros_like(intercept)
    weight_rate = min(learning_rate, 1.0 / l2) if l2 > 0 else learning_rate
    for _ in range(n_iterations):
        _, grad_w, grad_b = multinomial_loss_and_grad(
            weights, intercept, standardized, one_hot, l2
        )
        velocity_w = momentum * velocity_w - weight_rate * grad_w
        velocity_b = momentum * velocity_b - learning_rate * grad_b
        weights += velocity_w
        intercept += velocity_b
    if not (np.isfinite(weights).all() and np.isfinite(intercept).all()):
        raise DataError("logistic regression diverged to non-finite weights")
    return LogisticModel(weights, intercept, mean, scale, classes)


def classify_knn(train_features, train_labels, test_features, k: int) -> np.ndarray:
    """Euclidean k-NN, majority vote.

    Ties break toward the smallest mean distance among tied labels, then the
    lowest label.
    """
    train_features = np.asarray(train_features, dtype=np.float64)
    test_features = np.asarray(test_features, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    if train_features.shape[0] == 0:
        raise DataError("empty training set")
    if not 1 <= k <= train_features.shape[0]:
        raise DataError(f"k={k} outside 1..{train_features.shape[0]}")
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


def knn_accuracy(train_features, train_labels, test_features, test_labels, k):
    predictions = classify_knn(train_features, train_labels, test_features, k)
    return float((predictions == np.asarray(test_labels)).mean())


@dataclass
class PcaProjector:
    mean: np.ndarray
    components: np.ndarray  # (dim, n_components)

    def transform(self, features) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) @ self.components


def fit_pca(features, n_components: int) -> PcaProjector:
    """Principal directions of the training set via SVD."""
    features = np.asarray(features, dtype=np.float64)
    n_components = min(n_components, features.shape[0] - 1, features.shape[1])
    if n_components < 1:
        raise DataError("PCA needs at least two samples")
    mean = features.mean(axis=0)
    _, _, vt = np.linalg.svd(features - mean, full_matrices=False)
    return PcaProjector(mean, vt[:n_components].T)
