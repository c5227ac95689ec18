"""Baseline classifiers for the rotated-glyph benchmark.

Multinomial logistic regression (full-batch gradient descent with an L2
penalty on the weights, intercept unpenalized), brute-force k-nearest
neighbors with deterministic tie-breaking, and PCA feature projection.

The logistic gradient works class-major: logits, probabilities and their
residual are ``(classes, n)``, so the softmax reductions run across rows
and the weight gradient is one ``delta @ features`` product.  The logits
read a C-contiguous ``(dim, n)`` copy of the features, a faster gemm than
on the strided ``features.T`` with the same bits.  k-NN takes
``KNN_BLOCK`` queries at a time: one stacked gemv gives their distances,
bit for bit those of a per-query ``train @ query``, and array operations
choose their neighbors and count the votes, so no temporary is larger than
``KNN_BLOCK`` x training rows.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
from .patches import as_rows, row_dots

KNN_BLOCK = 64  # k-NN queries whose distances are held at once

LOGISTIC_LEARNING_RATE = 1.0
LOGISTIC_MOMENTUM = 0.9
LOGISTIC_ITERATIONS = 600


def _multinomial_grad(weights, intercept, features, features_t, one_hot_t, l2):
    """Class probabilities, shaped ``(classes, n)``, and the (weight,
    intercept) gradient of the loss, given C-contiguous transposes ``*_t``."""
    logits = weights.T @ features_t
    logits += intercept[:, None]
    logits -= np.maximum.reduce(logits, axis=0)
    probabilities = np.exp(logits, out=logits)
    probabilities /= np.add.reduce(probabilities, axis=0)
    delta = (probabilities - one_hot_t) / features.shape[0]
    grad_w = (delta @ features).T + l2 * weights
    grad_b = np.add.reduce(delta, axis=1)
    return probabilities, grad_w, grad_b


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    classes: np.ndarray

    def predict(self, features) -> np.ndarray:
        features = as_rows(features, self.weights.shape[0], "features to predict")
        standardized = (features - self.feature_mean) / self.feature_scale
        logits = standardized @ self.weights + self.intercept
        return self.classes[np.argmax(logits, axis=1)]

    def accuracy(self, features, labels) -> float:
        return float((self.predict(features) == np.asarray(labels)).mean())


def fit_logistic_regression(features, labels, l2: float = 1e-3) -> LogisticModel:
    """Deterministic full-batch gradient-descent fit (zero initialization).

    Features are standardized internally; the returned model folds the
    scaler in, so ``predict`` takes raw features.  The weight step is capped
    at ``1 / l2``, beyond which the penalty alone makes the iteration
    diverge; the unpenalized intercept keeps ``LOGISTIC_LEARNING_RATE``.  The loop
    evaluates only the gradient, never the loss.  Non-finite features, and a
    fit that still ends non-finite, raise ``DataError``.
    """
    features = as_rows(features, None, "logistic-regression features")
    labels = np.asarray(labels)
    if features.shape[0] != labels.shape[0]:
        raise DimensionError("features and labels disagree in length")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DataError("logistic regression needs at least two classes")
    mean = features.mean(axis=0)
    scale = features.std(axis=0)
    scale[scale < 1e-8] = 1.0
    standardized = (features - mean) / scale
    standardized_t = np.ascontiguousarray(standardized.T)
    one_hot_t = (classes[:, None] == labels[None, :]).astype(np.float64)
    weights = np.zeros((features.shape[1], classes.size))
    intercept = np.zeros(classes.size)
    velocity_w = np.zeros_like(weights)
    velocity_b = np.zeros_like(intercept)
    rate = LOGISTIC_LEARNING_RATE
    weight_rate = min(rate, 1.0 / l2) if l2 > 0 else rate
    for _ in range(LOGISTIC_ITERATIONS):
        _, grad_w, grad_b = _multinomial_grad(
            weights, intercept, standardized, standardized_t, one_hot_t, l2
        )
        velocity_w *= LOGISTIC_MOMENTUM  # momentum * velocity - rate * grad, in place
        velocity_w -= weight_rate * grad_w
        velocity_b *= LOGISTIC_MOMENTUM
        velocity_b -= rate * grad_b
        weights += velocity_w
        intercept += velocity_b
    if not (np.isfinite(weights).all() and np.isfinite(intercept).all()):
        raise DataError("logistic regression diverged to non-finite weights")
    return LogisticModel(weights, intercept, mean, scale, classes)


def _nearest(distances, k):
    """The first ``k`` columns of a stable argsort of each row (by distance,
    equal distances by column), without sorting whole rows: a partition
    finds the k-th distance, all columns below it are taken, and the
    lowest-index columns equal to it fill up to ``k``."""
    kth = np.partition(distances, k - 1, axis=1)[:, k - 1 : k]
    below = distances < kth
    at = distances == kth
    room = k - below.sum(axis=1, keepdims=True)
    at &= np.cumsum(at, axis=1, dtype=np.int32) <= room
    index = np.nonzero(below | at)[1].reshape(-1, k)
    near = np.take_along_axis(distances, index, axis=1)
    return np.take_along_axis(index, np.argsort(near, axis=1, kind="stable"), axis=1)


def _vote(neighbor_class, neighbor_dist, n_classes):
    """Majority class index of each row of ``(queries, k)`` neighbor class
    indices; ties go to the smallest mean neighbor distance, then the lowest
    class.  Tied classes of one row have the same number m of neighbors, and
    their m distances, in neighbor order, are averaged as one row of a
    ``(groups, m)`` array: the same pairwise sum ``.mean()`` takes of them
    alone."""
    rows = np.arange(neighbor_class.shape[0])
    counts = np.zeros((rows.size, n_classes), dtype=np.intp)
    np.add.at(counts, (rows[:, None], neighbor_class), 1)
    top = counts.max(axis=1)
    tied = counts == top[:, None]
    contested = tied.sum(axis=1) > 1
    mean = np.where(tied, 0.0, np.inf)
    for m in np.unique(top[contested]):
        row, cls = np.nonzero(tied & (contested & (top == m))[:, None])
        members = np.nonzero(neighbor_class[row] == cls[:, None])[1].reshape(-1, m)
        mean[row, cls] = neighbor_dist[row[:, None], members].mean(axis=1)
    return np.argmax(mean == mean.min(axis=1, keepdims=True), axis=1)


def classify_knn(train_features, train_labels, test_features, k: int) -> np.ndarray:
    """Euclidean k-NN, majority vote.

    Ties break toward the smallest mean distance among tied labels, then the
    lowest label.  A query's squared distances are ``|t|^2 - 2 t.q + |q|^2``
    over training rows ``t``.  They are computed for ``KNN_BLOCK`` queries at
    a time: ``np.matmul(train[None], block[:, :, None])`` is one gemv per
    query, equal bit for bit to that query's ``train @ query``, and ``|q|^2``
    is ``row_dots``, one dot per query, as ``query @ query`` is.  Neighbors
    are the first ``k`` of a stable sort of the distances (equal distances
    in training order), found without sorting whole rows.
    """
    train_features = as_rows(train_features, None, "k-NN training features")
    test_features = as_rows(test_features, train_features.shape[1], "k-NN query features")
    train_labels = np.asarray(train_labels)
    if train_features.shape[0] == 0:
        raise DataError("empty training set")
    if not 1 <= k <= train_features.shape[0]:
        raise DataError(f"k={k} outside 1..{train_features.shape[0]}")
    classes, train_class = np.unique(train_labels, return_inverse=True)
    train_sq = (train_features**2).sum(axis=1)
    predictions = np.empty(test_features.shape[0], dtype=train_labels.dtype)
    for start in range(0, test_features.shape[0], KNN_BLOCK):
        block = test_features[start : start + KNN_BLOCK]
        # train_sq - 2 * products + query_sq, in the products' own buffer
        distances = np.matmul(train_features[None], block[:, :, None])[:, :, 0]
        distances *= 2.0
        np.subtract(train_sq, distances, out=distances)
        distances += row_dots(block, block)[:, None]
        neighbors = _nearest(distances, k)
        winner = _vote(
            train_class[neighbors],
            np.take_along_axis(distances, neighbors, axis=1),
            classes.size,
        )
        predictions[start : start + KNN_BLOCK] = classes[winner]
    return predictions


def knn_accuracy(train_features, train_labels, test_features, test_labels, k):
    predictions = classify_knn(train_features, train_labels, test_features, k)
    return float((predictions == np.asarray(test_labels)).mean())


@dataclass
class PcaProjector:
    mean: np.ndarray
    components: np.ndarray  # (dim, n_components)

    def transform(self, features) -> np.ndarray:
        features = as_rows(features, self.mean.size, "features to project")
        return (features - self.mean) @ self.components


def fit_pca(features, n_components: int) -> PcaProjector:
    """Principal directions of the training set via SVD."""
    features = as_rows(features, None, "PCA features")
    n_components = min(n_components, features.shape[0] - 1, features.shape[1])
    if n_components < 1:
        raise DataError("PCA needs at least two samples")
    mean = features.mean(axis=0)
    _, _, vt = np.linalg.svd(features - mean, full_matrices=False)
    return PcaProjector(mean, vt[:n_components].T)
