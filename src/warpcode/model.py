"""Factored gated autoencoder and the energy model on concatenated pairs.

Mapping units correlate two images through products of filter responses:

    z = sigma(g ((U^T x) * (V^T y)) P W)        (encode)
    y_hat = V ((U^T x) * (P (W z)))             (decode, predicting y from x)

with ``*`` elementwise.  ``P`` is a fixed within-subspace pooling map (band
or identity), ``W`` a learned across-subspace map and ``g`` the model's
``gate_gain``.  Training minimizes the conditional reconstruction error of
y keeping x fixed (optionally summed with the mirrored direction) by
minibatch gradient descent with momentum, renormalizing every filter column
to unit length after each step.

Why ``g``: contrast-normalized patches have unit L2 norm, so with unit-norm
filters a factor response is O(1/sqrt(d)) and a product O(1/d).  The gate's
input is then O(W/d) while the decoder needs W = O(1) to rebuild a
unit-norm y; one W cannot serve both, and at d = 169 every gate stays at
sigma(0) = 0.5.  ``g = d`` (``standardizing_gain``) gives the gate the input
it would see on data standardized to unit variance per dimension
(Memisevic 2011); the decoder and the loss keep the data's own units.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import (
    DataError,
    DimensionError,
    DivergenceError,
    ModelConfigError,
)
from .patches import ImagePatch
from .storage import load_matrix, save_matrix

DIVERGENCE_LOSS = 1e6


def band_pooling(n_factors: int) -> np.ndarray:
    """Fixed band map summing disjoint adjacent factor pairs.

    Column k pools factors 2k and 2k+1 (the two-filters-per-subspace
    layout), so each pooled unit reads exactly one filter pair and training
    pressure drives that pair to span one invariant subspace.
    """
    if n_factors % 2:
        raise ModelConfigError("band pooling needs an even factor count")
    pairs = n_factors // 2
    pool = np.zeros((n_factors, pairs))
    pool[2 * np.arange(pairs), np.arange(pairs)] = 1.0
    pool[2 * np.arange(pairs) + 1, np.arange(pairs)] = 1.0
    return pool


def _nonlinearity(name):
    if name == "sigmoid":
        return expit
    if name == "identity":
        return lambda a: a
    raise ModelConfigError(f"unknown nonlinearity {name!r}")


def _nonlinearity_derivative(name, z):
    if name == "sigmoid":
        return z * (1.0 - z)
    return np.ones_like(z)


class GatedModel:
    """Mutable parameter container for the gated autoencoder.

    ``input_filters`` (U) and ``output_filters`` (V) have one unit-norm
    column per factor; ``within_pool`` (P) is fixed, ``across_pool`` (W)
    is trained.  With ``tied=True`` a single filter bank serves both roles.
    ``gate_gain`` multiplies the pooled products before ``W``.
    """

    def __init__(
        self,
        input_filters,
        output_filters,
        within_pool,
        across_pool,
        nonlinearity="sigmoid",
        tied=False,
        pooling_mode="band",
        gate_gain=1.0,
    ):
        self.tied = bool(tied)
        self.gate_gain = float(gate_gain)
        if not (np.isfinite(self.gate_gain) and self.gate_gain > 0):
            raise ModelConfigError("gate_gain must be positive and finite")
        self.input_filters = np.array(input_filters, dtype=np.float64)
        if self.tied:
            self._output_filters = None
        else:
            self._output_filters = np.array(output_filters, dtype=np.float64)
        self.within_pool = np.array(within_pool, dtype=np.float64)
        self.across_pool = np.array(across_pool, dtype=np.float64)
        self.nonlinearity = nonlinearity
        _nonlinearity(nonlinearity)  # validate early
        self.pooling_mode = pooling_mode
        if self.input_filters.shape[1] != self.within_pool.shape[0]:
            raise DimensionError("within_pool rows must match the factor count")
        if self.within_pool.shape[1] != self.across_pool.shape[0]:
            raise DimensionError("across_pool rows must match pooled outputs")

    @property
    def output_filters(self):
        return self.input_filters if self.tied else self._output_filters

    @output_filters.setter
    def output_filters(self, value):
        if self.tied:
            raise ModelConfigError("tied model has no separate output filters")
        self._output_filters = value

    @property
    def dim_x(self):
        return self.input_filters.shape[0]

    @property
    def dim_y(self):
        return self.output_filters.shape[0]

    @property
    def n_factors(self):
        return self.input_filters.shape[1]

    @property
    def n_mappings(self):
        return self.across_pool.shape[1]

    @classmethod
    def initialize(
        cls,
        dim_x,
        dim_y,
        n_factors,
        n_mappings,
        pooling="band",
        nonlinearity="sigmoid",
        tied=False,
        seed=0,
        gate_gain=1.0,
    ):
        if tied and dim_x != dim_y:
            raise ModelConfigError("tied filters need dim_x == dim_y")
        scale = 0.1 / np.sqrt(max(dim_x, dim_y))
        rng = np.random.default_rng(seed)
        u = rng.uniform(-scale, scale, size=(dim_x, n_factors))
        v = rng.uniform(-scale, scale, size=(dim_y, n_factors))
        if pooling == "band":
            within = band_pooling(n_factors)
        elif pooling == "identity":
            within = np.eye(n_factors)
        else:
            raise ModelConfigError(f"unknown pooling mode {pooling!r}")
        w = rng.uniform(-scale, scale, size=(within.shape[1], n_mappings))
        u /= np.linalg.norm(u, axis=0, keepdims=True)
        v /= np.linalg.norm(v, axis=0, keepdims=True)
        return cls(
            u,
            v,
            within,
            w,
            nonlinearity=nonlinearity,
            tied=tied,
            pooling_mode=pooling,
            gate_gain=gate_gain,
        )

    def column_norm_deviation(self):
        dev = np.abs(np.linalg.norm(self.input_filters, axis=0) - 1.0).max()
        if not self.tied:
            dev = max(
                dev, np.abs(np.linalg.norm(self.output_filters, axis=0) - 1.0).max()
            )
        return float(dev)


def standardizing_gain(*arrays) -> float:
    """Gate gain equal to scaling ``arrays`` to unit mean square per entry.

    A product of two responses scales with the square of the inputs, so the
    gain is the inverse mean square: d for contrast-normalized d-pixel
    patches.
    """
    total = sum(float(np.vdot(a, a)) for a in arrays)
    count = sum(np.size(a) for a in arrays)
    if not (count and np.isfinite(total) and total > 0):
        raise DataError("cannot standardize empty, all-zero or non-finite data")
    return count / total


def _as_matrix(data, dim, name):
    if isinstance(data, ImagePatch):
        data = data.values[None, :]
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[1] != dim:
        raise DimensionError(f"{name} has dim {arr.shape[1]}, model expects {dim}")
    return arr


def infer_mappings(model: GatedModel, x, y) -> np.ndarray:
    """Mapping-unit activities for one pair (or a batch of pairs)."""
    xs = _as_matrix(x, model.dim_x, "x")
    ys = _as_matrix(y, model.dim_y, "y")
    if xs.shape[0] != ys.shape[0]:
        raise DimensionError("x and y batches differ in length")
    products = (xs @ model.input_filters) * (ys @ model.output_filters)
    pre = model.gate_gain * (products @ model.within_pool) @ model.across_pool
    z = _nonlinearity(model.nonlinearity)(pre)
    return z[0] if z.shape[0] == 1 and (isinstance(x, ImagePatch) or np.ndim(x) == 1) else z


def reconstruct(model: GatedModel, x, z) -> ImagePatch:
    """Linear-in-z reconstruction of y given x and mapping activities z."""
    xs = _as_matrix(x, model.dim_x, "x")
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if z.size != model.n_mappings:
        raise DimensionError(
            f"z has {z.size} entries, model has {model.n_mappings} mapping units"
        )
    modulation = model.within_pool @ (model.across_pool @ z)
    values = model.output_filters @ ((xs[0] @ model.input_filters) * modulation)
    return ImagePatch(values)


def energy_forward(filters, pooling, x, y) -> np.ndarray:
    """Energy-model activities on the concatenation [x; y].

    ``filters`` has one column per factor, sized for the concatenation;
    ``pooling`` maps squared factor responses to hidden units.
    """
    filters = np.asarray(filters, dtype=np.float64)
    pooling = np.asarray(pooling, dtype=np.float64)
    xv = x.values if isinstance(x, ImagePatch) else np.asarray(x, dtype=np.float64)
    yv = y.values if isinstance(y, ImagePatch) else np.asarray(y, dtype=np.float64)
    joint = np.concatenate([xv, yv])
    if joint.size != filters.shape[0]:
        raise DimensionError(
            f"filters expect dim {filters.shape[0]}, got {joint.size}"
        )
    responses = filters.T @ joint
    return pooling.T @ (responses * responses)


def infer_sequence(model: GatedModel, frames) -> np.ndarray:
    """Mapping activities of a tied model on the concatenation of frames."""
    if not model.tied:
        raise ModelConfigError("sequence inference requires tied filters (U = V)")
    frames = list(frames)
    if not frames:
        raise DimensionError("empty frame list")
    values = [
        f.values if isinstance(f, ImagePatch) else np.asarray(f, dtype=np.float64)
        for f in frames
    ]
    joint = np.concatenate(values)
    if joint.size != model.dim_x:
        raise DimensionError(
            f"{len(frames)} frames of dim {values[0].size} do not fill the "
            f"model's input dim {model.dim_x}"
        )
    return infer_mappings(model, joint, joint)


def image_codes(model: GatedModel, xs) -> np.ndarray:
    """First-level pooled codes of single images: pool((U^T x) * (V^T x)).

    This is the transformation-invariant code of the null transformation;
    used when data does not come in pairs.
    """
    xs = _as_matrix(xs, model.dim_x, "x")
    products = (xs @ model.input_filters) * (xs @ model.output_filters)
    return products @ model.within_pool


def _one_sided_loss_and_grads(u, v, p, w, xs, ys, nonlinearity, gain):
    batch = xs.shape[0]
    scale = 1.0 / batch
    fx = xs @ u
    fy = ys @ v
    h = fx * fy
    a = h @ p
    if gain != 1.0:
        a = a * gain
    pre = a @ w
    z = _nonlinearity(nonlinearity)(pre)
    q = z @ w.T
    m = q @ p.T
    g = fx * m
    residual = g @ v.T - ys
    loss = 0.5 * scale * float(np.sum(residual * residual))

    d_yhat = residual * scale
    d_v = d_yhat.T @ g
    d_g = d_yhat @ v
    d_m = d_g * fx
    d_fx = d_g * m
    d_q = d_m @ p
    d_w = d_q.T @ z
    d_z = d_q @ w
    d_pre = d_z * _nonlinearity_derivative(nonlinearity, z)
    d_w += a.T @ d_pre
    d_a = d_pre @ w.T
    if gain != 1.0:
        d_a *= gain
    d_h = d_a @ p.T
    d_fy = d_h * fx
    d_fx += d_h * fy
    d_u = xs.T @ d_fx
    d_v += ys.T @ d_fy
    return loss, d_u, d_v, d_w


def loss_and_gradient(model: GatedModel, xs, ys, symmetric=False):
    """Mean conditional reconstruction loss and exact parameter gradients.

    Returns ``(loss, grads)`` with ``grads`` keyed by ``input_filters``,
    ``output_filters`` and ``across_pool``; for tied models the filter
    gradient is the sum of both roles, reported under ``input_filters``.
    """
    xs = _as_matrix(xs, model.dim_x, "x")
    ys = _as_matrix(ys, model.dim_y, "y")
    if xs.shape[0] != ys.shape[0]:
        raise DimensionError("x and y batches differ in length")
    if xs.shape[0] == 0:
        raise DataError("empty batch")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise DataError("batch contains non-finite values")
    u, v, p, w = (
        model.input_filters,
        model.output_filters,
        model.within_pool,
        model.across_pool,
    )
    loss, d_u, d_v, d_w = _one_sided_loss_and_grads(
        u, v, p, w, xs, ys, model.nonlinearity, model.gate_gain
    )
    if symmetric:
        rev_loss, rev_dv, rev_du, rev_dw = _one_sided_loss_and_grads(
            v, u, p, w, ys, xs, model.nonlinearity, model.gate_gain
        )
        loss += rev_loss
        d_u += rev_du
        d_v += rev_dv
        d_w += rev_dw
    if model.tied:
        grads = {"input_filters": d_u + d_v, "across_pool": d_w}
    else:
        grads = {"input_filters": d_u, "output_filters": d_v, "across_pool": d_w}
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    epochs: int
    batch_size: int
    seed: int = 0
    momentum: float = 0.9
    symmetric: bool = False
    # Weight of the within-pair decorrelation penalty sum_k (u_2k . u_2k+1)^2
    # added during training under band pooling.  Pooled pairs otherwise tend
    # to collapse onto duplicate filters instead of spanning a subspace.
    pair_decorrelation: float = 0.0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ModelConfigError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ModelConfigError("epochs and batch_size must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ModelConfigError("momentum must lie in [0, 1)")
        if self.pair_decorrelation < 0:
            raise ModelConfigError("pair_decorrelation must be >= 0")


def pair_decorrelation_gradient(filters: np.ndarray) -> np.ndarray:
    """Gradient of ``sum_k (u_{2k} . u_{2k+1})^2`` over a filter bank."""
    left = filters[:, 0::2]
    right = filters[:, 1::2]
    alignment = 2.0 * (left * right).sum(axis=0)
    grad = np.empty_like(filters)
    grad[:, 0::2] = alignment * right
    grad[:, 1::2] = alignment * left
    return grad


@dataclass(frozen=True)
class TrainingTrace:
    epoch_losses: np.ndarray

    @property
    def initial_loss(self):
        return float(self.epoch_losses[0])

    @property
    def final_loss(self):
        return float(self.epoch_losses[-1])


def train(model: GatedModel, data, config: TrainConfig) -> TrainingTrace:
    """Minibatch SGD with momentum and per-step filter renormalization.

    ``data`` is a PairDataset or any object with ``xs``/``ys`` row arrays
    (or a plain ``(xs, ys)`` tuple).  Deterministic given the config seed.
    """
    if hasattr(data, "xs") and hasattr(data, "ys"):
        xs, ys = np.asarray(data.xs, float), np.asarray(data.ys, float)
    else:
        xs, ys = (np.asarray(part, dtype=np.float64) for part in data)
    if xs.shape[0] == 0:
        raise DataError("empty training set")
    rng = np.random.default_rng(config.seed)
    velocities = {}
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(xs.shape[0])
        epoch_loss = 0.0
        for start in range(0, xs.shape[0], config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            loss, grads = loss_and_gradient(
                model, xs[batch_idx], ys[batch_idx], symmetric=config.symmetric
            )
            if not np.isfinite(loss) or loss > DIVERGENCE_LOSS:
                raise DivergenceError(epoch, loss)
            epoch_loss += loss * batch_idx.size
            if config.pair_decorrelation:
                for name in ("input_filters", "output_filters"):
                    if name in grads:
                        grads[name] = grads[name] + config.pair_decorrelation * (
                            pair_decorrelation_gradient(getattr(model, name))
                        )
            for name, grad in grads.items():
                velocity = velocities.get(name)
                if velocity is None:
                    velocity = np.zeros_like(grad)
                velocity = config.momentum * velocity - config.learning_rate * grad
                velocities[name] = velocity
                if not velocity.any():
                    continue
                param = getattr(model, name)
                param += velocity
                if name != "across_pool":
                    param /= np.linalg.norm(param, axis=0, keepdims=True)
        trace.append(epoch_loss / xs.shape[0])
    return TrainingTrace(np.array(trace))


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: GatedModel, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_matrix(directory / "input_filters.wmat", model.input_filters)
    if not model.tied:
        save_matrix(directory / "output_filters.wmat", model.output_filters)
    save_matrix(directory / "within_pool.wmat", model.within_pool)
    save_matrix(directory / "across_pool.wmat", model.across_pool)
    manifest = {
        "dim_x": model.dim_x,
        "dim_y": model.dim_y,
        "n_factors": model.n_factors,
        "n_mappings": model.n_mappings,
        "tied": model.tied,
        "nonlinearity": model.nonlinearity,
        "pooling_mode": model.pooling_mode,
        "gate_gain": model.gate_gain,
    }
    (directory / "model.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_model(directory) -> GatedModel:
    directory = Path(directory)
    manifest = json.loads((directory / "model.json").read_text())
    input_filters = load_matrix(directory / "input_filters.wmat")
    tied = bool(manifest["tied"])
    output_filters = (
        None if tied else load_matrix(directory / "output_filters.wmat")
    )
    return GatedModel(
        input_filters,
        output_filters,
        load_matrix(directory / "within_pool.wmat"),
        load_matrix(directory / "across_pool.wmat"),
        nonlinearity=manifest["nonlinearity"],
        tied=tied,
        pooling_mode=manifest["pooling_mode"],
        gate_gain=manifest.get("gate_gain", 1.0),
    )
