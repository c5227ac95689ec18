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
    FormatError,
    ModelConfigError,
)
from .patches import ImagePatch, as_row, as_rows
from .storage import load_matrix, save_matrix

DIVERGENCE_LOSS = 1e6


def band_pairs(filters) -> np.ndarray:
    """The band layout: a ``(dim, n)`` filter bank as the ``(n // 2, dim, 2)``
    view of its pairs, pair k being columns 2k and 2k+1.  Band pooling sums
    the two products of a pair, meant to span one invariant subspace, and
    ``warpcode.analysis`` scores pairs.  DimensionError unless ``filters``
    is 2-D with an even column count."""
    filters = np.asarray(filters)
    if filters.ndim != 2 or filters.shape[1] % 2:
        raise DimensionError(f"band pairs need an even column count, got shape {filters.shape}")
    return filters.reshape(filters.shape[0], filters.shape[1] // 2, 2).transpose(1, 0, 2)


def check_even_factors(n_factors: int, what: str) -> None:
    """ModelConfigError unless ``n_factors`` is even, as band pairs need."""
    if n_factors % 2:
        raise ModelConfigError(f"{what} needs an even n_factors, got {n_factors}")


def band_pooling(n_factors: int) -> np.ndarray:
    """Fixed band map: column k sums the two factors of pair k of
    ``band_pairs``, so each pooled unit reads exactly one filter pair and
    training pressure drives that pair to span one invariant subspace."""
    check_even_factors(n_factors, "band pooling")
    return np.repeat(np.eye(n_factors // 2), 2, axis=0)


# The names GatedModel accepts: within-pool maps, and gate nonlinearities
# with their derivatives written in terms of their outputs
POOLINGS = {"band": band_pooling, "identity": np.eye}
NONLINEARITIES = {
    "sigmoid": (expit, lambda z: z * (1.0 - z)),
    "identity": (lambda a: a, np.ones_like),
}


def _named(table, name, what):
    if name not in table:
        raise ModelConfigError(f"unknown {what} {name!r}")
    return table[name]


class GatedModel:
    """Mutable parameter container for the gated autoencoder.

    ``input_filters`` (U) and ``output_filters`` (V) have one unit-norm
    column per factor; ``within_pool`` (P) is fixed, ``across_pool`` (W)
    is trained.  With ``tied=True`` a single filter bank serves both roles.
    ``gate_gain`` multiplies the pooled products before ``W``.  DataError
    for a non-finite matrix, DimensionError unless U and V have the same
    factor count and the pooling maps chain.
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
        self._output_filters = None if self.tied else np.array(output_filters, dtype=np.float64)
        self.within_pool = np.array(within_pool, dtype=np.float64)
        self.across_pool = np.array(across_pool, dtype=np.float64)
        self.nonlinearity = nonlinearity
        self.pooling_mode = pooling_mode
        _named(NONLINEARITIES, nonlinearity, "nonlinearity")
        _named(POOLINGS, pooling_mode, "pooling mode")
        matrices = [self.input_filters, self.output_filters, self.within_pool, self.across_pool]
        if not all(np.isfinite(m).all() for m in matrices):
            raise DataError("model matrices hold non-finite values")
        if self.output_filters.shape[1] != self.n_factors:
            raise DimensionError("output_filters must have the input filters' factor count")
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
        within = _named(POOLINGS, pooling, "pooling mode")(n_factors)
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


def pooled_products(layer, xs, ys) -> np.ndarray:
    """The first layer of a gated model or a detector bank (``layer``): the
    products of the filter responses of row pairs, pooled by ``layer.within_pool``.
    The product is formed in the buffer of the x-side responses."""
    products = xs @ layer.input_filters
    products *= ys @ layer.output_filters
    return products @ layer.within_pool


def _pair_rows(model: GatedModel, x, y, names=("xs", "ys")):
    """``x`` and ``y`` through ``as_rows`` at the model's widths as a batch of
    pairs: DataError for no rows, DimensionError unless the row counts agree.
    ``y is x`` on a square model is read once, so ``ys is xs`` holds after."""
    xs = as_rows(x, model.dim_x, names[0])
    ys = xs if y is x and model.dim_y == model.dim_x else as_rows(y, model.dim_y, names[1])
    if not xs.shape[0]:
        raise DataError("no (x, y) pairs")
    if xs.shape[0] != ys.shape[0]:
        raise DimensionError(f"{xs.shape[0]} x rows but {ys.shape[0]} y rows")
    return xs, ys


def infer_mappings(model: GatedModel, x, y) -> np.ndarray:
    """Mapping-unit activities for one pair (or a batch of pairs)."""
    xs, ys = _pair_rows(model, x, y, ("x", "y"))
    pooled = pooled_products(model, xs, ys)
    pre = model.gate_gain * pooled @ model.across_pool
    z = NONLINEARITIES[model.nonlinearity][0](pre)
    return z[0] if z.shape[0] == 1 and (isinstance(x, ImagePatch) or np.ndim(x) == 1) else z


def reconstruct(model: GatedModel, x, z) -> ImagePatch:
    """Linear-in-z reconstruction of y given one image x and mapping
    activities z."""
    x = as_row(x, model.dim_x, "x")
    z = as_row(np.ravel(z), model.n_mappings, "z")
    modulation = model.within_pool @ (model.across_pool @ z)
    values = model.output_filters @ ((x @ model.input_filters) * modulation)
    return ImagePatch(values)


def energy_forward(filters, pooling, x, y) -> np.ndarray:
    """Energy-model activities on the concatenation [x; y].

    ``filters`` has one column per factor, sized for the concatenation;
    ``pooling`` maps squared factor responses to hidden units, one row per
    factor.  Both pass ``as_rows``, and DimensionError unless they chain.
    """
    filters = as_rows(filters, None, "filters")
    pooling = as_rows(pooling, None, "pooling")
    if pooling.shape[0] != filters.shape[1]:
        raise DimensionError(f"pooling has {pooling.shape[0]} rows for {filters.shape[1]} factors")
    xv, yv = (v.values if isinstance(v, ImagePatch) else v for v in (x, y))
    joint = as_row(np.concatenate([xv, yv]), filters.shape[0], "[x; y]")
    responses = filters.T @ joint
    return pooling.T @ (responses * responses)


def infer_sequence(model: GatedModel, frames) -> np.ndarray:
    """Mapping activities of a tied model on the concatenation of frames."""
    if not model.tied:
        raise ModelConfigError("sequence inference requires tied filters (U = V)")
    frames = [f.values if isinstance(f, ImagePatch) else f for f in frames]
    if not frames:
        raise DimensionError("empty frame list")
    joint = as_row(np.concatenate(frames), model.dim_x, "the concatenated frames")
    return infer_mappings(model, joint, joint)


def image_codes(model: GatedModel, xs) -> np.ndarray:
    """First-level pooled codes of single images: pool((U^T x) * (V^T x)).

    This is the transformation-invariant code of the null transformation;
    used when data does not come in pairs.
    """
    xs = as_rows(xs, model.dim_x, "xs")
    return pooled_products(model, xs, xs)


def _one_sided_loss_and_grads(u, v, p, w, xs, ys, nonlinearity, gain, mirrored=False):
    # mirrored: v is u and ys is xs, so fy is the product fx already holds
    batch = xs.shape[0]
    scale = 1.0 / batch
    fx = xs @ u
    fy = fx if mirrored else ys @ v
    h = fx * fy
    a = h @ p
    if gain != 1.0:
        a = a * gain
    pre = a @ w
    function, derivative = NONLINEARITIES[nonlinearity]
    z = function(pre)
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
    d_pre = d_z * derivative(z)
    d_w += a.T @ d_pre
    d_a = d_pre @ w.T
    if gain != 1.0:
        d_a *= gain
    d_h = d_a @ p.T
    d_fy = d_h * fx
    d_fx += d_fy if mirrored else d_h * fy
    d_u = xs.T @ d_fx
    d_v += ys.T @ d_fy
    return loss, d_u, d_v, d_w


def loss_and_gradient(model: GatedModel, xs, ys, symmetric=False):
    """Mean conditional reconstruction loss and exact parameter gradients.

    Returns ``(loss, grads)`` with ``grads`` keyed by ``input_filters``,
    ``output_filters`` and ``across_pool``; for tied models the filter
    gradient is the sum of both roles, reported under ``input_filters``.

    A symmetric loss on a tied model with ``ys is xs`` runs the mirrored
    pass on the same filters and rows, so its result is that of the first
    pass: the loss and gradients are doubled instead of recomputed.  This
    is exact, since the two-pass sum ``(a + b) + (b + a)`` equals
    ``2 (a + b)`` in floating point.  That one pass computes ``xs U`` and
    ``d_h * (xs U)`` once each, since both of its roles read the same
    product, and doubles its gradients in place.
    """
    mirrored = symmetric and model.tied and ys is xs
    xs, ys = _pair_rows(model, xs, ys)
    u, v, p, w = (
        model.input_filters,
        model.output_filters,
        model.within_pool,
        model.across_pool,
    )
    loss, d_u, d_v, d_w = _one_sided_loss_and_grads(
        u, v, p, w, xs, ys, model.nonlinearity, model.gate_gain, mirrored
    )
    if mirrored:
        d_u += d_v
        d_u *= 2.0
        d_w *= 2.0
        return 2.0 * loss, {"input_filters": d_u, "across_pool": d_w}
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
    """Gradient of ``sum_k (u_{2k} . u_{2k+1})^2``, the squared alignment of
    each band pair's two filters, over a filter bank."""
    pairs = band_pairs(filters)
    alignment = 2.0 * (pairs[..., 0] * pairs[..., 1]).sum(axis=1)[:, None]
    grad = np.empty_like(filters)
    swapped = band_pairs(grad)  # written one side at a time: a reversed view is slow
    np.multiply(pairs[..., 1], alignment, out=swapped[..., 0])
    np.multiply(pairs[..., 0], alignment, out=swapped[..., 1])
    return grad


@dataclass(frozen=True)
class TrainingTrace:
    epoch_losses: np.ndarray

    @property
    def final_loss(self):
        return float(self.epoch_losses[-1])


def train(model: GatedModel, data, config: TrainConfig) -> TrainingTrace:
    """Minibatch SGD with momentum and per-step filter renormalization.

    ``data`` is a PairDataset or any object with ``xs``/``ys`` row arrays
    (or a plain ``(xs, ys)`` tuple).  Deterministic given the config seed.
    Rows with non-finite values, and a pair penalty on an odd factor
    count, are rejected before the first step.

    A step allocates no parameter-sized array beyond its gradients.  The
    update runs in place: ``velocity *= momentum``, ``grad *=
    learning_rate``, ``velocity -= grad``, ``param += velocity``; the pair
    penalty is added into the gradient.  A filter bank is then renormalized
    from its squares, written into the spent gradient buffer: column sums
    by ``np.add.reduce``, ``np.sqrt``, ``param /= norms``.  Each in-place
    form computes the same IEEE operations in the same order as the
    expression it replaces (``momentum * velocity - learning_rate * grad``
    and ``np.linalg.norm(param, axis=0)``), so the results are bit for bit
    theirs.  The squares take the buffer only when it has the parameter's
    memory layout, since the layout sets the order of the column sums.
    At ``learning_rate`` 0 every step still computes the loss and all its
    gradients, then discards the gradients and updates nothing.
    """
    xs, ys = (data.xs, data.ys) if hasattr(data, "xs") and hasattr(data, "ys") else data
    xs, ys = _pair_rows(model, xs, ys)
    if config.pair_decorrelation:
        check_even_factors(model.n_factors, "pair_decorrelation")
    rng = np.random.default_rng(config.seed)
    velocities = {}
    trace = []
    for epoch in range(1, config.epochs + 1):  # numbered as loss_curve.csv numbers them
        order = rng.permutation(xs.shape[0])
        epoch_loss = 0.0
        for start in range(0, xs.shape[0], config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch_xs = xs[batch_idx]
            batch_ys = batch_xs if ys is xs else ys[batch_idx]
            loss, grads = loss_and_gradient(
                model, batch_xs, batch_ys, symmetric=config.symmetric
            )
            if not np.isfinite(loss) or loss > DIVERGENCE_LOSS:
                raise DivergenceError(epoch, loss)
            epoch_loss += loss * batch_idx.size
            if not config.learning_rate:
                continue
            for name, grad in grads.items():
                param = getattr(model, name)
                filters = name != "across_pool"
                if filters and config.pair_decorrelation:
                    grad += config.pair_decorrelation * pair_decorrelation_gradient(param)
                velocity = velocities.get(name)
                if velocity is None:
                    velocity = velocities[name] = np.zeros_like(grad)
                velocity *= config.momentum
                grad *= config.learning_rate
                velocity -= grad
                param += velocity
                if filters:
                    out = grad if grad.strides == param.strides else None
                    norms = np.add.reduce(
                        np.multiply(param, param, out=out), axis=0, keepdims=True
                    )
                    param /= np.sqrt(norms, out=norms)
        trace.append(epoch_loss / xs.shape[0])
    return TrainingTrace(np.array(trace))


# ---------------------------------------------------------------------------
# checkpoints


# model.json's keys in the order save_model writes them, and the WMAT files
# in the order of GatedModel's arguments (a tied model has no output filters)
CHECKPOINT_KEYS = (
    "dim_x", "dim_y", "n_factors", "n_mappings",
    "tied", "nonlinearity", "pooling_mode", "gate_gain",
)
CHECKPOINT_MATRICES = ("input_filters", "output_filters", "within_pool", "across_pool")


def _matrix_files(directory, tied):
    names = [name for name in CHECKPOINT_MATRICES if name != "output_filters" or not tied]
    return {name: directory / f"{name}.wmat" for name in names}


def save_model(model: GatedModel, directory) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, path in _matrix_files(directory, model.tied).items():
        save_matrix(path, getattr(model, name))
    manifest = {key: getattr(model, key) for key in CHECKPOINT_KEYS}
    (directory / "model.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_model(directory) -> GatedModel:
    """Read a checkpoint that ``save_model`` wrote.

    FormatError, naming the file, unless ``model.json`` is a JSON object
    with every key ``save_model`` writes (a missing ``gate_gain``, as in
    older checkpoints, reads 1.0), a boolean ``tied``, a numeric
    ``gate_gain`` and values the model accepts, and each matrix has the
    shape ``model.json`` gives it; ``load_matrix`` rejects non-finite entries.
    """
    directory = Path(directory)
    try:
        text = (directory / "model.json").read_text()
        manifest = {"gate_gain": 1.0, **json.loads(text)}
    except (ValueError, TypeError) as error:  # not UTF-8, not JSON, not an object
        raise FormatError(f"model.json does not hold a JSON object: {error}") from None
    missing = [key for key in CHECKPOINT_KEYS if key not in manifest]
    if missing:
        raise FormatError(f"model.json lacks {', '.join(missing)}")
    tied = manifest["tied"]
    if not isinstance(tied, bool):
        raise FormatError(f"model.json: tied is {tied!r}, not true or false")
    gain = manifest["gate_gain"]
    if isinstance(gain, bool) or not isinstance(gain, (int, float)):
        raise FormatError(f"model.json: gate_gain is {gain!r}, not a number")
    if tied and manifest["dim_y"] != manifest["dim_x"]:
        raise FormatError("model.json: a tied model needs dim_x == dim_y")
    files = _matrix_files(directory, tied)
    matrices = {name: load_matrix(path) for name, path in files.items()}
    factors, pooled = manifest["n_factors"], matrices["within_pool"].shape[1]
    shapes = {
        "input_filters": (manifest["dim_x"], factors),
        "output_filters": (manifest["dim_y"], factors),
        "within_pool": (factors, pooled),
        "across_pool": (pooled, manifest["n_mappings"]),
    }
    for name, matrix in matrices.items():
        if matrix.shape != shapes[name]:
            raise FormatError(
                f"{name}.wmat has shape {matrix.shape}, model.json gives {shapes[name]}"
            )
    try:
        return GatedModel(
            *(matrices.get(name) for name in CHECKPOINT_MATRICES),
            nonlinearity=manifest["nonlinearity"],
            tied=tied,
            pooling_mode=manifest["pooling_mode"],
            gate_gain=gain,
        )
    except (TypeError, ValueError) as error:  # a name, or a gate_gain out of range
        raise FormatError(f"model.json: {error}") from None
