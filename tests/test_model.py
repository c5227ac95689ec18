"""Tests for the gated autoencoder and energy model."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import warpcode.experiments
import warpcode.model
from warpcode.dataset import gen_dot_pairs
from warpcode.errors import (
    DataError,
    DimensionError,
    DivergenceError,
    FormatError,
    ModelConfigError,
)
from warpcode.experiments import FIG2_DEFAULTS, fit_gated_model
from warpcode.model import (
    CHECKPOINT_MATRICES,
    DIVERGENCE_LOSS,
    GatedModel,
    TrainConfig,
    TrainingTrace,
    band_pairs,
    band_pooling,
    energy_forward,
    image_codes,
    infer_mappings,
    infer_sequence,
    load_model,
    loss_and_gradient,
    pair_decorrelation_gradient,
    reconstruct,
    save_model,
    train,
    _one_sided_loss_and_grads,
)
from warpcode.patches import ImagePatch, contrast_normalize
from warpcode.storage import load_matrix

from readers import write_unchecked_wmat


def identity_model(dim, nonlinearity="identity"):
    return GatedModel(
        np.eye(dim),
        np.eye(dim),
        np.eye(dim),
        np.eye(dim),
        nonlinearity=nonlinearity,
        pooling_mode="identity",
    )


def small_random_model(rng, dim=8, factors=6, mappings=3, nonlinearity="identity"):
    model = GatedModel.initialize(
        dim,
        dim,
        factors,
        mappings,
        pooling="band",
        nonlinearity=nonlinearity,
        seed=int(rng.integers(0, 2**31)),
    )
    # rough parameter scales so gradients are well-conditioned
    model.across_pool[:] = rng.standard_normal(model.across_pool.shape) * 0.5
    return model


def shift_pairs(rng, n, count, density=0.25):
    xs, ys = [], []
    while len(xs) < count:
        raw = (rng.random(n) < density).astype(float)
        s = int(rng.integers(0, n))
        x = contrast_normalize(raw)
        y = contrast_normalize(np.roll(raw, s))
        if x.degenerate or y.degenerate:
            continue
        xs.append(x.values)
        ys.append(y.values)
    return np.stack(xs), np.stack(ys)


def finite_difference_grad(model, xs, ys, param_name, step=1e-5, symmetric=False):
    param = getattr(model, param_name)
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up, _ = loss_and_gradient(model, xs, ys, symmetric=symmetric)
        flat[i] = original - step
        down, _ = loss_and_gradient(model, xs, ys, symmetric=symmetric)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * step)
    return grad


def relative_error(analytic, numeric):
    return np.abs(analytic - numeric).max() / (np.abs(numeric).max() + 1e-12)


def reference_loss_and_gradient(model, xs, ys, symmetric):
    """``loss_and_gradient`` with the mirrored pass as it was before that
    pass shared its forward product and doubled its gradients in place."""
    if not (symmetric and model.tied and ys is xs):
        return loss_and_gradient(model, xs, ys, symmetric=symmetric)
    u, p, w = model.input_filters, model.within_pool, model.across_pool
    loss, d_u, d_v, d_w = _one_sided_loss_and_grads(
        u, u, p, w, xs, xs, model.nonlinearity, model.gate_gain
    )
    return 2.0 * loss, {"input_filters": 2.0 * (d_u + d_v), "across_pool": 2.0 * d_w}


def reference_train(model, data, config):
    """``train``'s loop before its update ran in place: new velocity arrays,
    a summed pair penalty and ``np.linalg.norm`` renormalization."""
    xs, ys = data
    rng = np.random.default_rng(config.seed)
    velocities = {}
    trace = []
    for epoch in range(config.epochs):
        order = rng.permutation(xs.shape[0])
        epoch_loss = 0.0
        for start in range(0, xs.shape[0], config.batch_size):
            batch_idx = order[start : start + config.batch_size]
            batch_xs = xs[batch_idx]
            batch_ys = batch_xs if ys is xs else ys[batch_idx]
            loss, grads = reference_loss_and_gradient(
                model, batch_xs, batch_ys, config.symmetric
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


def model_parameters(model):
    names = ["input_filters", "across_pool"] + ([] if model.tied else ["output_filters"])
    return {name: getattr(model, name) for name in names}


def assert_trains_like_reference(make_model, data, config):
    """``train`` and ``reference_train`` on fresh models from ``make_model``
    give equal epoch losses and parameter bits."""
    results = []
    for run in (reference_train, train):
        model = make_model()
        trace = run(model, data, config)
        results.append((trace.epoch_losses, model_parameters(model)))
    (ref_losses, ref_params), (losses, params) = results
    np.testing.assert_array_equal(losses, ref_losses)
    for name, value in ref_params.items():
        np.testing.assert_array_equal(params[name], value)


class TestConstructor:
    @pytest.mark.parametrize("name", CHECKPOINT_MATRICES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, name, bad):
        model = GatedModel.initialize(8, 8, 4, 2, seed=35)
        matrices = {key: getattr(model, key).copy() for key in CHECKPOINT_MATRICES}
        matrices[name][1, 0] = bad
        with pytest.raises(DataError, match="non-finite"):
            GatedModel(*matrices.values())

    def test_output_filters_of_another_factor_count_rejected(self):
        model = GatedModel.initialize(8, 8, 4, 2, seed=36)
        output_filters = np.ones((8, 6))
        with pytest.raises(DimensionError, match="factor count"):
            GatedModel(model.input_filters, output_filters, model.within_pool, model.across_pool)


class TestInferMappings:
    def test_identity_parameters_pass_through_basis_vectors(self):
        model = identity_model(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = 1.0
            z = infer_mappings(model, e, e)
            np.testing.assert_allclose(z, e, atol=1e-15)

    def test_zero_input_gives_half_under_sigmoid(self):
        model = identity_model(4, nonlinearity="sigmoid")
        z = infer_mappings(model, np.zeros(4), np.ones(4))
        np.testing.assert_allclose(z, 0.5, atol=1e-15)

    def test_matches_naive_triple_loop(self):
        rng = np.random.default_rng(3)
        model = small_random_model(rng, dim=6, factors=4, mappings=2)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        z = infer_mappings(model, x, y)
        u, v, p, w = (
            model.input_filters,
            model.output_filters,
            model.within_pool,
            model.across_pool,
        )
        expected = np.zeros(2)
        for k in range(2):
            for fp in range(p.shape[1]):
                pooled = 0.0
                for f in range(4):
                    pooled += p[f, fp] * (u[:, f] @ x) * (v[:, f] @ y)
                expected[k] += w[fp, k] * pooled
        np.testing.assert_allclose(z, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        model = identity_model(4)
        with pytest.raises(DimensionError):
            infer_mappings(model, np.zeros(5), np.zeros(4))


class TestReconstruct:
    def test_zero_mappings_give_zero(self):
        rng = np.random.default_rng(5)
        model = small_random_model(rng)
        out = reconstruct(model, rng.standard_normal(8), np.zeros(3))
        np.testing.assert_array_equal(out.values, np.zeros(8))

    def test_identity_model_fixed_point(self):
        model = identity_model(5)
        e = np.zeros(5)
        e[2] = 1.0
        out = reconstruct(model, e, np.ones(5))
        np.testing.assert_allclose(out.values, e, atol=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(7)
        model = small_random_model(rng, dim=6, factors=4, mappings=2)
        x, z = rng.standard_normal(6), rng.standard_normal(2)
        out = reconstruct(model, x, z)
        u, v, p, w = (
            model.input_filters,
            model.output_filters,
            model.within_pool,
            model.across_pool,
        )
        expected = np.zeros(6)
        for i in range(6):
            for f in range(4):
                modulation = 0.0
                for fp in range(p.shape[1]):
                    for k in range(2):
                        modulation += p[f, fp] * w[fp, k] * z[k]
                expected[i] += v[i, f] * (u[:, f] @ x) * modulation
        np.testing.assert_allclose(out.values, expected, atol=1e-12)


class TestLossAndGradient:
    def test_perfect_reconstruction_has_zero_gradient(self):
        # With identity parameters and an all-ones conditioning input the
        # model reproduces y exactly; at a zero of the loss all gradients
        # must vanish.
        model = identity_model(5)
        xs = np.ones((1, 5))
        ys = np.array([[0.3, -1.2, 0.8, 0.0, 2.0]])
        loss, grads = loss_and_gradient(model, xs, ys)
        assert loss == pytest.approx(0.0, abs=1e-24)
        for grad in grads.values():
            np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    @pytest.mark.parametrize("nonlinearity,tol", [("identity", 1e-5), ("sigmoid", 1e-4)])
    def test_gradients_match_finite_differences(self, nonlinearity, tol):
        rng = np.random.default_rng(11)
        failures = []
        for trial in range(5):
            model = small_random_model(rng, nonlinearity=nonlinearity)
            xs = rng.standard_normal((4, 8))
            ys = rng.standard_normal((4, 8))
            _, grads = loss_and_gradient(model, xs, ys)
            for name in ("input_filters", "output_filters", "across_pool"):
                numeric = finite_difference_grad(model, xs, ys, name)
                err = relative_error(grads[name], numeric)
                if err > tol:
                    failures.append((trial, name, err))
        assert not failures

    def test_gradients_match_finite_differences_with_gate_gain(self):
        rng = np.random.default_rng(71)
        model = small_random_model(rng, nonlinearity="sigmoid")
        model.gate_gain = 2.5
        xs = rng.standard_normal((4, 8))
        ys = rng.standard_normal((4, 8))
        _, grads = loss_and_gradient(model, xs, ys, symmetric=True)
        for name in ("input_filters", "output_filters", "across_pool"):
            numeric = finite_difference_grad(model, xs, ys, name, symmetric=True)
            assert relative_error(grads[name], numeric) <= 1e-4

    def test_gate_gain_scales_the_gate_input_only(self):
        rng = np.random.default_rng(73)
        model = small_random_model(rng, nonlinearity="sigmoid")
        xs = rng.standard_normal((3, 8))
        ys = rng.standard_normal((3, 8))
        pre = (
            (xs @ model.input_filters) * (ys @ model.output_filters)
        ) @ model.within_pool @ model.across_pool
        codes = image_codes(model, xs)
        model.gate_gain = 4.0
        np.testing.assert_allclose(
            infer_mappings(model, xs, ys), expit(4.0 * pre), atol=1e-12
        )
        np.testing.assert_array_equal(image_codes(model, xs), codes)

    def test_symmetric_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        model = small_random_model(rng)
        xs = rng.standard_normal((3, 8))
        ys = rng.standard_normal((3, 8))
        _, grads = loss_and_gradient(model, xs, ys, symmetric=True)
        for name in ("input_filters", "output_filters", "across_pool"):
            numeric = finite_difference_grad(model, xs, ys, name, symmetric=True)
            assert relative_error(grads[name], numeric) <= 1e-5

    def test_tied_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        model = GatedModel.initialize(
            8, 8, 6, 3, pooling="band", nonlinearity="identity", tied=True, seed=4
        )
        model.across_pool[:] = rng.standard_normal(model.across_pool.shape) * 0.5
        xs = rng.standard_normal((4, 8))
        ys = rng.standard_normal((4, 8))
        _, grads = loss_and_gradient(model, xs, ys)
        assert set(grads) == {"input_filters", "across_pool"}
        for name in grads:
            numeric = finite_difference_grad(model, xs, ys, name)
            assert relative_error(grads[name], numeric) <= 1e-5

    @pytest.mark.parametrize(
        "pooling,nonlinearity",
        [
            ("identity", "sigmoid"),
            ("identity", "identity"),
            ("band", "sigmoid"),
            ("band", "identity"),
        ],
    )
    def test_tied_symmetric_shortcut_is_bit_identical(self, pooling, nonlinearity):
        # ys is xs takes the doubled one-sided pass; a copy takes both passes
        rng = np.random.default_rng(31)
        model = GatedModel.initialize(
            12, 12, 8, 4, pooling=pooling, nonlinearity=nonlinearity, tied=True, seed=6
        )
        model.across_pool[:] = rng.standard_normal(model.across_pool.shape) * 0.5
        model.gate_gain = 3.0
        xs = rng.standard_normal((5, 12))
        loss, grads = loss_and_gradient(model, xs, xs, symmetric=True)
        two_pass_loss, two_pass_grads = loss_and_gradient(
            model, xs, xs.copy(), symmetric=True
        )
        assert loss == two_pass_loss
        assert set(grads) == set(two_pass_grads) == {"input_filters", "across_pool"}
        for name in grads:
            np.testing.assert_array_equal(grads[name], two_pass_grads[name])

    def test_tied_symmetric_shortcut_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        model = GatedModel.initialize(
            8, 8, 6, 3, pooling="band", nonlinearity="sigmoid", tied=True, seed=5
        )
        model.across_pool[:] = rng.standard_normal(model.across_pool.shape) * 0.5
        xs = rng.standard_normal((4, 8))
        _, grads = loss_and_gradient(model, xs, xs, symmetric=True)
        for name in grads:
            numeric = finite_difference_grad(model, xs, xs, name, symmetric=True)
            assert relative_error(grads[name], numeric) <= 1e-4

    def test_duplicated_batch_leaves_loss_and_grads_unchanged(self):
        rng = np.random.default_rng(19)
        model = small_random_model(rng)
        xs = rng.standard_normal((3, 8))
        ys = rng.standard_normal((3, 8))
        loss_once, grads_once = loss_and_gradient(model, xs, ys)
        loss_twice, grads_twice = loss_and_gradient(
            model, np.vstack([xs, xs]), np.vstack([ys, ys])
        )
        assert loss_twice == pytest.approx(loss_once, rel=1e-12)
        for name in grads_once:
            np.testing.assert_allclose(grads_twice[name], grads_once[name], atol=1e-12)

    def test_nan_input_raises_data_error(self):
        rng = np.random.default_rng(23)
        model = small_random_model(rng)
        xs = np.full((2, 8), np.nan)
        with pytest.raises(DataError):
            loss_and_gradient(model, xs, np.zeros((2, 8)))

    def test_empty_batch_rejected(self):
        rng = np.random.default_rng(29)
        model = small_random_model(rng)
        with pytest.raises(DataError):
            loss_and_gradient(model, np.zeros((0, 8)), np.zeros((0, 8)))


class TestEnergyForward:
    def test_concatenated_split_identity(self):
        # energy on [x; y] = 2 * gated cross-term + both quadratic terms
        rng = np.random.default_rng(31)
        for _ in range(20):
            filters = rng.standard_normal((12, 5))
            pooling = rng.standard_normal((5, 3))
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            energy = energy_forward(filters, pooling, x, y)
            u, v = filters[:6], filters[6:]
            cross = pooling.T @ ((u.T @ x) * (v.T @ y))
            quad_x = pooling.T @ ((u.T @ x) ** 2)
            quad_y = pooling.T @ ((v.T @ y) ** 2)
            np.testing.assert_allclose(
                energy, 2 * cross + quad_x + quad_y, atol=1e-12
            )

    def test_zero_inputs_give_zero(self):
        filters = np.ones((8, 3))
        pooling = np.eye(3)
        out = energy_forward(filters, pooling, np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_single_filter_reads_squared_pixel(self):
        filters = np.zeros((8, 1))
        filters[0, 0] = 1.0
        out = energy_forward(filters, np.eye(1), np.array([3.0, 0, 0, 0]), np.zeros(4))
        assert out[0] == pytest.approx(9.0)


class TestInferSequence:
    def test_single_frame_reduces_to_pair_inference(self):
        model = GatedModel.initialize(6, 6, 4, 2, tied=True, seed=3)
        frame = np.random.default_rng(1).standard_normal(6)
        np.testing.assert_allclose(
            infer_sequence(model, [frame]), infer_mappings(model, frame, frame)
        )

    def test_zero_frames_give_half_sigmoid(self):
        model = GatedModel.initialize(8, 8, 4, 2, tied=True, seed=5)
        z = infer_sequence(model, [np.zeros(4), np.zeros(4)])
        np.testing.assert_allclose(z, 0.5, atol=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(37)
        model = GatedModel.initialize(
            8, 8, 4, 2, tied=True, nonlinearity="identity", seed=6
        )
        frames = [rng.standard_normal(4), rng.standard_normal(4)]
        joint = np.concatenate(frames)
        u, p, w = model.input_filters, model.within_pool, model.across_pool
        expected = w.T @ (p.T @ ((u.T @ joint) * (u.T @ joint)))
        np.testing.assert_allclose(infer_sequence(model, frames), expected, atol=1e-12)

    def test_untied_model_rejected(self):
        model = GatedModel.initialize(8, 8, 4, 2, tied=False, seed=7)
        with pytest.raises(ModelConfigError):
            infer_sequence(model, [np.zeros(4), np.zeros(4)])

    def test_wrong_frame_count_rejected(self):
        model = GatedModel.initialize(8, 8, 4, 2, tied=True, seed=8)
        with pytest.raises(DimensionError):
            infer_sequence(model, [np.zeros(4), np.zeros(4), np.zeros(4)])


class TestTrain:
    def test_zero_learning_rate_leaves_parameters_unchanged(self):
        # every parameter, bit for bit, on each model layout
        rng = np.random.default_rng(41)
        xs, ys = shift_pairs(rng, 13, 50)
        names = ("input_filters", "output_filters", "within_pool", "across_pool")
        config = TrainConfig(0.0, 5, 10, seed=1, symmetric=True, pair_decorrelation=1.0)
        for tied in (False, True):
            for pooling in ("band", "identity"):
                model = GatedModel.initialize(
                    13, 13, 10, 4, pooling=pooling, tied=tied, seed=9
                )
                before = [getattr(model, name).copy() for name in names]
                trace = train(model, (xs, xs if tied else ys), config)
                for name, old in zip(names, before):
                    np.testing.assert_array_equal(
                        getattr(model, name).view(np.uint64), old.view(np.uint64)
                    )
                # flat trace up to batch-order float summation
                assert np.ptp(trace.epoch_losses) <= 1e-14

    def test_same_seed_gives_bit_identical_runs(self):
        rng = np.random.default_rng(43)
        xs, ys = shift_pairs(rng, 13, 200)
        results = []
        for _ in range(2):
            model = GatedModel.initialize(13, 13, 16, 8, seed=11)
            trace = train(model, (xs, ys), TrainConfig(0.3, 8, 25, seed=12))
            results.append((trace.epoch_losses, model.input_filters.copy()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    def test_tied_training_on_one_array_matches_a_copy(self):
        # (rows, rows) trains through the tied symmetric shortcut,
        # (rows, rows.copy()) through both passes
        rng = np.random.default_rng(67)
        rows = rng.standard_normal((60, 12))
        results = []
        for ys in (rows, rows.copy()):
            model = GatedModel.initialize(
                12, 12, 8, 4, pooling="identity", tied=True, seed=21
            )
            config = TrainConfig(0.2, 3, 10, seed=22, symmetric=True)
            trace = train(model, (rows, ys), config)
            results.append((trace.epoch_losses, model.input_filters, model.across_pool))
        for once, twice in zip(*results):
            np.testing.assert_array_equal(once, twice)

    @pytest.mark.parametrize("same_rows", [True, False], ids=["ys_is_xs", "ys_copy"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "one_sided"])
    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
    def test_equals_reference_train_bitwise(self, tied, symmetric, same_rows):
        rng = np.random.default_rng(71)
        xs, ys = shift_pairs(rng, 13, 60)
        ys = xs if same_rows else (xs.copy() if tied else ys)
        for pooling in ("band", "identity"):
            for decorrelation in (0.0, 1.0):
                for momentum, rate in ((0.9, 0.3), (0.0, 0.3), (0.9, 0.0)):
                    config = TrainConfig(
                        rate,
                        3,
                        7,
                        seed=72,
                        momentum=momentum,
                        symmetric=symmetric,
                        pair_decorrelation=decorrelation,
                    )
                    assert_trains_like_reference(
                        lambda: GatedModel.initialize(
                            13, 13, 8, 3, pooling=pooling, tied=tied, seed=73, gate_gain=13.0
                        ),
                        (xs, ys),
                        config,
                    )

    def test_column_major_filters_equal_reference_train_bitwise(self):
        # the renormalization's column sums follow the filters' memory layout
        rng = np.random.default_rng(74)
        xs, ys = shift_pairs(rng, 13, 60)
        config = TrainConfig(0.3, 2, 10, seed=75, symmetric=True, pair_decorrelation=1.0)

        def column_major_model():
            model = GatedModel.initialize(13, 13, 8, 3, seed=76, gate_gain=13.0)
            model.input_filters = np.asfortranarray(model.input_filters)
            model.output_filters = np.asfortranarray(model.output_filters)
            return model

        assert_trains_like_reference(column_major_model, (xs, ys), config)

    def test_one_kernel_call_per_step(self, monkeypatch):
        # perfbench's model.step_us and model.update_share divide by these calls
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return loss_and_gradient(*args, **kwargs)

        monkeypatch.setattr(warpcode.model, "loss_and_gradient", counted)
        rng = np.random.default_rng(77)
        xs, ys = shift_pairs(rng, 13, 60)
        model = GatedModel.initialize(13, 13, 8, 3, tied=True, seed=78)
        train(model, (xs, xs), TrainConfig(0.3, 3, 7, symmetric=True, pair_decorrelation=1.0))
        assert len(calls) == 3 * 9

    def test_pair_penalty_on_an_odd_factor_count_rejected_before_the_first_step(self):
        rng = np.random.default_rng(79)
        xs, ys = shift_pairs(rng, 13, 20)
        model = GatedModel.initialize(13, 13, 41, 4, pooling="identity", seed=80)
        before = {name: value.copy() for name, value in model_parameters(model).items()}
        config = TrainConfig(0.3, 1, 10, symmetric=True, pair_decorrelation=1.0)
        expected = "^pair_decorrelation needs an even n_factors, got 41$"
        with pytest.raises(ModelConfigError, match=expected):
            train(model, (xs, ys), config)
        for name, value in model_parameters(model).items():
            np.testing.assert_array_equal(value, before[name])
        # without the penalty an odd count trains
        train(model, (xs, ys), TrainConfig(0.3, 1, 10, symmetric=True))

    @pytest.mark.parametrize("bad", ["xs", "ys"])
    def test_non_finite_row_rejected_before_the_first_step(self, bad):
        rng = np.random.default_rng(81)
        xs, ys = shift_pairs(rng, 13, 100)
        {"xs": xs, "ys": ys}[bad][99, 4] = np.nan
        model = GatedModel.initialize(13, 13, 12, 6, seed=82)
        before = {name: value.copy() for name, value in model_parameters(model).items()}
        with pytest.raises(DataError, match=f"{bad} row 99 holds non-finite"):
            train(model, (xs, ys), TrainConfig(0.3, 1, 10, seed=83))
        for name, value in model_parameters(model).items():
            np.testing.assert_array_equal(value, before[name])

    def test_shift_training_halves_the_loss(self):
        # Recorded desk-scale run: final/initial ~ 0.2 at these settings.
        rng = np.random.default_rng(47)
        xs, ys = shift_pairs(rng, 13, 2000)
        model = GatedModel.initialize(13, 13, 40, 20, seed=13)
        trace = train(model, (xs, ys), TrainConfig(0.5, 30, 100, seed=14))
        assert trace.final_loss < 0.5 * trace.epoch_losses[0]

    def test_filter_columns_stay_unit_norm(self):
        rng = np.random.default_rng(53)
        xs, ys = shift_pairs(rng, 13, 300)
        model = GatedModel.initialize(13, 13, 12, 6, seed=15)
        train(model, (xs, ys), TrainConfig(0.4, 6, 30, seed=16))
        for filters in (model.input_filters, model.output_filters):
            assert np.abs(np.linalg.norm(filters, axis=0) - 1.0).max() <= 1e-10

    def test_divergence_raises_with_epoch(self):
        rng = np.random.default_rng(59)
        xs, ys = shift_pairs(rng, 13, 100)
        model = GatedModel.initialize(13, 13, 12, 6, nonlinearity="identity", seed=17)
        with pytest.raises(DivergenceError) as info:
            train(model, (xs, ys), TrainConfig(500.0, 50, 10, seed=18))
        assert info.value.epoch >= 1  # numbered from 1, as loss_curve.csv numbers epochs

    def test_divergence_epoch_counts_across_the_training_stages(self, monkeypatch):
        # the second stage diverges in its own epoch 2: epoch 5 of fit_gated_model
        real_train, stages = warpcode.experiments.train, []

        def second_stage_diverges(model, data, config):
            stages.append(config)
            if len(stages) == 2:
                raise DivergenceError(2, np.inf)
            return real_train(model, data, config)

        monkeypatch.setattr(warpcode.experiments, "train", second_stage_diverges)
        rng = np.random.default_rng(60)
        xs, ys = shift_pairs(rng, 13, 20)
        params = dict(FIG2_DEFAULTS, n_factors=4, n_mappings=2, epochs=6)
        with pytest.raises(DivergenceError, match="^training diverged at epoch 5 ") as info:
            fit_gated_model(xs, ys, params, seed=3)
        assert info.value.epoch == 5 and stages[0].epochs == 3

    @pytest.mark.parametrize("n_ys", [4, 16])
    def test_row_count_mismatch_raises_before_the_first_step(self, n_ys):
        rng = np.random.default_rng(63)
        xs, ys = shift_pairs(rng, 13, 10)
        ys = np.concatenate([ys, ys])[:n_ys]
        model = GatedModel.initialize(13, 13, 12, 6, seed=17)
        before = model.input_filters.copy()
        with pytest.raises(DimensionError, match="10 x rows but"):
            train(model, (xs, ys), TrainConfig(0.3, 2, 5, seed=18))
        np.testing.assert_array_equal(model.input_filters, before)

    def test_loss_trend_smoothed_non_increasing(self):
        # 5-epoch moving average of the loss trace must not increase after
        # the burn-in epochs (stochasticity-tolerant formulation).
        rng = np.random.default_rng(61)
        xs, ys = shift_pairs(rng, 13, 1000)
        model = GatedModel.initialize(13, 13, 24, 12, seed=19)
        trace = train(model, (xs, ys), TrainConfig(0.3, 30, 50, seed=20))
        smoothed = np.convolve(trace.epoch_losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smoothed[1:]) <= 1e-6)


class TestCheckpointing:
    def test_round_trip(self, tmp_path):
        model = GatedModel.initialize(9, 9, 6, 3, seed=21)
        save_model(model, tmp_path / "ckpt")
        loaded = load_model(tmp_path / "ckpt")
        np.testing.assert_array_equal(loaded.input_filters, model.input_filters)
        np.testing.assert_array_equal(loaded.output_filters, model.output_filters)
        np.testing.assert_array_equal(loaded.across_pool, model.across_pool)
        assert loaded.nonlinearity == model.nonlinearity
        assert loaded.pooling_mode == model.pooling_mode
        assert not loaded.tied

    def test_gate_gain_round_trip(self, tmp_path):
        model = GatedModel.initialize(9, 9, 6, 3, seed=24, gate_gain=169.0)
        save_model(model, tmp_path / "gain")
        assert load_model(tmp_path / "gain").gate_gain == 169.0

    def test_tied_round_trip(self, tmp_path):
        model = GatedModel.initialize(6, 6, 4, 2, tied=True, seed=22)
        save_model(model, tmp_path / "tied")
        loaded = load_model(tmp_path / "tied")
        assert loaded.tied
        assert loaded.output_filters is loaded.input_filters


def _set_key(key, value):
    def edit(manifest):
        manifest[key] = value

    return edit


def _drop_key(key):
    def edit(manifest):
        del manifest[key]

    return edit


# model.json edits a checkpoint of GatedModel.initialize(9, 9, 6, 3) must refuse
BAD_MANIFESTS = {
    "missing-tied": (_drop_key("tied"), "model.json lacks tied"),
    "missing-dims": (_drop_key("dim_x"), "model.json lacks dim_x"),
    "tied-as-a-string": (_set_key("tied", "false"), "tied is 'false', not true or false"),
    "tied-as-a-number": (_set_key("tied", 0), "tied is 0, not true or false"),
    "factor-count-off": (
        _set_key("n_factors", 8),
        r"input_filters.wmat has shape \(9, 6\), model.json gives \(9, 8\)",
    ),
    "mapping-count-off": (
        _set_key("n_mappings", 4),
        r"across_pool.wmat has shape \(3, 3\), model.json gives \(3, 4\)",
    ),
    "output-dim-off": (
        _set_key("dim_y", 10),
        r"output_filters.wmat has shape \(9, 6\), model.json gives \(10, 6\)",
    ),
    "unknown-nonlinearity": (_set_key("nonlinearity", "relu"), "unknown nonlinearity"),
    "unknown-pooling-mode": (_set_key("pooling_mode", "foo"), "unknown pooling mode 'foo'"),
    "negative-gate-gain": (_set_key("gate_gain", -1.0), "gate_gain must be positive"),
    "gate-gain-as-a-string": (_set_key("gate_gain", "2.5"), "gate_gain is '2.5', not a number"),
    "gate-gain-as-a-boolean": (_set_key("gate_gain", True), "gate_gain is True, not a number"),
}


class TestCheckpointFiles:
    @pytest.mark.parametrize("case", list(BAD_MANIFESTS))
    def test_load_rejects_a_bad_manifest(self, tmp_path, case):
        edit, message = BAD_MANIFESTS[case]
        save_model(GatedModel.initialize(9, 9, 6, 3, seed=25), tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        edit(manifest)
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match=message):
            load_model(tmp_path)

    @pytest.mark.parametrize("raw", [b'{"dim_x": 9,', b"[9, 9, 6, 3]", b'"tied"', b"\xff{}"])
    def test_load_rejects_a_manifest_that_is_not_a_json_object(self, tmp_path, raw):
        save_model(GatedModel.initialize(9, 9, 6, 3, seed=26), tmp_path)
        (tmp_path / "model.json").write_bytes(raw)
        with pytest.raises(FormatError, match="model.json does not hold a JSON object"):
            load_model(tmp_path)

    def test_tied_checkpoint_needs_equal_dims(self, tmp_path):
        save_model(GatedModel.initialize(6, 6, 4, 2, tied=True, seed=27), tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        manifest["dim_y"] = 7
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="tied model needs dim_x == dim_y"):
            load_model(tmp_path)

    def test_checkpoint_without_gate_gain_loads_with_gain_one(self, tmp_path):
        save_model(GatedModel.initialize(9, 9, 6, 3, seed=28, gate_gain=81.0), tmp_path)
        manifest = json.loads((tmp_path / "model.json").read_text())
        del manifest["gate_gain"]
        (tmp_path / "model.json").write_text(json.dumps(manifest))
        assert load_model(tmp_path).gate_gain == 1.0

    @pytest.mark.parametrize("name", ["input_filters", "output_filters", "across_pool"])
    def test_load_rejects_a_non_finite_matrix(self, tmp_path, name):
        save_model(GatedModel.initialize(9, 9, 6, 3, seed=29), tmp_path)
        path = tmp_path / f"{name}.wmat"
        matrix = load_matrix(path)
        matrix[2, 1] = np.nan
        write_unchecked_wmat(path, matrix)
        with pytest.raises(FormatError, match=f"{name}.wmat row 2: holds a non-finite"):
            load_model(tmp_path)


class TestInputGate:
    """Every model entry point reads its images through ``patches.as_rows``:
    a NaN or infinite pixel raises DataError naming the row, a wrong width
    DimensionError."""

    @staticmethod
    def entry_points(model):
        z = np.full(model.n_mappings, 0.5)
        return {
            "infer_mappings x": lambda rows: infer_mappings(model, rows, np.ones((len(rows), 8))),
            "infer_mappings y": lambda rows: infer_mappings(model, np.ones((len(rows), 8)), rows),
            "reconstruct": lambda rows: reconstruct(model, rows, z),
            "image_codes": lambda rows: image_codes(model, rows),
            "loss_and_gradient": lambda rows: loss_and_gradient(model, rows, rows),
        }

    @pytest.mark.parametrize(
        "entry, name",
        [
            ("infer_mappings x", "x"),
            ("infer_mappings y", "y"),
            ("reconstruct", "x"),
            ("image_codes", "xs"),
            ("loss_and_gradient", "xs"),
        ],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_and_wrong_width_rejected(self, entry, name, bad):
        model = GatedModel.initialize(8, 8, 4, 2, seed=30)
        call = self.entry_points(model)[entry]
        rows = np.random.default_rng(31).standard_normal((4, 8))
        one_image = entry == "reconstruct"  # takes one image, never rows
        call(rows[2] if one_image else rows)
        rows[2, 5] = bad
        if one_image:
            with pytest.raises(DimensionError, match="^x must be one 1-D image"):
                call(rows[:2])
        else:
            with pytest.raises(DataError, match=f"^{name} row 2 holds non-finite values$"):
                call(rows)
        with pytest.raises(DataError, match=f"^{name} row 0 holds non-finite values$"):
            call(rows[2])
        with pytest.raises(DimensionError):
            call(np.zeros(9) if one_image else np.zeros((4, 9)))

    def test_non_finite_mapping_activity_rejected(self):
        model = GatedModel.initialize(8, 8, 4, 2, seed=32)
        with pytest.raises(DataError, match="z row 0"):
            reconstruct(model, np.ones(8), [0.5, np.nan])
        with pytest.raises(DimensionError):
            reconstruct(model, np.ones(8), [0.5, 0.5, 0.5])

    def test_energy_model_and_sequences_rejected_on_a_non_finite_pixel(self):
        x = np.ones(4)
        with pytest.raises(DataError):
            energy_forward(np.eye(8), np.eye(8), x, np.array([0.0, np.nan, 0.0, 0.0]))
        model = GatedModel.initialize(8, 8, 4, 2, tied=True, seed=33)
        with pytest.raises(DataError):
            infer_sequence(model, [x, np.array([np.inf, 0.0, 0.0, 0.0])])

    @pytest.mark.parametrize("entry", ["infer_mappings", "loss_and_gradient"])
    def test_unpaired_rows_rejected_as_train_rejects_them(self, entry):
        model = GatedModel.initialize(8, 8, 4, 2, seed=35)
        call = {"infer_mappings": infer_mappings, "loss_and_gradient": loss_and_gradient}[entry]
        with pytest.raises(DimensionError, match="^4 x rows but 3 y rows$"):
            call(model, np.ones((4, 8)), np.ones((3, 8)))
        with pytest.raises(DataError, match=r"^no \(x, y\) pairs$"):
            call(model, np.ones((0, 8)), np.ones((0, 8)))

    def test_energy_model_weights_read_through_the_gate(self):
        x, y = np.ones(4), np.ones(4)
        with pytest.raises(DataError, match="^filters row 0 holds non-finite values$"):
            energy_forward(np.full((8, 3), np.nan), np.ones((3, 1)), x, y)
        with pytest.raises(DataError, match="^pooling row 2 holds non-finite values$"):
            energy_forward(np.ones((8, 3)), np.array([[1.0], [1.0], [np.inf]]), x, y)
        with pytest.raises(DimensionError, match="^pooling has 4 rows for 3 factors$"):
            energy_forward(np.ones((8, 3)), np.ones((4, 1)), x, y)
        with pytest.raises(DimensionError, match="^pooling has shape"):
            energy_forward(np.ones((8, 3)), np.ones((3, 1, 1)), x, y)

    def test_training_rows_of_the_wrong_width_rejected_before_the_first_step(self):
        model = GatedModel.initialize(8, 8, 4, 2, seed=34)
        before = model.input_filters.copy()
        with pytest.raises(DimensionError, match="ys has shape"):
            train(model, (np.ones((5, 8)), np.ones((5, 9))), TrainConfig(0.3, 1, 5))
        np.testing.assert_array_equal(model.input_filters, before)


class TestImageCodes:
    def test_single_image_code_is_pooled_squared_responses(self):
        rng = np.random.default_rng(67)
        model = GatedModel.initialize(8, 8, 6, 3, pooling="band", seed=23)
        x = rng.standard_normal(8)
        code = image_codes(model, x)
        fx = model.input_filters.T @ x
        fy = model.output_filters.T @ x
        expected = model.within_pool.T @ (fx * fy)
        np.testing.assert_allclose(code[0], expected, atol=1e-12)


def test_band_pooling_layout():
    p = band_pooling(4)
    expected = np.array(
        [
            [1, 0],
            [1, 0],
            [0, 1],
            [0, 1],
        ],
        dtype=float,
    )
    np.testing.assert_array_equal(p, expected)
    with pytest.raises(ModelConfigError):
        band_pooling(5)


def reference_band_pooling(n_factors):
    """Band pooling by index arithmetic: factors 2k and 2k+1 into column k."""
    pairs = n_factors // 2
    pool = np.zeros((n_factors, pairs))
    pool[2 * np.arange(pairs), np.arange(pairs)] = 1.0
    pool[2 * np.arange(pairs) + 1, np.arange(pairs)] = 1.0
    return pool


def reference_pair_decorrelation_gradient(filters):
    """The pair penalty's gradient on the even and odd column slices."""
    left = filters[:, 0::2]
    right = filters[:, 1::2]
    alignment = 2.0 * (left * right).sum(axis=0)
    grad = np.empty_like(filters)
    grad[:, 0::2] = alignment * right
    grad[:, 1::2] = alignment * left
    return grad


class TestBandPairs:
    def test_pair_k_is_columns_2k_and_2k_plus_1_as_a_view(self):
        bank = np.arange(30.0).reshape(5, 6)
        pairs = band_pairs(bank)
        assert pairs.shape == (3, 5, 2)
        for k in range(3):
            np.testing.assert_array_equal(pairs[k], bank[:, 2 * k : 2 * k + 2])
        pairs[1, 4, 1] = -1.0
        assert bank[4, 3] == -1.0

    @pytest.mark.parametrize("shape", [(5, 7), (10,), (2, 3, 4)])
    def test_odd_columns_or_another_rank_rejected(self, shape):
        with pytest.raises(DimensionError):
            band_pairs(np.ones(shape))

    @pytest.mark.parametrize("n_factors", [2, 40, 64])
    def test_pooling_and_pair_penalty_equal_the_slicing_references_bitwise(self, n_factors):
        assert band_pooling(n_factors).tobytes() == reference_band_pooling(n_factors).tobytes()
        filters = np.random.default_rng(n_factors).standard_normal((169, n_factors))
        for bank in (filters, np.asfortranarray(filters)):
            got = pair_decorrelation_gradient(bank)
            assert got.tobytes() == reference_pair_decorrelation_gradient(bank).tobytes()


def test_pipeline_training_makes_mapping_units_respond_to_the_pair():
    # Rotated 13x13 dot pairs through the pipelines' own training path.  On
    # unit-norm patches with unit-norm filters the gate input is O(W/d), so
    # without a gate gain every mapping unit sat at sigma(0) = 0.5: at these
    # settings the per-unit std of the activities over held-out pairs
    # measured at most 0.001 (median 0.0005).  With the standardizing gain
    # the median per-unit std measures 0.31.
    data = gen_dot_pairs(2500, (13, 13), family="rotation", density=0.05, seed=71)
    params = dict(FIG2_DEFAULTS, epochs=3)
    model, _ = fit_gated_model(data.xs[:2000], data.ys[:2000], params, seed=72)
    z = infer_mappings(model, data.xs[2000:], data.ys[2000:])
    assert np.median(z.std(axis=0)) >= 0.1


def test_flop_formulas_match_counted_execution():
    # perfbench's self-test counts the array operations of loss_and_gradient
    # and batch_pooled_responses; a change to either must update its formulas
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "flops.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
