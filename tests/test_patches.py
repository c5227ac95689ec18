"""Tests for ``patches.as_rows`` and ``patches.as_row``, the input gate."""

import re

import numpy as np
import pytest

from warpcode.errors import DataError, DimensionError
from warpcode.model import GatedModel, loss_and_gradient
from warpcode.patches import ImagePatch, as_row, as_rows


class TestAsRows:
    def test_float64_matrix_comes_back_as_the_same_object(self):
        rows = np.random.default_rng(1).standard_normal((5, 4))
        assert as_rows(rows, 4, "xs") is rows
        assert as_rows(rows, None, "xs") is rows

    def test_a_patch_and_a_vector_are_one_row(self):
        values = np.arange(4.0)
        for data in (ImagePatch(values), values, [0, 1, 2, 3]):
            rows = as_rows(data, 4, "x")
            assert rows.shape == (1, 4) and rows.dtype == np.float64
            np.testing.assert_array_equal(rows[0], values)

    def test_integer_rows_are_converted(self):
        rows = as_rows(np.arange(6).reshape(2, 3), 3, "xs")
        assert rows.dtype == np.float64 and rows.shape == (2, 3)

    @pytest.mark.parametrize("shape", [(5, 3), (3,), (2, 2, 4), ()])
    def test_wrong_width_or_rank_raises_dimension_error(self, shape):
        with pytest.raises(DimensionError, match="^" + re.escape(f"xs has shape {shape},")):
            as_rows(np.zeros(shape), 4, "xs")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_row_is_named(self, bad):
        rows = np.ones((6, 4))
        rows[4, 0] = bad
        rows[5, 3] = bad
        with pytest.raises(DataError, match="^xs row 4 holds non-finite values$"):
            as_rows(rows, 4, "xs")

    def test_empty_rows_pass(self):
        assert as_rows(np.zeros((0, 4)), 4, "xs").shape == (0, 4)

    def test_mirrored_pass_survives_the_gate(self, monkeypatch):
        # ys is xs selects the single-pass symmetric loss of a tied model
        import warpcode.model

        seen = []
        original = warpcode.model._one_sided_loss_and_grads

        def spy(*args):
            seen.append(args[-1])
            return original(*args)

        monkeypatch.setattr(warpcode.model, "_one_sided_loss_and_grads", spy)
        model = GatedModel.initialize(6, 6, 4, 2, tied=True, seed=2)
        rows = np.random.default_rng(3).standard_normal((5, 6))
        loss_and_gradient(model, rows, rows, symmetric=True)
        assert seen == [True]


class TestAsRow:
    def test_a_patch_or_vector_comes_back_as_a_vector(self):
        values = np.arange(4.0)
        np.testing.assert_array_equal(as_row(ImagePatch(values), 4, "x"), values)
        np.testing.assert_array_equal(as_row([0, 1, 2, 3], 4, "x"), values)

    @pytest.mark.parametrize("shape", [(1, 4), (2, 4), ()])
    def test_other_ranks_raise_dimension_error(self, shape):
        with pytest.raises(DimensionError, match="must be one 1-D image"):
            as_row(np.zeros(shape), 4, "x")

    def test_non_finite_pixel_raises_data_error(self):
        with pytest.raises(DataError, match="^x row 0 holds non-finite values$"):
            as_row([0.0, np.nan, 0.0, 0.0], 4, "x")
