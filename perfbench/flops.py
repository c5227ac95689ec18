"""Computed operation and byte counts for the two dense kernels.

The counts follow the array operations each kernel executes, by these rules:

* ``A(m, k) @ B(k, n)`` costs ``2 m k n`` flops and moves ``8 (mk + kn + mn)``
  bytes (each operand read once, the result written once);
* an elementwise ufunc costs one flop per output element (the sigmoid
  included) and moves 8 bytes per element of every array operand and of
  the output; Python scalars move nothing;
* a full reduction costs one flop per input element and moves the input
  plus the one-element output.

Bytes are computed from array sizes and ignore caches: they are the traffic
of a machine without reuse, not a measurement.

``python3 perfbench/flops.py`` runs the self-test: it executes both kernels
at tiny shapes on arrays that count every ufunc they pass through, by the
rules above, and requires the counts to equal the formulas.  With
``--table`` it prints the per-call counts at each workload's shapes.
"""

import argparse
import sys
from pathlib import Path


def _matmul(m, k, n):
    return 2 * m * k * n, 8 * (m * k + k * n + m * n)


def _elementwise(size, array_inputs):
    return size, 8 * size * (array_inputs + 1)


def _reduce(size):
    return size, 8 * (size + 1)


def _total(ops):
    return sum(op[0] for op in ops), sum(op[1] for op in ops)


def one_sided_counts(batch, dim_x, dim_y, factors, pooled, mappings, sigmoid=True):
    """(flops, bytes) of one direction of the conditional reconstruction
    loss and its gradients: ``model._one_sided_loss_and_grads``."""
    b, dx, dy, f, k, m = batch, dim_x, dim_y, factors, pooled, mappings
    ops = [
        _matmul(b, dx, f),  # fx
        _matmul(b, dy, f),  # fy
        _elementwise(b * f, 2),  # h
        _matmul(b, f, k),  # a
        _matmul(b, k, m),  # pre
        _matmul(b, m, k),  # q
        _matmul(b, k, f),  # m
        _elementwise(b * f, 2),  # g
        _matmul(b, f, dy),  # g V^T
        _elementwise(b * dy, 2),  # residual
        _elementwise(b * dy, 2),  # residual^2
        _reduce(b * dy),  # loss sum
        _elementwise(b * dy, 1),  # d_yhat
        _matmul(dy, b, f),  # d_v
        _matmul(b, dy, f),  # d_g
        _elementwise(b * f, 2),  # d_m
        _elementwise(b * f, 2),  # d_fx
        _matmul(b, f, k),  # d_q
        _matmul(k, b, m),  # d_w
        _matmul(b, k, m),  # d_z
        _elementwise(b * m, 2),  # d_pre
        _matmul(k, b, m),  # a^T d_pre
        _elementwise(k * m, 2),  # d_w +=
        _matmul(b, m, k),  # d_a
        _matmul(b, k, f),  # d_h
        _elementwise(b * f, 2),  # d_fy
        _elementwise(b * f, 2),  # d_h * fy
        _elementwise(b * f, 2),  # d_fx +=
        _matmul(dx, b, f),  # d_u
        _matmul(dy, b, f),  # ys^T d_fy
        _elementwise(dy * f, 2),  # d_v +=
    ]
    if sigmoid:  # z = expit(pre) and its derivative z (1 - z)
        ops += [_elementwise(b * m, 1)] * 2 + [_elementwise(b * m, 2)]
    return _total(ops)


def loss_and_gradient_counts(
    batch, dim_x, dim_y, factors, pooled, mappings, symmetric, tied, sigmoid=True
):
    """(flops, bytes) of one ``model.loss_and_gradient`` call."""
    shape = (factors, pooled, mappings)
    flops, moved = one_sided_counts(batch, dim_x, dim_y, *shape, sigmoid=sigmoid)
    if symmetric:
        rev = one_sided_counts(batch, dim_y, dim_x, *shape, sigmoid=sigmoid)
        adds = _total(
            [
                _elementwise(dim_x * factors, 2),
                _elementwise(dim_y * factors, 2),
                _elementwise(pooled * mappings, 2),
            ]
        )
        flops += rev[0] + adds[0]
        moved += rev[1] + adds[1]
    if tied:
        add = _elementwise(dim_x * factors, 2)
        flops += add[0]
        moved += add[1]
    return flops, moved


def model_call_counts(model, batch, symmetric):
    """Counts of ``loss_and_gradient(model, batch rows, symmetric)``."""
    return loss_and_gradient_counts(
        batch,
        model.dim_x,
        model.dim_y,
        model.n_factors,
        model.within_pool.shape[1],
        model.n_mappings,
        symmetric,
        model.tied,
        sigmoid=model.nonlinearity == "sigmoid",
    )


def bank_call_counts(bank, rows):
    """(flops, bytes) of ``detector.batch_pooled_responses`` on ``rows`` pairs."""
    dim, factors = bank.input_filters.shape
    detectors, outputs = bank.across_pool.shape
    return _total(
        [
            _matmul(rows, dim, factors),
            _matmul(rows, dim, factors),
            _elementwise(rows * factors, 2),
            _matmul(rows, factors, detectors),
            _matmul(rows, detectors, outputs),
        ]
    )


# ---------------------------------------------------------------------------
# self-test: count the operations the kernels really execute


def _counting_array_type(np):
    class Counted(np.ndarray):
        """ndarray view that tallies every ufunc it takes part in."""

        tally = [0, 0]

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [
                x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs
            ]
            if "out" in kwargs:
                kwargs["out"] = tuple(
                    o.view(np.ndarray) if isinstance(o, Counted) else o
                    for o in kwargs["out"]
                )
            result = getattr(ufunc, method)(*plain, **kwargs)
            arrays = [x for x in plain if isinstance(x, np.ndarray)]
            if method == "reduce":
                flops, moved = _reduce(arrays[0].size)
            elif ufunc is np.matmul:
                (m, k), (_, n) = arrays[0].shape, arrays[1].shape
                flops, moved = _matmul(m, k, n)
            else:
                flops, moved = _elementwise(np.size(result), len(arrays))
            Counted.tally[0] += flops
            Counted.tally[1] += moved
            if isinstance(result, np.ndarray) and result.ndim:
                return result.view(Counted)
            return result

    return Counted


def self_test(src_dir):
    """Compare the formulas with counted execution; return failure texts."""
    sys.path.insert(0, str(src_dir))
    import numpy as np

    from warpcode.detector import batch_pooled_responses
    from warpcode.experiments import build_shift_bank
    from warpcode.model import GatedModel, loss_and_gradient

    counted = _counting_array_type(np)
    rng = np.random.default_rng(0)
    failures = []

    def check(label, expected, run):
        counted.tally[:] = [0, 0]
        run()
        if tuple(counted.tally) != tuple(expected):
            failures.append(f"{label}: counted {tuple(counted.tally)}, formula {expected}")

    cases = [
        (tied, symmetric, pooling, nonlinearity)
        for tied in (False, True)
        for symmetric in (False, True)
        for pooling, nonlinearity in (("band", "sigmoid"), ("identity", "identity"))
    ]
    for tied, symmetric, pooling, nonlinearity in cases:
        dim = 6
        model = GatedModel.initialize(
            dim, dim, 4, 3, pooling=pooling, nonlinearity=nonlinearity, tied=tied
        )
        model.input_filters = model.input_filters.view(counted)
        if not tied:
            model.output_filters = model.output_filters.view(counted)
        model.within_pool = model.within_pool.view(counted)
        model.across_pool = model.across_pool.view(counted)
        xs, ys = rng.standard_normal((2, 5, dim))
        check(
            f"loss_and_gradient tied={tied} symmetric={symmetric} {pooling}/{nonlinearity}",
            model_call_counts(model, 5, symmetric),
            lambda: loss_and_gradient(model, xs, ys, symmetric=symmetric),
        )
    bank = build_shift_bank(5)
    expected = bank_call_counts(bank, 3)
    bank = type(bank)(
        bank.blocks,
        bank.detector_block,
        bank.detector_angle,
        bank.input_filters.view(counted),
        bank.output_filters.view(counted),
        bank.within_pool.view(counted),
        bank.across_pool.view(counted),
    )
    xs, ys = rng.standard_normal((2, 3, 5))
    check(
        "batch_pooled_responses dim=5",
        expected,
        lambda: batch_pooled_responses(bank, xs, ys),
    )
    # One count by hand, independent of both: one pair, 2 pixels, 2 band
    # factors, 1 mapping, one-sided, sigmoid.  The 17 products give
    # 8+8+4+2+2+4+8+8+8+4+2+2+2+2+4+8+8 = 84 flops, the 16 elementwise ops
    # and the loss sum 2+1+2+2+2+2+2+2+2+1+1+2+2+2+4+1+1 = 31.
    hand = one_sided_counts(1, 2, 2, 2, 1, 1, sigmoid=True)[0]
    if hand != 115:
        failures.append(f"hand count: formula gives {hand} flops, expected 115")
    return failures


def workload_table():
    """Per-call counts at each workload's kernel shapes."""
    from warpcode.experiments import build_shift_bank

    rows = []
    for name, dim, factors, pooled, mappings, tied in (
        ("glyphs", 256, 64, 32, 16, False),
        ("eigenmovie", 1690, 64, 64, 16, True),
    ):
        for symmetric in (False, True):
            flops, moved = loss_and_gradient_counts(
                10, dim, dim, factors, pooled, mappings, symmetric, tied
            )
            rows.append(
                (
                    f"{name} loss_and_gradient B=10 d={dim} F={factors} "
                    f"K={pooled} M={mappings} tied={tied} symmetric={symmetric}",
                    flops,
                    moved,
                )
            )
    bank = build_shift_bank(32)
    flops, moved = bank_call_counts(bank, 1)
    rows.append(
        (
            f"shift-oracle batch_pooled_responses per pair d=32 "
            f"F={bank.input_filters.shape[1]} D={bank.n_detectors} "
            f"O={bank.across_pool.shape[1]}",
            flops,
            moved,
        )
    )
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", action="store_true")
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    failures = self_test(src)
    for line in failures:
        print("FAIL", line)
    if args.table:
        for label, flops, moved in workload_table():
            print(f"{label}: {flops} flops, {moved} bytes computed")
    if failures:
        return 1
    print("flop/byte formulas match counted execution")
    return 0


if __name__ == "__main__":
    sys.exit(main())
