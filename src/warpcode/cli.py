"""Command-line entry point.

Subcommands: ``gen`` (datasets), ``train`` (gated model), ``analyze``
(quadrature/eigenmovie reports for a checkpoint), ``classify`` (glyph
benchmark on a checkpoint), and the pipelines ``fig2``, ``fig3``, ``fig4``,
``oracle``.  Options come from ``--config`` key=value files overridden by
``--set key=value`` flags (flags win).  Exit codes: 0 success, 2
configuration error, 3 training divergence.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import experiments
from .analysis import export_filter_grid, score_filter_bank_pairs
from .classifiers import fit_logistic_regression, knn_accuracy
from .dataset import gen_dot_pairs, gen_rotated_glyphs, gen_videos
from .detector import load_bank
from .errors import (
    ConfigError,
    DivergenceError,
    LockError,
    ModelConfigError,
    WarpcodeError,
)
from .model import image_codes, load_model, save_model
from .storage import load_matrix, save_matrix, write_csv


def _parse_overrides(pairs):
    overrides = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = experiments._coerce(value)
    return overrides


def _cmd_experiment(name, args):
    cfg = experiments.ExperimentConfig.build(
        name,
        args.out,
        seed=args.seed,
        config_file=args.config,
        overrides=_parse_overrides(args.set),
    )
    runner = {
        "fig2": experiments.run_fig2,
        "fig3": experiments.run_fig3,
        "fig4": experiments.run_fig4,
        "oracle": experiments.run_detector_oracle,
    }[name]
    report = runner(cfg)
    if name == "fig2":
        print(
            f"fig2: top-half quadrature fraction (r2>=0.8) = "
            f"{report.top_half_fraction():.3f}"
        )
        print(
            f"fig2: top-half non-trivial fraction (r2>=0.8, 0.1<=|theta|<=pi-0.1) = "
            f"{report.nontrivial_fraction():.3f}"
        )
    elif name == "fig3":
        top, bottom = report.quartile_medians()
        print(f"fig3: consistency medians top={top:.3f} bottom={bottom:.3f}")
    elif name == "fig4":
        for method, by_size in sorted(report.accuracies.items()):
            summary = "  ".join(f"{s}:{a:.3f}" for s, a in sorted(by_size.items()))
            print(f"fig4 {method}: {summary}")
    else:
        print(f"oracle: accuracy {report.accuracy:.4f}")
    print(f"artifacts in {cfg.out_dir}")
    return 0


def _cmd_gen(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    overrides = _parse_overrides(args.set)
    seed = args.seed
    kind = args.kind
    if kind == "pairs":
        geometry = (overrides.pop("width", 13), overrides.pop("height", 13))
        data = gen_dot_pairs(
            int(overrides.pop("n_pairs", 1000)),
            geometry,
            family=str(overrides.pop("family", "rotation")),
            density=float(overrides.pop("density", 0.1)),
            seed=seed,
        )
        save_matrix(out / "xs.wmat", data.xs)
        save_matrix(out / "ys.wmat", data.ys)
        write_csv(
            out / "labels.csv",
            ["family", "parameter"],
            [(l.family, l.parameter) for l in data.labels],
        )
    elif kind == "videos":
        geometry = (overrides.pop("width", 13), overrides.pop("height", 13))
        n_frames = int(overrides.pop("n_frames", 6))
        videos = gen_videos(
            int(overrides.pop("n_clips", 500)),
            geometry,
            n_frames,
            [("cyclic_shift", (1, n_frames))],
            density=float(overrides.pop("density", 0.1)),
            seed=seed,
        )
        save_matrix(out / "clips.wmat", videos.concatenated())
    elif kind == "glyphs":
        geometry = (overrides.pop("width", 16), overrides.pop("height", 16))
        glyphs = gen_rotated_glyphs(
            int(overrides.pop("per_class", 100)), geometry, seed=seed
        )
        save_matrix(out / "images.wmat", glyphs.images)
        write_csv(
            out / "labels.csv",
            ["label", "split"],
            list(zip(glyphs.labels, glyphs.split)),
        )
    else:
        raise ConfigError(f"unknown dataset kind {kind!r}")
    if overrides:
        raise ConfigError(f"unused options: {sorted(overrides)}")
    print(f"wrote {kind} dataset to {out}")
    return 0


def _cmd_train(args):
    """Train on ``xs.wmat``/``ys.wmat`` with the pipelines' training path;
    options default to the ``fig2`` settings."""
    overrides = _parse_overrides(args.set)
    xs = load_matrix(Path(args.data) / "xs.wmat")
    ys = load_matrix(Path(args.data) / "ys.wmat")
    pooling = str(overrides.pop("pooling", "band"))
    nonlinearity = str(overrides.pop("nonlinearity", "sigmoid"))
    params = {
        key: overrides.pop(key, experiments.FIG2_DEFAULTS[key])
        for key in (
            "n_factors",
            "n_mappings",
            "learning_rate",
            "epochs",
            "batch_size",
            "momentum",
            "pair_decorrelation",
        )
    }
    if overrides:
        raise ConfigError(f"unused options: {sorted(overrides)}")
    model, losses = experiments.fit_gated_model(
        xs, ys, params, args.seed, pooling=pooling, nonlinearity=nonlinearity
    )
    out = Path(args.out)
    save_model(model, out / "checkpoint")
    write_csv(out / "loss_curve.csv", ["epoch", "loss"], list(enumerate(losses, start=1)))
    print(f"final loss {losses[-1]:.4f}; checkpoint in {out / 'checkpoint'}")
    return 0


def _cmd_analyze(args):
    overrides = _parse_overrides(args.set)
    if args.bank:
        bank = load_bank(Path(args.bank))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        width = int(overrides.pop("width", int(np.sqrt(bank.dim))))
        height = int(overrides.pop("height", bank.dim // width))
        if overrides:
            raise ConfigError(f"unused options: {sorted(overrides)}")
        write_csv(
            out / "detectors.csv",
            ["detector", "block", "preferred_angle"],
            [
                (d, int(bank.detector_block[d]), bank.detector_angle[d])
                for d in range(bank.n_detectors)
            ],
        )
        export_filter_grid(
            bank.input_filters.T, (width, height), out / "bank_filters.pgm"
        )
        print(f"bank with {bank.n_detectors} detectors; reports in {out}")
        return 0
    if not args.model:
        raise ConfigError("analyze needs --model or --bank")
    model = load_model(Path(args.model))
    width = int(overrides.pop("width", int(np.sqrt(model.dim_x))))
    height = int(overrides.pop("height", model.dim_x // width))
    if overrides:
        raise ConfigError(f"unused options: {sorted(overrides)}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = score_filter_bank_pairs(
        model.input_filters, model.output_filters, (width, height)
    )
    report.write(out / "quadrature.csv")
    export_filter_grid(
        model.input_filters.T, (width, height), out / "filters_input.pgm"
    )
    if not model.tied:
        export_filter_grid(
            model.output_filters.T, (width, height), out / "filters_output.pgm"
        )
    quantiles = report.summary_quantiles()
    print(f"median quadrature fit_r2: {quantiles['fit_r2'][0.5]:.3f}")
    print(f"reports in {out}")
    return 0


def _cmd_classify(args):
    overrides = _parse_overrides(args.set)
    model = load_model(Path(args.model))
    glyphs = gen_rotated_glyphs(
        int(overrides.pop("per_class", 150)),
        (int(overrides.pop("width", 16)), int(overrides.pop("height", 16))),
        seed=args.seed,
    )
    if overrides:
        raise ConfigError(f"unused options: {sorted(overrides)}")
    train_x, train_y = glyphs.subset("train")
    test_x, test_y = glyphs.subset("test")
    pooled_train = image_codes(model, train_x)
    pooled_test = image_codes(model, test_x)
    pooled_acc = fit_logistic_regression(pooled_train, train_y).accuracy(
        pooled_test, test_y
    )
    raw_acc = fit_logistic_regression(train_x, train_y).accuracy(test_x, test_y)
    knn_acc = knn_accuracy(train_x, train_y, test_x, test_y, 1)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "classify.csv",
        ["method", "accuracy"],
        [
            ("pooled_logreg", pooled_acc),
            ("raw_logreg", raw_acc),
            ("raw_knn", knn_acc),
        ],
    )
    print(
        f"pooled logreg {pooled_acc:.3f}  raw logreg {raw_acc:.3f}  raw 1-NN {knn_acc:.3f}"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="warpcode",
        description="Subspace rotation detectors and gated feature learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a configuration value (repeatable; wins over --config)",
        )

    for name in ("fig2", "fig3", "fig4", "oracle"):
        common(sub.add_parser(name, help=f"run the {name} pipeline"))

    p = sub.add_parser("gen", help="generate a dataset")
    p.add_argument("kind", choices=("pairs", "videos", "glyphs"))
    common(p)

    p = sub.add_parser("train", help="train a gated model on generated pairs")
    p.add_argument("--data", required=True, help="directory with xs.wmat/ys.wmat")
    common(p)

    p = sub.add_parser("analyze", help="quadrature report for a checkpoint or bank")
    p.add_argument("--model", help="gated-model checkpoint directory")
    p.add_argument("--bank", help="serialized detector-bank directory")
    common(p)

    p = sub.add_parser("classify", help="glyph benchmark for a checkpoint")
    p.add_argument("--model", required=True, help="checkpoint directory")
    common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("fig2", "fig3", "fig4", "oracle"):
            return _cmd_experiment(args.command, args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "classify":
            return _cmd_classify(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, LockError, ModelConfigError) as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return 2
    except DivergenceError as error:
        print(f"divergence: {error}", file=sys.stderr)
        return 3
    except WarpcodeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
