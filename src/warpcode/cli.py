"""Command-line entry point.

Subcommands: ``gen`` (datasets), ``train`` (gated model), ``analyze``
(quadrature/eigenmovie reports for a checkpoint), ``classify`` (glyph
benchmark on a checkpoint), and the pipelines ``fig2``, ``fig3``, ``fig4``,
``oracle``.  Every subcommand's options come from ``--config`` key=value
files overridden by ``--set key=value`` flags (flags win), checked by
``experiments.ExperimentConfig.build`` against the subcommand's table.
Exit codes: 0 success, 2 configuration error (a missing input path too), 3
training divergence.
"""

import argparse
import math
import sys
from pathlib import Path

from . import experiments
from .analysis import export_filter_grid, score_filter_bank_pairs
from .dataset import gen_dot_pairs, gen_rotated_glyphs, gen_videos
from .detector import load_bank
from .errors import (
    ConfigError,
    DimensionError,
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


def _config(name, args):
    """``name``'s options from ``--config``, ``--set`` and ``--seed``."""
    return experiments.ExperimentConfig.build(
        name,
        args.out,
        seed=args.seed,
        config_file=args.config,
        overrides=_parse_overrides(args.set),
    )


def _check_geometry(width, height, dim, source):
    """ConfigError (exit 2) unless width x height is the source's dim."""
    if width * height != dim:
        raise ConfigError(
            f"width {width} x height {height} does not match the "
            f"{source}'s dim {dim}; set width and height"
        )


def _cmd_experiment(name, args):
    cfg = _config(name, args)
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
    cfg = _config(f"gen {args.kind}", args)
    p, out = cfg.params, cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    geometry = (p["width"], p["height"])
    if args.kind == "pairs":
        data = gen_dot_pairs(
            p["n_pairs"],
            geometry,
            family=p["family"],
            density=p["density"],
            seed=cfg.seed,
        )
        save_matrix(out / "xs.wmat", data.xs)
        save_matrix(out / "ys.wmat", data.ys)
        write_csv(
            out / "labels.csv",
            ["family", "parameter"],
            [(l.family, l.parameter) for l in data.labels],
        )
    elif args.kind == "videos":
        videos = gen_videos(
            p["n_clips"],
            geometry,
            p["n_frames"],
            [("cyclic_shift", (1, p["n_frames"]))],
            density=p["density"],
            seed=cfg.seed,
        )
        save_matrix(out / "clips.wmat", videos.concatenated())
    else:
        glyphs = gen_rotated_glyphs(p["per_class"], geometry, seed=cfg.seed)
        save_matrix(out / "images.wmat", glyphs.images)
        write_csv(
            out / "labels.csv",
            ["label", "split"],
            list(zip(glyphs.labels, glyphs.split)),
        )
    print(f"wrote {args.kind} dataset to {out}")
    return 0


def _cmd_train(args):
    """Train on ``xs.wmat``/``ys.wmat`` with the pipelines' training path;
    options default to the ``fig2`` settings."""
    cfg = _config("train", args)
    p, out = cfg.params, cfg.out_dir
    xs = load_matrix(Path(args.data) / "xs.wmat")
    ys = load_matrix(Path(args.data) / "ys.wmat")
    try:
        model, losses = experiments.fit_gated_model(
            xs, ys, p, cfg.seed, pooling=p["pooling"], nonlinearity=p["nonlinearity"]
        )
    except DimensionError as error:  # xs and ys do not pair up
        raise ConfigError(f"{args.data}: {error}") from error
    save_model(model, out / "checkpoint")
    experiments.write_loss_curve(out / "loss_curve.csv", losses)
    print(f"final loss {losses[-1]:.4f}; checkpoint in {out / 'checkpoint'}")
    return 0


def _cmd_analyze(args):
    cfg = _config("analyze", args)
    if args.bank:
        bank = load_bank(Path(args.bank))
        dim = bank.dim
    elif args.model:
        model = load_model(Path(args.model))
        dim = model.dim_x
    else:
        raise ConfigError("analyze needs --model or --bank")
    width = cfg.params["width"] or math.isqrt(dim)
    geometry = (width, cfg.params["height"] or dim // width)
    _check_geometry(*geometry, dim, "bank" if args.bank else "checkpoint")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    if args.bank:
        write_csv(
            out / "detectors.csv",
            ["detector", "block", "preferred_angle"],
            [
                (d, int(bank.detector_block[d]), bank.detector_angle[d])
                for d in range(bank.n_detectors)
            ],
        )
        # one tile per x filter of each detector, its block's rotated basis
        tiles = [
            vec
            for index, theta in zip(bank.detector_block, bank.detector_angle)
            for vec in bank.blocks[index].rotated_basis(theta)
        ]
        export_filter_grid(tiles, geometry, out / "bank_filters.pgm")
        print(f"bank with {bank.n_detectors} detectors; reports in {out}")
        return 0
    report = score_filter_bank_pairs(
        model.input_filters, model.output_filters, geometry
    )
    report.write(out / "quadrature.csv")
    export_filter_grid(model.input_filters.T, geometry, out / "filters_input.pgm")
    if not model.tied:
        export_filter_grid(
            model.output_filters.T, geometry, out / "filters_output.pgm"
        )
    quantiles = report.summary_quantiles()
    print(f"median quadrature fit_r2: {quantiles['fit_r2'][0.5]:.3f}")
    print(f"reports in {out}")
    return 0


def _cmd_classify(args):
    """fig4's pooled-logreg, raw-logreg and raw-1-NN evaluation of a
    checkpoint on freshly rasterized glyphs."""
    cfg = _config("classify", args)
    p, out = cfg.params, cfg.out_dir
    model = load_model(Path(args.model))
    _check_geometry(p["width"], p["height"], model.dim_x, "checkpoint")
    glyphs = gen_rotated_glyphs(
        p["per_class"], (p["width"], p["height"]), seed=cfg.seed
    )
    train_x, train_y = glyphs.subset("train")
    test_x, test_y = glyphs.subset("test")
    accuracies = experiments.glyph_accuracies(
        (image_codes(model, train_x), train_x, train_y),
        (image_codes(model, test_x), test_x, test_y),
    )
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "classify.csv", ["method", "accuracy"], list(accuracies.items()))
    print(
        "pooled logreg {pooled_logreg:.3f}  raw logreg {raw_logreg:.3f}  "
        "raw 1-NN {raw_knn:.3f}".format(**accuracies)
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
        return {
            "gen": _cmd_gen,
            "train": _cmd_train,
            "analyze": _cmd_analyze,
            "classify": _cmd_classify,
        }[args.command](args)
    except (ConfigError, LockError, ModelConfigError) as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as error:
        # an input named by --data, --model, --bank or --config is missing,
        # or a file where a directory belongs (or the other way round)
        message = f"{error.strerror}: {error.filename}"
        print(f"configuration error: {message}", file=sys.stderr)
        return 2
    except DivergenceError as error:
        print(f"divergence: {error}", file=sys.stderr)
        return 3
    except WarpcodeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
