"""Experiment pipelines: quadrature pairs, eigenmovies, invariant features,
and the analytic shift-detection oracle.

Every runner is a pure function of its configuration (seed included): it
generates data, trains or builds the relevant machinery, writes CSV/PGM
artifacts plus a manifest with checksums into the output directory, and
returns a report object.  A lockfile serializes runs per directory.
"""

import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .analysis import (
    MIN_CONSISTENCY_FRAMES,
    QUADRATURE_CSV_HEADER,
    QuadratureReport,
    eigenmovie_consistency,
    export_filter_grid,
    pair_rotation_invariance_score,
    score_filter_bank_pairs,
)
from .classifiers import fit_logistic_regression, fit_pca, knn_accuracy
from .dataset import (
    GLYPH_MIN_SIDE,
    GLYPH_STROKES,
    PAIR_FAMILIES,
    check_warp_families,
    dot_image_dim,
    gen_dot_pairs,
    gen_rotated_glyphs,
    gen_videos,
    glyph_split,
)
from .detector import ANGLE_MATCH_TOL, DEFAULT_APERTURE_FLOOR, DetectorBank
# batch_pooled_responses is unused here but stays bound: perfbench/tracer.py rebinds it
from .detector import batch_pooled_responses, build_bank_from_warp_family
from .errors import (
    ConfigError, DataError, DimensionError, DivergenceError, LockError, ModelConfigError,
)
from .model import (
    NONLINEARITIES,
    POOLINGS,
    GatedModel,
    TrainConfig,
    band_pairs,
    check_even_factors,
    image_codes,
    pooled_products,
    standardizing_gain,
    train,
)
# contrast_normalize is unused here but stays bound: perfbench/tracer.py rebinds it
from .patches import contrast_normalize, normalize_rows
from .storage import write_csv
from .warp_algebra import MIN_SHIFT_DIM, decompose, make_cyclic_shift, shift_stack, wrap_angle


# ---------------------------------------------------------------------------
# configuration


FIG2_DEFAULTS = {
    "family": "rotation",
    "width": 13,
    "height": 13,
    "density": 0.05,
    "n_pairs": 40000,
    "n_factors": 40,
    "n_mappings": 12,
    "epochs": 30,
    "batch_size": 10,
    "learning_rate": 1.0,
    "momentum": 0.9,
    "pair_decorrelation": 1.0,
}

FIG3_DEFAULTS = {
    "variant": "shift",
    "width": 13,
    "height": 13,
    "density": 0.1,
    "n_clips": 4000,
    "n_frames": 6,
    "n_factors": 64,
    "n_mappings": 16,
    "epochs": 30,
    "batch_size": 10,
    "learning_rate": 0.5,
    "momentum": 0.9,
}

# fig3's variants: the gen_videos schedule of n frames
FIG3_SCHEDULES = {
    "shift": lambda n: [("cyclic_shift", (1, n))],
    "rotate_then_shift": lambda n: [("rotation", (1, n // 2)), ("cyclic_shift", (n // 2 + 1, n))],
}

FIG4_DEFAULTS = {
    "width": 16,
    "height": 16,
    "density": 0.05,
    "n_pairs": 30000,
    "n_factors": 64,
    "n_mappings": 16,
    "epochs": 30,
    "batch_size": 10,
    "learning_rate": 1.0,
    "momentum": 0.9,
    "pair_decorrelation": 1.0,
    "glyphs_per_class": 250,
    "train_sizes": (100, 300, 1000),
    "pca_components": 200,
    "knn_k": 1,
}

ORACLE_DEFAULTS = {
    "dim": 16,
    "n_trials": 1000,
    "snr": 0.0,  # 0 disables noise
    "aperture_floor": DEFAULT_APERTURE_FLOOR,
}

GEN_PAIRS_DEFAULTS = dict(
    family="rotation", width=13, height=13, density=0.1, n_pairs=1000
)

GEN_VIDEOS_DEFAULTS = dict(width=13, height=13, density=0.1, n_clips=500, n_frames=6)

GEN_GLYPHS_DEFAULTS = dict(width=16, height=16, per_class=100)

# fig2's options that do not describe its data, plus the model's pooling and
# gate nonlinearity
TRAIN_DEFAULTS = dict(
    {k: v for k, v in FIG2_DEFAULTS.items() if k not in GEN_PAIRS_DEFAULTS},
    pooling="band",
    nonlinearity="sigmoid",
)

# 0 stands for the checkpoint's or bank's geometry: width floor(sqrt(dim)),
# height dim // width; a value set must still be at least 1.
ANALYZE_DEFAULTS = dict(width=0, height=0)

CLASSIFY_DEFAULTS = dict(width=16, height=16, per_class=150)

EXPERIMENT_DEFAULTS = {
    "fig2": FIG2_DEFAULTS,
    "fig3": FIG3_DEFAULTS,
    "fig4": FIG4_DEFAULTS,
    "oracle": ORACLE_DEFAULTS,
    "gen pairs": GEN_PAIRS_DEFAULTS,
    "gen videos": GEN_VIDEOS_DEFAULTS,
    "gen glyphs": GEN_GLYPHS_DEFAULTS,
    "train": TRAIN_DEFAULTS,
    "analyze": ANALYZE_DEFAULTS,
    "classify": CLASSIFY_DEFAULTS,
}


# The names each string option takes, from the table that reads them
OPTION_CHOICES = dict(
    family=PAIR_FAMILIES, variant=FIG3_SCHEDULES, pooling=POOLINGS, nonlinearity=NONLINEARITIES
)


def _coerce(text: str):
    text = text.strip()
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    if "," in text:  # a list; "100," is the list of one
        return tuple(_coerce(part) for part in text.rstrip(",").split(","))
    return text


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


# Integer options whose least value is not 1, from the modules that need
# them: fig3's consistency fit (``eigenmovie_consistency``), the oracle's
# cyclic shift (``make_cyclic_shift``) and the glyph rasterizer
# (``gen_rotated_glyphs``).
INTEGER_MINIMUMS = {
    (experiment, side): GLYPH_MIN_SIDE
    for experiment in ("fig4", "gen glyphs", "classify")
    for side in ("width", "height")
} | {("fig3", "n_frames"): MIN_CONSISTENCY_FRAMES, ("oracle", "dim"): MIN_SHIFT_DIM}


def _option_error(key, default, value, least=1) -> Optional[str]:
    """What ``value`` must be to set option ``key``, or None if it fits.

    Options take the type of their default; a bool is not an int, an int
    may stand for a float and a tuple is one of ints.  Integers are at
    least ``least`` (``seed`` at least 0), floats finite and at least 0,
    ``density`` lies in (0, 1) and a string is a name in ``OPTION_CHOICES``.
    """
    if isinstance(default, int):
        least = 0 if key == "seed" else least
        ok = _is_int(value) and value >= least
        return None if ok else f"an integer >= {least}"
    if isinstance(default, float):
        real = isinstance(value, Real) and not isinstance(value, bool)
        if key == "density":
            ok = real and 0 < value < 1
            return None if ok else "a number between 0 and 1, exclusive"
        ok = real and math.isfinite(value) and value >= 0
        return None if ok else "a finite number >= 0"
    if isinstance(default, tuple):
        ok = isinstance(value, tuple) and all(_is_int(v) and v >= 1 for v in value)
        return None if ok else "a comma-separated list of integers >= 1"
    choices = OPTION_CHOICES[key]
    ok = isinstance(value, str) and value in choices
    return None if ok else f"one of {', '.join(choices)}"


def read_option(text: str, where: str):
    """One ``key=value`` option as ``(key, value)``, the value typed by
    ``_coerce``; ConfigError naming ``where`` (``file:line`` or ``--set``)
    without an ``=``."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    key, _, raw = text.partition("=")
    return key.strip(), _coerce(raw)


def parse_config_file(path) -> Dict[str, object]:
    """Flat key=value configuration file; '#' starts a comment line."""
    return dict(
        read_option(line, f"{path}:{line_no}")
        for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    )


def _warp_families(experiment, params):
    """The warp families that move a dot-drawing run's images."""
    if experiment == "fig4":
        return ("rotation",)
    if "family" in params:
        return PAIR_FAMILIES[params["family"]]
    # fig3 by its variant; gen videos draws fig3's shift schedule
    schedule = FIG3_SCHEDULES[params.get("variant", "shift")](params["n_frames"])
    return [family for family, _ in schedule]


@dataclass
class ExperimentConfig:
    experiment: str
    out_dir: Path
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def build(cls, experiment, out_dir, seed=0, config_file=None, overrides=None):
        """Options of a pipeline or subcommand (a key of
        ``EXPERIMENT_DEFAULTS``): its defaults, replaced by ``seed``, then by
        ``config_file``, then by ``overrides``.  Every value set must pass
        ``_option_error``, with the bounds of ``INTEGER_MINIMUMS``; an integer
        set for a list option is a list of one.  Every other rule is the check
        of the code that runs it, called here so that a refused run draws, reads
        and makes nothing: the even ``n_factors`` of band pooling and of a
        positive ``pair_decorrelation`` (``model.check_even_factors``), the warp
        families and dot images of runs with a ``density``
        (``dataset.check_warp_families``, ``dataset.dot_image_dim``), the
        training stages of runs with a ``momentum`` (``training_stages``) and
        fig4's train sizes against ``dataset.glyph_split``."""
        if experiment not in EXPERIMENT_DEFAULTS:
            raise ConfigError(f"unknown experiment {experiment!r}")
        params = dict(EXPERIMENT_DEFAULTS[experiment])
        merged: Dict[str, object] = {"seed": seed}
        if config_file:
            merged.update(parse_config_file(config_file))
        merged.update(overrides or {})
        for key, value in merged.items():
            default = 0 if key == "seed" else params.get(key)
            if default is None:
                raise ConfigError(
                    f"unknown option {key!r} for {experiment} "
                    f"(known: {sorted(params)})"
                )
            if isinstance(default, tuple) and _is_int(value):
                value = (value,)
            least = INTEGER_MINIMUMS.get((experiment, key), 1)
            expected = _option_error(key, default, value, least)
            if expected:
                raise ConfigError(f"option {key} must be {expected}, got {value!r}")
            params[key] = value
        try:
            if experiment in ("fig2", "fig4") or params.get("pooling") == "band":
                check_even_factors(params.get("n_factors", 0), "band pooling")
            if params.get("pair_decorrelation"):
                check_even_factors(params.get("n_factors", 0), "pair_decorrelation")
            if "density" in params:
                geometry = (params["width"], params["height"])
                check_warp_families(_warp_families(experiment, params), geometry)
                dot_image_dim(geometry, params["density"])
            if "momentum" in params:
                training_stages(params, params["seed"])
        except (DataError, DimensionError, ModelConfigError) as error:
            raise ConfigError(str(error)) from None
        if experiment == "fig4":
            sizes, k = params["train_sizes"], params["knn_k"]
            n_train = glyph_split(params["glyphs_per_class"])[0]
            if min(sizes) < len(GLYPH_STROKES):
                raise ConfigError(
                    f"train size {min(sizes)} is below {len(GLYPH_STROKES)}, "
                    f"the number of glyph classes"
                )
            if max(sizes) > n_train:
                raise ConfigError(
                    f"train size {max(sizes)} exceeds the {n_train} training glyphs; "
                    f"raise glyphs_per_class or lower train_sizes"
                )
            if k > min(sizes):
                raise ConfigError(f"knn_k {k} exceeds the smallest train size {min(sizes)}")
        return cls(experiment, Path(out_dir), params.pop("seed"), params)


@contextmanager
def output_lock(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    lock_path = out_dir / ".lock"
    try:
        handle = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockError(f"output directory {out_dir} is locked by another run")
    try:
        os.close(handle)
        yield
    finally:
        lock_path.unlink(missing_ok=True)


def write_manifest(cfg: ExperimentConfig, artifacts: List[Path]) -> Path:
    lines = [f"experiment={cfg.experiment}", f"seed={cfg.seed}"]
    for key in sorted(cfg.params):
        lines.append(f"{key}={cfg.params[key]}")
    for path in sorted(artifacts):
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        lines.append(f"sha256:{Path(path).name}={digest}")
    manifest = cfg.out_dir / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


@contextmanager
def _outputs(cfg: ExperimentConfig):
    """A run's hold on ``cfg.out_dir``: the directory is locked, ``out(name)``
    gives the path of artifact ``name`` and records it, and a normal exit
    writes the manifest of every recorded artifact."""
    artifacts = []

    def out(name):
        artifacts.append(cfg.out_dir / name)
        return artifacts[-1]

    with output_lock(cfg.out_dir):
        yield out
        write_manifest(cfg, artifacts)


def write_loss_curve(path, losses):
    """``loss_curve.csv``: one (epoch, loss) row per epoch, from 1."""
    write_csv(path, ["epoch", "loss"], list(enumerate(losses, start=1)))


def training_stages(params, seed) -> List[TrainConfig]:
    """The three annealing stages of ``fit_gated_model``: the epoch budget
    split in about a half, a third and the rest, at 1, 0.3 and 0.05 times
    ``params["learning_rate"]``; ``TrainConfig`` checks each."""
    epochs, rate = params["epochs"], params["learning_rate"]
    first, second = max(1, epochs // 2), max(1, epochs // 3)
    schedule = [(rate, first), (rate * 0.3, second), (rate * 0.05, max(1, epochs - first - second))]
    return [
        TrainConfig(
            learning_rate=stage_rate, epochs=stage_epochs, batch_size=params["batch_size"],
            seed=seed + 10 + index, momentum=params["momentum"], symmetric=True,
            pair_decorrelation=params.get("pair_decorrelation", 0.0),
        )
        for index, (stage_rate, stage_epochs) in enumerate(schedule)
    ]


def fit_gated_model(
    xs, ys, params, seed, pooling="band", nonlinearity="sigmoid", tied=False
):
    """Initialize a gated model for (xs, ys) and train it; the one training
    path of the pipelines and of ``warpcode train``.

    The gate gain is that of inputs standardized to unit mean square per
    dimension (``standardizing_gain``, see ``warpcode.model``), filters are
    seeded from ``seed + 1`` and the symmetric loss is minimized over the
    three stages of ``training_stages``.  Returns ``(model, epoch_losses)``;
    a DivergenceError numbers its epoch across the stages, from 1, as
    ``loss_curve.csv`` does.
    """
    model = GatedModel.initialize(
        xs.shape[1], ys.shape[1], params["n_factors"], params["n_mappings"], pooling=pooling,
        nonlinearity=nonlinearity, tied=tied, seed=seed + 1, gate_gain=standardizing_gain(xs, ys),
    )
    losses = []
    for config in training_stages(params, seed):
        try:
            trace = train(model, (xs, ys), config)
        except DivergenceError as error:
            raise DivergenceError(len(losses) + error.epoch, error.loss) from None
        losses.extend(trace.epoch_losses.tolist())
    return model, losses


# ---------------------------------------------------------------------------
# fig2: quadrature pairs from rotations (and a mixed family)


@dataclass
class Fig2Report:
    quadrature: QuadratureReport
    losses: List[float]
    pair_energy: np.ndarray
    family_tags: Optional[List[str]]
    model: GatedModel

    def top_half(self) -> np.ndarray:
        """Indices of the pairs with the larger half of the pair energies."""
        order = np.argsort(self.pair_energy)[::-1]
        return order[: order.size // 2]

    def top_half_fraction(self, threshold=0.8) -> float:
        top = self.quadrature.fit_r2[self.top_half()]
        return float((top >= threshold).mean())

    def nontrivial_fraction(self, threshold=0.8, margin=0.1) -> float:
        """Share of top-half pairs that fit a rotation away from 0 and pi
        (``QuadratureReport.nontrivial``); reported, not a gate."""
        mask = self.quadrature.nontrivial(threshold, margin)
        return float(mask[self.top_half()].mean())


def pair_energies(model: GatedModel, xs, ys) -> np.ndarray:
    """Mean absolute pooled product response per band pair."""
    pooled = pooled_products(model, xs, ys)
    np.abs(pooled, out=pooled)
    # a contiguous row per pair keeps numpy's pairwise summation order
    return np.ascontiguousarray(pooled.T).mean(axis=1)


def run_fig2(cfg: ExperimentConfig) -> Fig2Report:
    p = cfg.params
    geometry = (p["width"], p["height"])
    with _outputs(cfg) as out:
        data = gen_dot_pairs(
            p["n_pairs"], geometry, family=p["family"], density=p["density"], seed=cfg.seed
        )
        model, losses = fit_gated_model(data.xs, data.ys, p, cfg.seed)
        report = score_filter_bank_pairs(
            model.input_filters, model.output_filters, geometry
        )
        energy = pair_energies(model, data.xs, data.ys)

        write_loss_curve(out("loss_curve.csv"), losses)
        header = QUADRATURE_CSV_HEADER + ["pair_energy", "nontrivial"]
        extra = zip(energy, report.nontrivial().astype(int))
        rows = [row + more for row, more in zip(report.rows(), extra)]
        write_csv(out("quadrature.csv"), header, rows)
        for name, bank in (
            ("filters_input.pgm", model.input_filters),
            ("filters_output.pgm", model.output_filters),
        ):
            export_filter_grid(bank.T, geometry, out(name), n_columns=8)

        family_tags = None
        if p["family"] == "mixed":
            scores = pair_rotation_invariance_score(band_pairs(model.input_filters), geometry)
            family_tags = np.where(scores >= 0.3, "rotation", "translation").tolist()
            rows = zip(range(scores.size), scores, family_tags)
            write_csv(out("family_tags.csv"), ["pair_index", "rotation_score", "tag"], rows)
    return Fig2Report(report, losses, energy, family_tags, model)


# ---------------------------------------------------------------------------
# fig3: eigenmovies from a tied model on frame sequences


@dataclass
class Fig3Report:
    factor_energy: np.ndarray
    theta_hat: np.ndarray
    consistency_r2: np.ndarray
    segment_energy: Optional[np.ndarray]  # (n_factors, 2) for two-segment runs
    losses: List[float]
    model: GatedModel

    def quartile_medians(self):
        order = np.argsort(self.factor_energy)[::-1]
        quartile = max(1, order.size // 4)
        top = np.median(self.consistency_r2[order[:quartile]])
        bottom = np.median(self.consistency_r2[order[-quartile:]])
        return float(top), float(bottom)

    def quiet_fraction(self, ratio=3.0) -> float:
        if self.segment_energy is None:
            raise ConfigError("segment statistics need a two-segment run")
        order = np.argsort(self.factor_energy)[::-1]
        top_half = order[: order.size // 2]
        first = self.segment_energy[top_half, 0]
        second = self.segment_energy[top_half, 1]
        ratios = np.maximum(first, second) / np.maximum(np.minimum(first, second), 1e-12)
        return float((ratios >= ratio).mean())


def run_fig3(cfg: ExperimentConfig) -> Fig3Report:
    p = cfg.params
    geometry, n_frames = (p["width"], p["height"]), p["n_frames"]
    schedule = FIG3_SCHEDULES[p["variant"]](n_frames)
    with _outputs(cfg) as out:
        videos = gen_videos(
            p["n_clips"], geometry, n_frames, schedule, density=p["density"], seed=cfg.seed
        )
        rows_data = videos.concatenated()
        model, losses = fit_gated_model(
            rows_data, rows_data, p, cfg.seed, pooling="identity", tied=True
        )

        responses = rows_data @ model.input_filters
        factor_energy = (responses**2).mean(axis=0)
        # factor f's filter sliced per frame is frames[f]
        frames = model.input_filters.T.reshape(model.n_factors, n_frames, -1)
        thetas, fits = eigenmovie_consistency(frames)
        segment_energy = None
        if len(schedule) == 2:
            split = schedule[0][1][1]
            segment_energy = np.array(
                [(np.sum(f[:split] ** 2), np.sum(f[split:] ** 2)) for f in frames]
            )

        write_loss_curve(out("loss_curve.csv"), losses)
        write_csv(
            out("eigenmovie.csv"),
            ["factor_index", "energy", "theta_hat", "consistency_r2"],
            [
                (f, factor_energy[f], thetas[f], fits[f])
                for f in range(model.n_factors)
            ],
        )
        if segment_energy is not None:
            write_csv(
                out("segments.csv"),
                ["factor_index", "energy", "first_energy", "second_energy"],
                [
                    (f, factor_energy[f], segment_energy[f, 0], segment_energy[f, 1])
                    for f in range(model.n_factors)
                ],
            )
        # frame grids for the top factors, one row of frames per factor
        order = np.argsort(factor_energy)[::-1][:8]
        tiles = frames[order].reshape(-1, frames.shape[2])
        export_filter_grid(tiles, geometry, out("eigenmovie_frames.pgm"), n_columns=n_frames)
    return Fig3Report(factor_energy, thetas, fits, segment_energy, losses, model)


# ---------------------------------------------------------------------------
# fig4: invariant classification on rotated glyphs


@dataclass
class Fig4Report:
    accuracies: Dict[str, Dict[int, float]]  # method -> train size -> accuracy
    model: GatedModel


def _balanced_subset(labels, size):
    """Indices of ``size`` glyphs: the first ``size // classes`` of every
    glyph class, topped up in index order with glyphs not yet chosen."""
    per_class = size // len(GLYPH_STROKES)
    chosen = []
    for digit in range(len(GLYPH_STROKES)):
        candidates = np.flatnonzero(labels == digit)
        chosen.extend(candidates[:per_class])
    remaining = size - len(chosen)
    if remaining:
        leftovers = np.setdiff1d(np.arange(labels.size), np.array(chosen))
        chosen.extend(leftovers[:remaining])
    return np.array(sorted(chosen))


def glyph_accuracies(train, test, k=1) -> Dict[str, float]:
    """Test accuracy of logistic regression on pooled codes and of logistic
    regression and k-NN on pixels; ``train`` and ``test`` are
    ``(codes, pixels, labels)`` triples."""
    codes, pixels, labels = train
    test_codes, test_pixels, test_labels = test
    return {
        "pooled_logreg": fit_logistic_regression(codes, labels).accuracy(
            test_codes, test_labels
        ),
        "raw_logreg": fit_logistic_regression(pixels, labels).accuracy(
            test_pixels, test_labels
        ),
        "raw_knn": knn_accuracy(pixels, labels, test_pixels, test_labels, k),
    }


def run_fig4(cfg: ExperimentConfig) -> Fig4Report:
    p = cfg.params
    geometry, sizes, k = (p["width"], p["height"]), p["train_sizes"], p["knn_k"]
    with _outputs(cfg) as out:
        # Each stage drops its inputs once it is done with them, so the dot
        # pairs and the glyph set are never held together; the generators
        # draw from their own seeds, so the order changes no value.
        dots = gen_dot_pairs(
            p["n_pairs"], geometry, family="rotation", density=p["density"], seed=cfg.seed
        )
        model, _ = fit_gated_model(dots.xs, dots.ys, p, cfg.seed)
        del dots
        glyphs = gen_rotated_glyphs(p["glyphs_per_class"], geometry, seed=cfg.seed + 2)
        train_x, train_y = glyphs.subset("train")
        test_x, test_y = glyphs.subset("test")
        del glyphs
        subsets = [_balanced_subset(train_y, size) for size in sizes]

        pooled_train = image_codes(model, train_x)
        test = (image_codes(model, test_x), test_x, test_y)

        accuracies: Dict[str, Dict[int, float]] = {}
        rows = []
        for size, subset in zip(sizes, subsets):
            raw_x, raw_y = train_x[subset], train_y[subset]
            per_size = glyph_accuracies((pooled_train[subset], raw_x, raw_y), test, k)
            pca = fit_pca(raw_x, min(p["pca_components"], size - 1))
            pca_x = pca.transform(raw_x)
            pca_test = pca.transform(test_x)
            per_size["pca_logreg"] = fit_logistic_regression(pca_x, raw_y).accuracy(
                pca_test, test_y
            )
            per_size["pca_knn"] = knn_accuracy(pca_x, raw_y, pca_test, test_y, k)
            for method, accuracy in per_size.items():
                accuracies.setdefault(method, {})[size] = accuracy
                rows.append((size, method, accuracy))
        write_csv(out("accuracy.csv"), ["train_size", "method", "accuracy"], rows)
    return Fig4Report(accuracies, model)


# ---------------------------------------------------------------------------
# analytic detector oracle


@dataclass
class OracleReport:
    accuracy: float
    per_shift_accuracy: np.ndarray
    aperture_breakdown: List[tuple]  # (live_subspace_count, trials, accuracy)
    bank: DetectorBank


def shift_readout_pool(bank: DetectorBank, n_shifts: int) -> np.ndarray:
    """Across-subspace pooling whose output s sums every detector whose
    preferred angle equals shift s's rotation in its block."""
    block_angle = np.array([bank.blocks[b].angle for b in bank.detector_block])
    expected = wrap_angle(np.outer(block_angle, np.arange(n_shifts)))
    offset = wrap_angle(bank.detector_angle[:, None] - expected)
    return (np.abs(offset) <= ANGLE_MATCH_TOL).astype(np.float64)


def build_shift_bank(dim: int) -> DetectorBank:
    decomposition = decompose(make_cyclic_shift(dim, 1))
    grid = wrap_angle(2.0 * np.pi * np.arange(dim) / dim)
    bank = build_bank_from_warp_family([decomposition], grid)
    return bank.with_across_pool(shift_readout_pool(bank, dim))


def run_detector_oracle(cfg: ExperimentConfig) -> OracleReport:
    p = cfg.params
    dim, n_trials, snr, floor = p["dim"], p["n_trials"], p["snr"], p["aperture_floor"]
    with _outputs(cfg) as out:
        bank = build_shift_bank(dim)
        rng = np.random.default_rng(cfg.seed)
        # one (n_trials, dim) draw is the stream of n_trials draws of dim
        draws = rng.standard_normal((n_trials, dim))
        signals = normalize_rows(draws, out=draws)[0]
        # live-subspace count per trial (aperture condition on the input side)
        live_per_trial = np.zeros(n_trials, dtype=np.int64)
        for block in bank.blocks:
            if not block.is_two_dimensional:
                continue
            norms = np.hypot(signals @ block.basis_real, signals @ block.basis_imag)
            live_per_trial += norms >= floor

        noise_rngs = rng.spawn(dim) if snr > 0 else None
        readout = bank.within_pool @ bank.across_pool  # P W, n_factors x n_outputs
        # pooled_products(bank, signals, ys) @ across_pool for every shift, with
        # P W composed once and the x side, which no shift changes, formed once
        fx = signals @ bank.input_filters

        # A flat loop. Besides the per-shift temporaries it holds fx and two
        # buffers every shift reuses, 1.25 MB at dim 32 and 1000 trials; with
        # the two allocated per shift, the median peak RSS was 0.18 MB higher.
        hits = np.empty((dim, n_trials), dtype=bool)
        gated = np.empty_like(fx)
        scores = np.empty((n_trials, readout.shape[1]))
        for s in range(dim):
            ys = shift_stack(signals[:, None], (s, 0)).reshape(signals.shape)
            if snr > 0:
                noise = noise_rngs[s].standard_normal(ys.shape)
                noise *= np.sqrt((ys**2).sum(axis=1, keepdims=True) / (snr * dim))
                noise += ys  # in place: a third (n, dim) array raised the peak RSS
                ys = normalize_rows(noise, out=noise)[0]
            np.matmul(ys, bank.output_filters, out=gated)
            gated *= fx  # bit for bit fx * gated
            np.matmul(gated, readout, out=scores)
            hits[s] = np.argmax(scores, axis=1) == s
        correct = hits.sum(axis=1)
        per_shift = correct / n_trials
        accuracy = float(correct.sum() / (dim * n_trials))
        live, trial_live = np.unique(live_per_trial, return_inverse=True)
        trials = dim * np.bincount(trial_live)
        live_hits = np.bincount(trial_live, weights=hits.sum(axis=0))
        breakdown = [
            (int(count), int(n), float(h / n))
            for count, n, h in zip(live, trials, live_hits)
        ]
        write_csv(
            out("oracle.csv"),
            ["shift", "trials", "accuracy"],
            [(s, n_trials, per_shift[s]) for s in range(dim)],
        )
        write_csv(out("aperture.csv"), ["live_subspaces", "trials", "accuracy"], breakdown)
    return OracleReport(accuracy, per_shift, breakdown, bank)
