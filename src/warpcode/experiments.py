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
    QuadratureReport,
    eigenmovie_consistency,
    export_filter_grid,
    pair_rotation_invariance_score,
    score_filter_bank_pairs,
)
from .classifiers import fit_logistic_regression, fit_pca, knn_accuracy
from .dataset import gen_dot_pairs, gen_rotated_glyphs, gen_videos
from .detector import DetectorBank, batch_pooled_responses, build_bank_from_warp_family
from .errors import ConfigError, LockError
from .model import (
    GatedModel,
    TrainConfig,
    image_codes,
    standardizing_gain,
    train,
)
from .patches import contrast_normalize
from .storage import write_csv
from .warp_algebra import decompose, make_cyclic_shift, wrap_angle


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
    "aperture_floor": 1e-3,
}

EXPERIMENT_DEFAULTS = {
    "fig2": FIG2_DEFAULTS,
    "fig3": FIG3_DEFAULTS,
    "fig4": FIG4_DEFAULTS,
    "oracle": ORACLE_DEFAULTS,
}


def _coerce(text: str):
    lowered = text.strip()
    if lowered.lower() in ("true", "false"):
        return lowered.lower() == "true"
    try:
        return int(lowered)
    except ValueError:
        pass
    try:
        return float(lowered)
    except ValueError:
        pass
    if "," in lowered:
        return tuple(_coerce(part) for part in lowered.split(","))
    return lowered


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _option_type_error(default, value) -> Optional[str]:
    """What ``value`` must be to replace ``default``, or None if it fits.

    Options take the type of their default; a bool is not an int, an int
    may stand for a float, floats must be finite and a tuple is one of ints.
    """
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        return None if _is_int(value) else "an integer"
    if isinstance(default, float):
        ok = isinstance(value, Real) and not isinstance(value, bool)
        return None if ok and math.isfinite(value) else "a finite number"
    if isinstance(default, tuple):
        ok = isinstance(value, tuple) and all(map(_is_int, value))
        return None if ok else "a comma-separated list of integers"
    return None if isinstance(value, str) else "a string"


def parse_config_file(path) -> Dict[str, object]:
    """Flat key=value configuration file; '#' starts a comment line."""
    values: Dict[str, object] = {}
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = _coerce(raw)
    return values


@dataclass
class ExperimentConfig:
    experiment: str
    out_dir: Path
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def build(cls, experiment, out_dir, seed=0, config_file=None, overrides=None):
        if experiment not in EXPERIMENT_DEFAULTS:
            raise ConfigError(f"unknown experiment {experiment!r}")
        params = dict(EXPERIMENT_DEFAULTS[experiment])
        merged: Dict[str, object] = {}
        if config_file:
            merged.update(parse_config_file(config_file))
        if overrides:
            merged.update(overrides)
        for key, value in merged.items():
            default = 0 if key == "seed" else params.get(key)
            if default is None:
                raise ConfigError(
                    f"unknown option {key!r} for experiment {experiment} "
                    f"(known: {sorted(params)})"
                )
            expected = _option_type_error(default, value)
            if expected:
                raise ConfigError(f"option {key} must be {expected}, got {value!r}")
            if key == "seed":
                seed = value
            else:
                params[key] = value
        if params.get("epochs", 1) < 1:
            raise ConfigError("option epochs must be at least 1")
        out_dir = Path(out_dir)
        return cls(experiment, out_dir, int(seed), params)


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


def _staged_learning_rates(base_rate, epochs):
    """Split the epoch budget into a 3-stage annealing schedule."""
    first = max(1, epochs // 2)
    second = max(1, epochs // 3)
    third = max(1, epochs - first - second)
    return [
        (base_rate, first),
        (base_rate * 0.3, second),
        (base_rate * 0.05, third),
    ]


def fit_gated_model(
    xs, ys, params, seed, pooling="band", nonlinearity="sigmoid", tied=False
):
    """Initialize a gated model for (xs, ys) and train it; the one training
    path of the pipelines and of ``warpcode train``.

    The gate gain is that of inputs standardized to unit mean square per
    dimension (``standardizing_gain``, see ``warpcode.model``), filters are
    seeded from ``seed + 1`` and the symmetric loss is minimized over the
    three-stage annealing schedule of ``params["learning_rate"]`` and
    ``params["epochs"]``.  Returns ``(model, epoch_losses)``.
    """
    model = GatedModel.initialize(
        xs.shape[1],
        ys.shape[1],
        int(params["n_factors"]),
        int(params["n_mappings"]),
        pooling=pooling,
        nonlinearity=nonlinearity,
        tied=tied,
        seed=seed + 1,
        gate_gain=standardizing_gain(xs, ys),
    )
    stages = _staged_learning_rates(
        float(params["learning_rate"]), int(params["epochs"])
    )
    losses = []
    for index, (rate, epochs) in enumerate(stages):
        trace = train(
            model,
            (xs, ys),
            TrainConfig(
                learning_rate=rate,
                epochs=epochs,
                batch_size=int(params["batch_size"]),
                seed=seed + 10 + index,
                momentum=float(params["momentum"]),
                symmetric=True,
                pair_decorrelation=float(params.get("pair_decorrelation", 0.0)),
            ),
        )
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
    fx = xs @ model.input_filters
    fy = ys @ model.output_filters
    products = fx * fy
    pairs = model.n_factors // 2
    return np.array(
        [
            np.abs(products[:, 2 * k] + products[:, 2 * k + 1]).mean()
            for k in range(pairs)
        ]
    )


def run_fig2(cfg: ExperimentConfig) -> Fig2Report:
    p = cfg.params
    geometry = (int(p["width"]), int(p["height"]))
    with output_lock(cfg.out_dir):
        data = gen_dot_pairs(
            int(p["n_pairs"]),
            geometry,
            family=str(p["family"]),
            density=float(p["density"]),
            seed=cfg.seed,
        )
        model, losses = fit_gated_model(data.xs, data.ys, p, cfg.seed)
        report = score_filter_bank_pairs(
            model.input_filters, model.output_filters, geometry
        )
        energy = pair_energies(model, data.xs, data.ys)

        artifacts = []
        path = cfg.out_dir / "loss_curve.csv"
        write_csv(path, ["epoch", "loss"], list(enumerate(losses, start=1)))
        artifacts.append(path)
        path = cfg.out_dir / "quadrature.csv"
        nontrivial = report.nontrivial()
        write_csv(
            path,
            [
                "pair_index",
                "theta_hat",
                "fit_r2",
                "spectral_overlap",
                "pair_energy",
                "nontrivial",
            ],
            [
                row + (energy[i], int(nontrivial[i]))
                for i, row in enumerate(report.rows())
            ],
        )
        artifacts.append(path)
        for name, bank in (
            ("filters_input.pgm", model.input_filters),
            ("filters_output.pgm", model.output_filters),
        ):
            path = cfg.out_dir / name
            export_filter_grid(bank.T, geometry, path, n_columns=8)
            artifacts.append(path)

        family_tags = None
        if p["family"] == "mixed":
            family_tags = []
            rows = []
            for k in range(model.n_factors // 2):
                pair = model.input_filters[:, 2 * k : 2 * k + 2]
                score = pair_rotation_invariance_score(pair, geometry)
                tag = "rotation" if score >= 0.3 else "translation"
                family_tags.append(tag)
                rows.append((k, score, tag))
            path = cfg.out_dir / "family_tags.csv"
            write_csv(path, ["pair_index", "rotation_score", "tag"], rows)
            artifacts.append(path)

        write_manifest(cfg, artifacts)
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


def _fig3_schedule(variant, n_frames):
    if variant == "shift":
        return [("cyclic_shift", (1, n_frames))]
    if variant == "rotate_then_shift":
        half = n_frames // 2
        return [("rotation", (1, half)), ("cyclic_shift", (half + 1, n_frames))]
    raise ConfigError(f"unknown fig3 variant {variant!r}")


def run_fig3(cfg: ExperimentConfig) -> Fig3Report:
    p = cfg.params
    geometry = (int(p["width"]), int(p["height"]))
    n_frames = int(p["n_frames"])
    variant = str(p["variant"])
    schedule = _fig3_schedule(variant, n_frames)
    with output_lock(cfg.out_dir):
        videos = gen_videos(
            int(p["n_clips"]),
            geometry,
            n_frames,
            schedule,
            density=float(p["density"]),
            seed=cfg.seed,
        )
        rows_data = videos.concatenated()
        model, losses = fit_gated_model(
            rows_data, rows_data, p, cfg.seed, pooling="identity", tied=True
        )

        responses = rows_data @ model.input_filters
        factor_energy = (responses**2).mean(axis=0)
        frame_dim = rows_data.shape[1] // n_frames
        thetas, fits = [], []
        segments = [] if len(schedule) == 2 else None
        for f in range(model.n_factors):
            frames = model.input_filters[:, f].reshape(n_frames, frame_dim)
            theta, fit = eigenmovie_consistency(frames)
            thetas.append(theta)
            fits.append(fit)
            if segments is not None:
                split = schedule[0][1][1]
                first = float(np.sum(frames[:split] ** 2))
                second = float(np.sum(frames[split:] ** 2))
                segments.append((first, second))
        thetas = np.array(thetas)
        fits = np.array(fits)
        segment_energy = np.array(segments) if segments is not None else None

        artifacts = []
        path = cfg.out_dir / "loss_curve.csv"
        write_csv(path, ["epoch", "loss"], list(enumerate(losses, start=1)))
        artifacts.append(path)
        path = cfg.out_dir / "eigenmovie.csv"
        write_csv(
            path,
            ["factor_index", "energy", "theta_hat", "consistency_r2"],
            [
                (f, factor_energy[f], thetas[f], fits[f])
                for f in range(model.n_factors)
            ],
        )
        artifacts.append(path)
        if segment_energy is not None:
            path = cfg.out_dir / "segments.csv"
            write_csv(
                path,
                ["factor_index", "energy", "first_energy", "second_energy"],
                [
                    (f, factor_energy[f], segment_energy[f, 0], segment_energy[f, 1])
                    for f in range(model.n_factors)
                ],
            )
            artifacts.append(path)
        # frame grids for the top factors, one row of frames per factor
        order = np.argsort(factor_energy)[::-1][:8]
        tiles = np.concatenate(
            [
                model.input_filters[:, f].reshape(n_frames, frame_dim)
                for f in order
            ]
        )
        path = cfg.out_dir / "eigenmovie_frames.pgm"
        export_filter_grid(tiles, geometry, path, n_columns=n_frames)
        artifacts.append(path)
        write_manifest(cfg, artifacts)
    return Fig3Report(factor_energy, thetas, fits, segment_energy, losses, model)


# ---------------------------------------------------------------------------
# fig4: invariant classification on rotated glyphs


@dataclass
class Fig4Report:
    accuracies: Dict[str, Dict[int, float]]  # method -> train size -> accuracy
    model: GatedModel


def _balanced_subset(rng, labels, size):
    per_class = size // 10
    chosen = []
    for digit in range(10):
        candidates = np.flatnonzero(labels == digit)
        chosen.extend(candidates[:per_class])
    remaining = size - 10 * per_class
    if remaining:
        leftovers = np.setdiff1d(np.arange(labels.size), np.array(chosen))
        chosen.extend(leftovers[:remaining])
    chosen = np.array(sorted(chosen))
    return chosen


def run_fig4(cfg: ExperimentConfig) -> Fig4Report:
    p = cfg.params
    geometry = (int(p["width"]), int(p["height"]))
    with output_lock(cfg.out_dir):
        dots = gen_dot_pairs(
            int(p["n_pairs"]),
            geometry,
            family="rotation",
            density=float(p["density"]),
            seed=cfg.seed,
        )
        model, _ = fit_gated_model(dots.xs, dots.ys, p, cfg.seed)

        glyphs = gen_rotated_glyphs(
            int(p["glyphs_per_class"]), geometry, seed=cfg.seed + 2
        )
        train_x, train_y = glyphs.subset("train")
        test_x, test_y = glyphs.subset("test")
        pooled_train = image_codes(model, train_x)
        pooled_test = image_codes(model, test_x)

        rng = np.random.default_rng(cfg.seed + 3)
        sizes = [int(s) for s in p["train_sizes"]]
        k = int(p["knn_k"])
        accuracies: Dict[str, Dict[int, float]] = {}
        rows = []
        for size in sizes:
            subset = _balanced_subset(rng, train_y, size)
            raw_x, raw_y = train_x[subset], train_y[subset]
            pooled_x = pooled_train[subset]
            pca = fit_pca(raw_x, min(int(p["pca_components"]), size - 1))
            pca_x = pca.transform(raw_x)
            pca_test = pca.transform(test_x)
            per_size = {
                "pooled_logreg": fit_logistic_regression(pooled_x, raw_y).accuracy(
                    pooled_test, test_y
                ),
                "raw_logreg": fit_logistic_regression(raw_x, raw_y).accuracy(
                    test_x, test_y
                ),
                "raw_knn": knn_accuracy(raw_x, raw_y, test_x, test_y, k),
                "pca_logreg": fit_logistic_regression(pca_x, raw_y).accuracy(
                    pca_test, test_y
                ),
                "pca_knn": knn_accuracy(pca_x, raw_y, pca_test, test_y, k),
            }
            for method, accuracy in per_size.items():
                accuracies.setdefault(method, {})[size] = accuracy
                rows.append((size, method, accuracy))
        path = cfg.out_dir / "accuracy.csv"
        write_csv(path, ["train_size", "method", "accuracy"], rows)
        write_manifest(cfg, [path])
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
    pool = np.zeros((bank.n_detectors, n_shifts))
    for det in range(bank.n_detectors):
        block = bank.blocks[bank.detector_block[det]]
        for s in range(n_shifts):
            expected = wrap_angle(s * block.angle)
            if abs(wrap_angle(bank.detector_angle[det] - expected)) <= 1e-9:
                pool[det, s] = 1.0
    return pool


def build_shift_bank(dim: int) -> DetectorBank:
    decomposition = decompose(make_cyclic_shift(dim, 1))
    grid = [wrap_angle(2.0 * np.pi * k / dim) for k in range(dim)]
    bank = build_bank_from_warp_family([decomposition], grid)
    return bank.with_across_pool(shift_readout_pool(bank, dim))


def run_detector_oracle(cfg: ExperimentConfig) -> OracleReport:
    p = cfg.params
    dim = int(p["dim"])
    n_trials = int(p["n_trials"])
    snr = float(p["snr"])
    floor = float(p["aperture_floor"])
    with output_lock(cfg.out_dir):
        bank = build_shift_bank(dim)
        rng = np.random.default_rng(cfg.seed)
        signals = np.stack(
            [contrast_normalize(rng.standard_normal(dim)).values for _ in range(n_trials)]
        )
        # live-subspace count per trial (aperture condition on the input side)
        live_per_trial = np.zeros(n_trials, dtype=np.int64)
        for block in bank.blocks:
            if not block.is_two_dimensional:
                continue
            norms = np.hypot(signals @ block.basis_real, signals @ block.basis_imag)
            live_per_trial += norms >= floor

        noise_rngs = rng.spawn(dim) if snr > 0 else None

        # A function, so each shift's large temporaries are freed before the
        # next shift; a flat loop raised the peak RSS by about 8 MB at dim 32.
        def shift_hits(s):
            ys = np.roll(signals, s, axis=1)
            if snr > 0:
                noise = noise_rngs[s].standard_normal(ys.shape)
                noise *= np.sqrt((ys**2).sum(axis=1, keepdims=True) / (snr * dim))
                ys = np.stack([contrast_normalize(row).values for row in ys + noise])
            _, pooled = batch_pooled_responses(bank, signals, ys)
            return np.argmax(pooled, axis=1) == s

        hits = np.stack([shift_hits(s) for s in range(dim)])
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
        artifacts = []
        path = cfg.out_dir / "oracle.csv"
        write_csv(
            path,
            ["shift", "trials", "accuracy"],
            [(s, n_trials, per_shift[s]) for s in range(dim)],
        )
        artifacts.append(path)
        path = cfg.out_dir / "aperture.csv"
        write_csv(path, ["live_subspaces", "trials", "accuracy"], breakdown)
        artifacts.append(path)
        write_manifest(cfg, artifacts)
    return OracleReport(accuracy, per_shift, breakdown, bank)
