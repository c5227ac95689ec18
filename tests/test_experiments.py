"""Pipeline tests: configuration, locking, artifacts, determinism.

Quality gates (quadrature emergence, eigenmovie consistency, accuracy
orderings) live in test_acceptance.py; these tests run tiny configurations
and check wiring.
"""

import importlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from warpcode.detector import batch_pooled_responses
from warpcode.errors import ConfigError, LockError
from warpcode.experiments import (
    ExperimentConfig,
    build_shift_bank,
    output_lock,
    pair_energies,
    parse_config_file,
    run_detector_oracle,
    run_fig2,
    run_fig3,
    run_fig4,
    shift_readout_pool,
)
from warpcode.model import GatedModel
from warpcode.patches import contrast_normalize
from warpcode.warp_algebra import wrap_angle

from readers import read_csv


TINY_FIG2 = {
    "width": 9,
    "height": 9,
    "n_pairs": 150,
    "n_factors": 8,
    "n_mappings": 4,
    "epochs": 3,
    "batch_size": 25,
}


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg = ExperimentConfig.build(
            "fig2", tmp_path, seed=7, overrides={"n_factors": 16}
        )
        assert cfg.params["n_factors"] == 16
        assert cfg.params["family"] == "rotation"
        assert cfg.seed == 7

    def test_config_file_parsed_and_flags_win(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# comment\nn_factors=12\nfamily=mixed\nseed=3\n")
        cfg = ExperimentConfig.build(
            "fig2", tmp_path, config_file=config, overrides={"n_factors": 20}
        )
        assert cfg.params["n_factors"] == 20
        assert cfg.params["family"] == "mixed"
        assert cfg.seed == 3

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown option"):
            ExperimentConfig.build("fig2", tmp_path, overrides={"bogus": 1})

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.build("fig9", tmp_path)

    def test_malformed_config_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a pair\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_file(config)

    def test_int_accepted_for_float_and_kept_as_given(self, tmp_path):
        # the manifest echoes "snr=10", as given
        cfg = ExperimentConfig.build("oracle", tmp_path, overrides={"snr": 10})
        assert cfg.params["snr"] == 10 and isinstance(cfg.params["snr"], int)

    def test_single_train_size_is_a_list_of_one(self, tmp_path):
        cfg = ExperimentConfig.build("fig4", tmp_path, overrides={"train_sizes": 100})
        assert cfg.params["train_sizes"] == (100,)
        config = tmp_path / "run.cfg"
        for line in ("train_sizes=100\n", "train_sizes=100,\n"):
            config.write_text(line)
            cfg = ExperimentConfig.build("fig4", tmp_path, config_file=config)
            assert cfg.params["train_sizes"] == (100,)
        for bad in (0, -3):
            with pytest.raises(ConfigError, match="train_sizes"):
                ExperimentConfig.build("fig4", tmp_path, overrides={"train_sizes": bad})

    def test_shifts_allow_non_square_patches(self, tmp_path):
        shape = {"width": 12, "height": 13}
        for experiment, extra in (
            ("fig2", {"family": "cyclic_shift"}),
            ("gen pairs", {"family": "cyclic_shift"}),
            ("fig3", {"variant": "shift"}),
            ("gen videos", {}),
        ):
            ExperimentConfig.build(experiment, tmp_path, overrides={**shape, **extra})


class TestLock:
    def test_second_locker_rejected(self, tmp_path):
        with output_lock(tmp_path):
            with pytest.raises(LockError):
                with output_lock(tmp_path):
                    pass
        # released afterwards
        with output_lock(tmp_path):
            pass

    def test_lock_removed_after_failure(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with output_lock(tmp_path):
                raise RuntimeError("boom")
        assert not (tmp_path / ".lock").exists()


class TestOracle:
    def test_noiseless_shift_recovery_small(self, tmp_path):
        cfg = ExperimentConfig.build(
            "oracle", tmp_path / "o", seed=3, overrides={"dim": 8, "n_trials": 40}
        )
        report = run_detector_oracle(cfg)
        assert report.accuracy == 1.0
        assert (tmp_path / "o" / "oracle.csv").exists()
        assert (tmp_path / "o" / "aperture.csv").exists()
        assert (tmp_path / "o" / "manifest.txt").exists()

    def test_noisy_recovery_stays_high(self, tmp_path):
        cfg = ExperimentConfig.build(
            "oracle",
            tmp_path / "n",
            seed=3,
            overrides={"dim": 8, "n_trials": 40, "snr": 10.0},
        )
        report = run_detector_oracle(cfg)
        assert report.accuracy >= 0.9

    def test_aperture_breakdown_accounts_for_every_trial(self, tmp_path):
        cfg = ExperimentConfig.build(
            "oracle",
            tmp_path / "a",
            seed=4,
            overrides={"dim": 8, "n_trials": 60, "snr": 2.0, "aperture_floor": 0.3},
        )
        report = run_detector_oracle(cfg)
        counts = [count for count, _, _ in report.aperture_breakdown]
        trials = np.array([n for _, n, _ in report.aperture_breakdown])
        accuracies = np.array([a for _, _, a in report.aperture_breakdown])
        assert len(counts) > 1 and counts == sorted(set(counts))
        assert trials.sum() == 8 * 60
        assert report.accuracy < 1.0  # the noise makes some trials miss
        assert trials @ accuracies / trials.sum() == pytest.approx(
            report.accuracy, abs=1e-12
        )

    def test_shift_readout_pool_marks_matching_angles(self):
        bank = build_shift_bank(8)
        pool = shift_readout_pool(bank, 8)
        # shift 0 detectors are the zero-angle ones
        zero_column = pool[:, 0]
        assert set(np.flatnonzero(zero_column)) == set(
            np.flatnonzero(np.abs(bank.detector_angle) <= 1e-12)
        )
        # every column pools one detector per block that has the angle
        assert pool.sum() > 0

    @pytest.mark.parametrize("dim", range(2, 34))
    def test_shift_readout_pool_equals_scalar_loop(self, dim):
        bank = build_shift_bank(dim)
        expected = np.zeros((bank.n_detectors, dim))
        for det in range(bank.n_detectors):
            block = bank.blocks[bank.detector_block[det]]
            for s in range(dim):
                target = wrap_angle(s * block.angle)
                if abs(wrap_angle(bank.detector_angle[det] - target)) <= 1e-9:
                    expected[det, s] = 1.0
        np.testing.assert_array_equal(shift_readout_pool(bank, dim), expected)

    def test_matches_row_by_row_reference(self, tmp_path):
        dim, snr, n_trials, floor = 8, 5.0, 200, 0.3
        cfg = ExperimentConfig.build(
            "oracle",
            tmp_path / "r",
            seed=6,
            overrides={"dim": dim, "snr": snr, "n_trials": n_trials, "aperture_floor": floor},
        )
        report = run_detector_oracle(cfg)
        per_shift, breakdown = reference_oracle(dim, snr, n_trials, floor, seed=6)
        np.testing.assert_array_equal(report.per_shift_accuracy, per_shift)
        assert report.aperture_breakdown == breakdown

    def test_manifest_lists_checksums(self, tmp_path):
        cfg = ExperimentConfig.build(
            "oracle", tmp_path / "m", seed=1, overrides={"dim": 8, "n_trials": 10}
        )
        run_detector_oracle(cfg)
        manifest = (tmp_path / "m" / "manifest.txt").read_text()
        assert "experiment=oracle" in manifest
        assert "sha256:oracle.csv=" in manifest

    def test_determinism_bitwise(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig.build(
                "oracle",
                tmp_path / name,
                seed=11,
                overrides={"dim": 8, "n_trials": 25},
            )
            run_detector_oracle(cfg)
            outputs.append((tmp_path / name / "oracle.csv").read_bytes())
        assert outputs[0] == outputs[1]


def reference_oracle(dim, snr, n_trials, floor, seed):
    """The oracle's trials as they were: one draw and one
    ``contrast_normalize`` call per signal row and per noisy row."""
    bank = build_shift_bank(dim)
    rng = np.random.default_rng(seed)
    signals = np.stack(
        [contrast_normalize(rng.standard_normal(dim)).values for _ in range(n_trials)]
    )
    live = np.zeros(n_trials, dtype=np.int64)
    for block in bank.blocks:
        if block.is_two_dimensional:
            norms = np.hypot(signals @ block.basis_real, signals @ block.basis_imag)
            live += norms >= floor
    noise_rngs = rng.spawn(dim)
    hits = np.zeros((dim, n_trials), dtype=bool)
    for s in range(dim):
        ys = np.roll(signals, s, axis=1)
        noise = noise_rngs[s].standard_normal(ys.shape)
        noise *= np.sqrt((ys**2).sum(axis=1, keepdims=True) / (snr * dim))
        ys = np.stack([contrast_normalize(row).values for row in ys + noise])
        _, pooled = batch_pooled_responses(bank, signals, ys)
        hits[s] = np.argmax(pooled, axis=1) == s
    breakdown = []
    for count in np.unique(live):
        trials = dim * int((live == count).sum())
        breakdown.append((int(count), trials, float(hits[:, live == count].sum() / trials)))
    return hits.sum(axis=1) / n_trials, breakdown


class TestFig2Smoke:
    def test_artifacts_written(self, tmp_path):
        cfg = ExperimentConfig.build(
            "fig2", tmp_path / "f2", seed=5, overrides=dict(TINY_FIG2)
        )
        report = run_fig2(cfg)
        assert len(report.losses) == 3
        header, rows = read_csv(tmp_path / "f2" / "loss_curve.csv")
        assert header == ["epoch", "loss"] and len(rows) == 3
        header, rows = read_csv(tmp_path / "f2" / "quadrature.csv")
        assert header[:4] == ["pair_index", "theta_hat", "fit_r2", "spectral_overlap"]
        assert len(rows) == TINY_FIG2["n_factors"] // 2
        assert (tmp_path / "f2" / "filters_input.pgm").exists()
        assert (tmp_path / "f2" / "filters_output.pgm").exists()

    def test_zero_learning_rate_is_a_negative_control(self, tmp_path):
        results = []
        for name in ("c1", "c2"):
            overrides = dict(TINY_FIG2)
            overrides["learning_rate"] = 0.0
            cfg = ExperimentConfig.build(
                "fig2", tmp_path / name, seed=5, overrides=overrides
            )
            results.append(run_fig2(cfg))
        np.testing.assert_array_equal(
            results[0].quadrature.fit_r2, results[1].quadrature.fit_r2
        )
        assert np.ptp(results[0].losses) <= 1e-12

    def test_mixed_family_emits_tags(self, tmp_path):
        overrides = dict(TINY_FIG2)
        overrides["family"] = "mixed"
        cfg = ExperimentConfig.build(
            "fig2", tmp_path / "mx", seed=5, overrides=overrides
        )
        report = run_fig2(cfg)
        assert report.family_tags is not None
        header, rows = read_csv(tmp_path / "mx" / "family_tags.csv")
        assert header == ["pair_index", "rotation_score", "tag"]
        assert len(rows) == TINY_FIG2["n_factors"] // 2


    def test_pair_energies_match_per_pair_loop_bit_for_bit(self):
        # quadrature.csv prints these energies, so the batched form must keep
        # the per-pair loop's summation order exactly
        rng = np.random.default_rng(0)
        model = GatedModel.initialize(81, 81, 12, 4, seed=1)
        xs, ys = rng.standard_normal((2, 3001, 81))
        products = (xs @ model.input_filters) * (ys @ model.output_filters)
        loop = [
            np.abs(products[:, 2 * k] + products[:, 2 * k + 1]).mean()
            for k in range(6)
        ]
        np.testing.assert_array_equal(pair_energies(model, xs, ys), loop)


class TestFig3Smoke:
    def test_shift_variant_artifacts(self, tmp_path):
        cfg = ExperimentConfig.build(
            "fig3",
            tmp_path / "f3",
            seed=5,
            overrides={
                "width": 9,
                "height": 9,
                "n_clips": 60,
                "n_frames": 3,
                "n_factors": 8,
                "n_mappings": 4,
                "epochs": 3,
                "batch_size": 20,
            },
        )
        report = run_fig3(cfg)
        assert report.segment_energy is None
        header, rows = read_csv(tmp_path / "f3" / "eigenmovie.csv")
        assert header == ["factor_index", "energy", "theta_hat", "consistency_r2"]
        assert len(rows) == 8
        assert (tmp_path / "f3" / "eigenmovie_frames.pgm").exists()

    def test_two_segment_variant_writes_segments(self, tmp_path):
        cfg = ExperimentConfig.build(
            "fig3",
            tmp_path / "f3b",
            seed=5,
            overrides={
                "variant": "rotate_then_shift",
                "width": 9,
                "height": 9,
                "n_clips": 40,
                "n_frames": 4,
                "n_factors": 8,
                "n_mappings": 4,
                "epochs": 2,
                "batch_size": 20,
            },
        )
        report = run_fig3(cfg)
        assert report.segment_energy.shape == (8, 2)
        assert 0.0 <= report.quiet_fraction() <= 1.0
        header, _ = read_csv(tmp_path / "f3b" / "segments.csv")
        assert header == ["factor_index", "energy", "first_energy", "second_energy"]


class TestFig4Smoke:
    def test_accuracy_table_written(self, tmp_path):
        cfg = ExperimentConfig.build(
            "fig4",
            tmp_path / "f4",
            seed=5,
            overrides={
                "width": 16,
                "height": 16,
                "n_pairs": 120,
                "n_factors": 8,
                "n_mappings": 4,
                "epochs": 2,
                "batch_size": 20,
                "glyphs_per_class": 20,
                "train_sizes": (40,),
                "pca_components": 10,
            },
        )
        report = run_fig4(cfg)
        assert set(report.accuracies) == {
            "pooled_logreg",
            "raw_logreg",
            "raw_knn",
            "pca_logreg",
            "pca_knn",
        }
        header, rows = read_csv(tmp_path / "f4" / "accuracy.csv")
        assert header == ["train_size", "method", "accuracy"]
        assert len(rows) == 5


def test_every_traced_name_resolves(monkeypatch):
    # perfbench's tracer rebinds these names in a traced run and stops at
    # the first one missing; read its list without writing bytecode there
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    tracer = importlib.import_module("tracer")
    for module, attribute, _span in tracer.REBINDINGS:
        assert hasattr(importlib.import_module(module), attribute), (module, attribute)
