"""CLI smoke tests: exit codes, artifact creation, config plumbing."""

import numpy as np
import pytest

from warpcode.cli import main
from warpcode.storage import load_matrix, read_csv


def test_oracle_subcommand(tmp_path, capsys):
    code = main(
        [
            "oracle",
            "--out",
            str(tmp_path / "o"),
            "--seed",
            "3",
            "--set",
            "dim=8",
            "--set",
            "n_trials=20",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy 1.0000" in out
    assert (tmp_path / "o" / "oracle.csv").exists()


def test_unknown_option_exits_2(tmp_path):
    code = main(["oracle", "--out", str(tmp_path), "--set", "bogus=1"])
    assert code == 2


TINY_FIG2 = ["--set", "n_pairs=20", "--set", "width=9", "--set", "height=9"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("fig4", ["--set", "train_sizes=100"]),
        ("fig2", ["--set", "width=abc"]),
        ("oracle", ["--set", "dim=abc"]),
        ("fig2", TINY_FIG2 + ["--set", "n_factors=7"]),
        ("fig2", TINY_FIG2 + ["--set", "batch_size=-1"]),
        ("fig2", ["--set", "learning_rate=nan"]),
        ("fig2", ["--set", "epochs=0"]),
        ("fig2", ["--set", "width=9.0"]),
        ("fig2", ["--set", "width=true"]),
        ("fig2", ["--set", "family=3"]),
        ("fig2", ["--set", "seed=abc"]),
        ("fig4", ["--set", "train_sizes=100,x"]),
    ],
)
def test_malformed_value_exits_2_with_one_line(tmp_path, capsys, command, options):
    code = main([command, "--out", str(tmp_path / "o")] + options)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


def test_locked_directory_exits_2(tmp_path):
    (tmp_path / "o").mkdir()
    (tmp_path / "o" / ".lock").touch()
    code = main(
        ["oracle", "--out", str(tmp_path / "o"), "--set", "dim=8", "--set", "n_trials=5"]
    )
    assert code == 2


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "cfg"
    config.write_text("dim=8\nn_trials=64\n")
    code = main(
        [
            "oracle",
            "--out",
            str(tmp_path / "o"),
            "--config",
            str(config),
            "--set",
            "n_trials=16",
        ]
    )
    assert code == 0
    _, rows = read_csv(tmp_path / "o" / "oracle.csv")
    assert rows[0][1] == "16"  # trials column reflects the flag override


def test_gen_train_analyze_classify_chain(tmp_path):
    data_dir = tmp_path / "data"
    assert (
        main(
            [
                "gen",
                "pairs",
                "--out",
                str(data_dir),
                "--seed",
                "1",
                "--set",
                "n_pairs=120",
                "--set",
                "width=16",
                "--set",
                "height=16",
                "--set",
                "family=rotation",
            ]
        )
        == 0
    )
    assert load_matrix(data_dir / "xs.wmat").shape == (120, 256)

    run_dir = tmp_path / "run"
    assert (
        main(
            [
                "train",
                "--data",
                str(data_dir),
                "--out",
                str(run_dir),
                "--seed",
                "2",
                "--set",
                "n_factors=8",
                "--set",
                "n_mappings=4",
                "--set",
                "epochs=2",
                "--set",
                "batch_size=30",
            ]
        )
        == 0
    )
    assert (run_dir / "checkpoint" / "input_filters.wmat").exists()

    analysis_dir = tmp_path / "analysis"
    assert (
        main(
            [
                "analyze",
                "--model",
                str(run_dir / "checkpoint"),
                "--out",
                str(analysis_dir),
                "--set",
                "width=16",
                "--set",
                "height=16",
            ]
        )
        == 0
    )
    assert (analysis_dir / "quadrature.csv").exists()
    assert (analysis_dir / "filters_input.pgm").exists()

    classify_dir = tmp_path / "classify"
    assert (
        main(
            [
                "classify",
                "--model",
                str(run_dir / "checkpoint"),
                "--out",
                str(classify_dir),
                "--seed",
                "3",
                "--set",
                "per_class=12",
            ]
        )
        == 0
    )
    header, rows = read_csv(classify_dir / "classify.csv")
    assert header == ["method", "accuracy"]
    assert len(rows) == 3


def test_gen_videos_and_glyphs(tmp_path):
    assert (
        main(
            [
                "gen",
                "videos",
                "--out",
                str(tmp_path / "v"),
                "--set",
                "n_clips=10",
                "--set",
                "n_frames=3",
                "--set",
                "width=9",
                "--set",
                "height=9",
            ]
        )
        == 0
    )
    assert load_matrix(tmp_path / "v" / "clips.wmat").shape == (10, 3 * 81)
    assert (
        main(
            [
                "gen",
                "glyphs",
                "--out",
                str(tmp_path / "g"),
                "--set",
                "per_class=5",
            ]
        )
        == 0
    )
    assert load_matrix(tmp_path / "g" / "images.wmat").shape == (50, 256)


def test_fig2_reports_nontrivial_quadrature_fraction(tmp_path, capsys):
    settings = [
        "width=9",
        "height=9",
        "n_pairs=150",
        "n_factors=8",
        "n_mappings=4",
        "epochs=3",
        "batch_size=25",
    ]
    args = ["fig2", "--out", str(tmp_path / "f2"), "--seed", "5"]
    for setting in settings:
        args += ["--set", setting]
    assert main(args) == 0
    assert "top-half non-trivial fraction" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "f2" / "quadrature.csv")
    assert header[-1] == "nontrivial"
    assert {row[-1] for row in rows} <= {"0", "1"}
