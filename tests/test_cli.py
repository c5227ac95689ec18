"""CLI smoke tests: exit codes, artifact creation, config plumbing."""

import hashlib
import json

import numpy as np
import pytest

from warpcode import dataset
from warpcode.cli import main
from warpcode.detector import save_bank
from warpcode.experiments import OPTION_CHOICES, build_shift_bank
from warpcode.model import GatedModel, save_model
from warpcode.storage import load_matrix, save_matrix

from readers import read_csv, write_unchecked_wmat


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


def _refuse_every_draw(monkeypatch):
    """Make drawing a dot image or rasterizing a glyph fail the test."""
    def no_draw(*args):
        raise AssertionError("drew data")

    monkeypatch.setattr(dataset, "_random_dots", no_draw)
    monkeypatch.setattr(dataset, "render_glyph_stack", no_draw)


@pytest.mark.parametrize(
    "command, options",
    [
        ("fig4", ["--set", "train_sizes=0"]),
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
        ("gen pairs", ["--set", "width=abc"]),
        ("gen pairs", ["--set", "n_pairs=-3"]),
        ("gen videos", ["--set", "n_frames=0"]),
        ("oracle", ["--set", "n_trials=0"]),
        ("oracle", ["--set", "dim=0"]),
        ("oracle", ["--set", "snr=-1"]),
        ("fig2", ["--set", "n_pairs=0"]),
        ("fig2", ["--set", "density=1.5"]),
        ("train --data missing", ["--set", "learning_rate=nan"]),
        ("classify --model missing", ["--set", "per_class=0"]),
        ("oracle", ["--seed", "-1"]),
        ("gen glyphs", ["--set", "bogus=1"]),
        ("train --data missing", ["--set", "bogus=1"]),
        ("analyze --model missing", ["--set", "bogus=1"]),
        ("classify --model missing", ["--set", "bogus=1"]),
        ("fig3", ["--set", "n_frames=2"]),
        # rotations beyond pi/4 need square patches
        ("fig2", ["--set", "width=13", "--set", "height=14"]),
        ("gen pairs", ["--set", "family=mixed", "--set", "width=12"] + ["--set", "height=13"]),
        ("fig3", ["--set", "variant=rotate_then_shift"] + ["--set", "width=13", "--set", "height=14"]),
        ("fig4", ["--set", "width=16", "--set", "height=17"]),
        # the glyph rasterizer needs at least 16x16
        ("gen glyphs", ["--set", "width=13"]),
        ("fig4", ["--set", "width=13", "--set", "height=13"]),
        ("classify --model missing", ["--set", "width=13", "--set", "height=13"]),
        # every train size must hold the 10 glyph classes; checked before training
        (
            "fig4",
            ["--set", "n_pairs=20", "--set", "glyphs_per_class=5"]
            + ["--set", "epochs=1", "--set", "train_sizes=1,2"],
        ),
        # k-NN needs knn_k <= the smallest train size; checked before training
        (
            "fig4",
            ["--set", "n_pairs=20", "--set", "glyphs_per_class=5"]
            + ["--set", "train_sizes=10,20", "--set", "knn_k=15"],
        ),
        # a cyclic shift needs at least two pixels
        ("oracle", ["--set", "dim=1"]),
        # band pooling sums factors 2k and 2k+1; checked before any data is read
        ("fig4", ["--set", "n_factors=63"]),
        ("train --data missing", ["--set", "n_factors=7"]),
        # a string option takes the names of the table that reads it
        ("train --data missing", ["--set", "pooling=foo"]),
        ("train --data missing", ["--set", "nonlinearity=relu"]),
        ("fig3", ["--set", "variant=spin"]),
        ("gen pairs", ["--set", "family=spiral"]),
        # TrainConfig takes momentum in [0, 1); the options check builds the
        # training stages
        ("fig2", ["--set", "momentum=1.0"]),
        ("fig3", ["--set", "momentum=1.0"]),
        ("fig4", ["--set", "momentum=1.0"]),
        ("train --data missing", ["--set", "momentum=1.0"]),
    ],
)
def test_malformed_value_exits_2_with_one_line(
    tmp_path, capsys, monkeypatch, command, options
):
    # options are checked before any data is drawn, a data, model or bank
    # directory is read or the output directory is made
    _refuse_every_draw(monkeypatch)
    code = main(command.split() + ["--out", str(tmp_path / "o")] + options)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()
    key, _, value = options[-1].partition("=")
    if key in OPTION_CHOICES and value not in OPTION_CHOICES[key]:  # the line names it
        assert err.startswith(f"configuration error: option {key} must be one of ")
    if key == "momentum":  # TrainConfig's own line, not a missing --data
        assert err == "configuration error: momentum must lie in [0, 1)\n"


@pytest.mark.parametrize("command", ["gen pairs", "gen videos", "fig2", "fig3"])
def test_one_pixel_dot_images_exit_2_before_any_draw(
    tmp_path, capsys, monkeypatch, command
):
    # every draw of one pixel is constant, so redrawing it would never end
    _refuse_every_draw(monkeypatch)
    size = ["--set", "width=1", "--set", "height=1"]
    code = main(command.split() + ["--out", str(tmp_path / "o")] + size)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: dot images need")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["gen pairs", "gen videos", "fig2", "fig3", "fig4"])
def test_improbable_dot_draws_exit_2_before_any_draw(
    tmp_path, capsys, monkeypatch, command
):
    # a 13x13 draw at density 1e-12 holds a dot once in about 6e9 draws
    _refuse_every_draw(monkeypatch)
    options = ["--set", "density=1e-12"]
    code = main(command.split() + ["--out", str(tmp_path / "o")] + options)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: dot images need a density")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["fig2", "fig4", "train --data absent"])
def test_odd_factor_count_under_band_pooling_exits_2_before_any_draw(
    tmp_path, capsys, monkeypatch, command
):
    _refuse_every_draw(monkeypatch)
    options = ["--set", "n_factors=41"]
    code = main(command.split() + ["--out", str(tmp_path / "o")] + options)
    assert code == 2
    err = capsys.readouterr().err
    assert err == "configuration error: band pooling needs an even n_factors, got 41\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_ys", [5, 20])
def test_train_on_unpaired_rows_exits_2_with_one_line(tmp_path, capsys, n_ys):
    rows = np.random.default_rng(7).standard_normal((20, 9))
    (tmp_path / "data").mkdir()
    save_matrix(tmp_path / "data" / "xs.wmat", rows[:10])
    save_matrix(tmp_path / "data" / "ys.wmat", rows[:n_ys])
    args = ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o")]
    assert main(args + ["--set", "epochs=1", "--set", "n_factors=4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"10 x rows but {n_ys} y rows" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o" / "checkpoint").exists()


def test_pair_penalty_on_an_odd_factor_count_exits_2_with_one_line(tmp_path, capsys):
    # fig2's pair_decorrelation=1 pairs factors 2k and 2k+1; identity pooling
    # lets an odd count reach training, which must refuse it before any step
    rows = np.random.default_rng(11).standard_normal((20, 9))
    (tmp_path / "data").mkdir()
    save_matrix(tmp_path / "data" / "xs.wmat", rows[:10])
    save_matrix(tmp_path / "data" / "ys.wmat", rows[10:])
    args = ["train", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "o")]
    options = ["--set", "pooling=identity", "--set", "n_factors=41", "--set", "epochs=1"]
    assert main(args + options) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: pair_decorrelation needs an even")
    assert err.count("\n") == 1
    assert not (tmp_path / "o" / "checkpoint").exists()


def test_pair_penalty_on_an_odd_factor_count_refused_before_the_data_is_read(
    tmp_path, capsys
):
    # the options check refuses it, so a missing data directory is not reached
    args = ["train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "o")]
    assert main(args + ["--set", "pooling=identity", "--set", "n_factors=41"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: pair_decorrelation needs an even n_factors, got 41\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, missing",
    [
        ("train --data", "xs.wmat"),
        ("analyze --model", "model.json"),
        ("classify --model", "model.json"),
    ],
)
def test_missing_input_directory_exits_2_with_one_line(
    tmp_path, capsys, command, missing
):
    absent = tmp_path / "absent"
    code = main(command.split() + [str(absent), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert str(absent / missing) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["classify --model", "fig2 --config"])
def test_input_path_of_the_wrong_kind_exits_2_with_one_line(tmp_path, capsys, command):
    # a file where a checkpoint directory belongs, a directory for a config file
    path = tmp_path / "file.txt" if "--model" in command else tmp_path
    path.touch()
    code = main(command.split() + [str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "source, options",
    [
        ("--model", ["--set", "width=7"]),
        ("--model", ["--set", "width=16", "--set", "height=15"]),
        ("--bank", ["--set", "width=5"]),
    ],
)
def test_analyze_geometry_off_the_dim_exits_2(tmp_path, capsys, source, options):
    if source == "--model":
        save_model(GatedModel.initialize(256, 256, 4, 2, seed=1), tmp_path / "in")
    else:
        save_bank(build_shift_bank(16), tmp_path / "in")
    args = ["analyze", source, str(tmp_path / "in"), "--out", str(tmp_path / "o")]
    assert main(args + options) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("sources", [("--model", "--bank"), ()])
def test_analyze_needs_exactly_one_source(tmp_path, capsys, sources):
    save_model(GatedModel.initialize(16, 16, 4, 2, seed=1), tmp_path / "model")
    save_bank(build_shift_bank(16), tmp_path / "bank")
    args = ["analyze", "--out", str(tmp_path / "o")]
    for flag in sources:
        args += [flag, str(tmp_path / flag.strip("-"))]
    with pytest.raises(SystemExit) as raised:
        main(args)
    assert raised.value.code == 2
    assert "--model" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_analyze_bank_artifacts_keep_their_bytes(tmp_path):
    # one tile per x filter of each detector (its block's rotated basis),
    # and the detector table, for the dim-16 shift bank
    save_bank(build_shift_bank(16), tmp_path / "in")
    args = ["analyze", "--bank", str(tmp_path / "in"), "--out", str(tmp_path / "o")]
    assert main(args) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "o" / name).read_bytes()).hexdigest()
        for name in ("bank_filters.pgm", "detectors.csv")
    }
    assert digests == {
        "bank_filters.pgm": "eed4ae01fd9bee782e7dbacd970dbfe3105719b1cfddd55ba9a70a7fc4cebcd7",
        "detectors.csv": "349be15f23f0f92b74d748f0545d6ae486f8c0e5d9208d1a3719acb5f8f56ee9",
    }


@pytest.mark.parametrize(
    "column, value", [(0, 40.0), (0, -1.0), (0, 0.5), (1, np.nan), (1, 0.3)]
)
def test_analyze_bank_with_a_bad_detector_table_exits_1_with_one_line(
    tmp_path, capsys, column, value
):
    # block index off the table, negative or fractional; a NaN angle; a
    # turn on a 1-D block
    bank = build_shift_bank(16)
    save_bank(bank, tmp_path / "in")
    path = tmp_path / "in" / "detector_table.wmat"
    table = load_matrix(path)
    one_dim = [not bank.blocks[i].is_two_dimensional for i in bank.detector_block]
    table[one_dim.index(True), column] = value
    write_unchecked_wmat(path, table)
    args = ["analyze", "--bank", str(tmp_path / "in"), "--out", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: detector_table.wmat row ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def _set_entry(row, column, value):
    def corrupt(table):
        table[row, column] = value
        return table

    return corrupt


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("across_pool.wmat", _set_entry(3, 0, np.nan)),
        ("block_table.wmat", _set_entry(2, 1, 2.0)),
        ("bases_imag.wmat", _set_entry(slice(None), 1, 0.0)),  # block 1 is 2-D
        ("block_table.wmat", lambda table: np.vstack([table, table[-1:]])),
    ],
    ids=["nan-across-pool", "kind-flag-2", "zero-imaginary-basis", "extra-block-row"],
)
def test_analyze_bank_with_a_bad_file_exits_1_with_one_line(
    tmp_path, capsys, name, corrupt
):
    save_bank(build_shift_bank(16), tmp_path / "in")
    path = tmp_path / "in" / name
    write_unchecked_wmat(path, corrupt(load_matrix(path)))
    args = ["analyze", "--bank", str(tmp_path / "in"), "--out", str(tmp_path / "o")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def _edit_manifest(edit):
    def corrupt(path):
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    return corrupt


def _nan_entry(path):
    matrix = load_matrix(path)
    matrix[5, 2] = np.nan
    write_unchecked_wmat(path, matrix)


@pytest.mark.parametrize("command", ["analyze", "classify"])
@pytest.mark.parametrize(
    "name, corrupt, message",
    [
        ("input_filters.wmat", _nan_entry, "input_filters.wmat row 5: holds a non-finite"),
        ("model.json", lambda path: path.write_text("{"), "does not hold a JSON object"),
        ("model.json", _edit_manifest(lambda m: m.pop("n_mappings")), "lacks n_mappings"),
        ("model.json", _edit_manifest(lambda m: m.update(tied="false")), "tied is 'false'"),
        (
            "model.json",
            _edit_manifest(lambda m: m.update(n_factors=6)),
            "input_filters.wmat has shape (256, 4), model.json gives (256, 6)",
        ),
    ],
    ids=["nan-input-filters", "not-json", "missing-key", "tied-string", "shape-off"],
)
def test_bad_checkpoint_exits_1_with_one_line(
    tmp_path, capsys, command, name, corrupt, message
):
    save_model(GatedModel.initialize(256, 256, 4, 2, seed=1), tmp_path / "in")
    corrupt(tmp_path / "in" / name)
    args = [command, "--model", str(tmp_path / "in"), "--out", str(tmp_path / "o")]
    if command == "classify":
        args += ["--set", "per_class=20"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_classify_geometry_off_the_checkpoint_dim_exits_2(tmp_path, capsys):
    # a 13x13 checkpoint, as `gen pairs` and `train` make at their defaults,
    # against classify's default 16x16 glyphs
    save_model(GatedModel.initialize(169, 169, 4, 2, seed=1), tmp_path / "in")
    args = ["classify", "--model", str(tmp_path / "in"), "--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "169" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_fig4_train_size_beyond_the_glyph_split_exits_2(tmp_path, capsys, monkeypatch):
    # 5 glyphs per class leave 31 training glyphs, fewer than 500; the
    # split is known before any dot or glyph is drawn
    _refuse_every_draw(monkeypatch)
    settings = [
        "n_pairs=20",
        "n_factors=4",
        "n_mappings=2",
        "epochs=1",
        "glyphs_per_class=5",
        "train_sizes=10,500",
    ]
    options = [arg for setting in settings for arg in ("--set", setting)]
    assert main(["fig4", "--out", str(tmp_path / "o")] + options) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "500" in err and "31" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_set_without_an_equals_sign_names_its_source(tmp_path, capsys):
    assert main(["oracle", "--out", str(tmp_path / "o"), "--set", "dim"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: --set: expected key=value, got 'dim'\n"
    )
    assert not (tmp_path / "o").exists()


def test_fig4_runs_a_single_train_size(tmp_path):
    settings = [
        "n_pairs=20",
        "n_factors=4",
        "n_mappings=2",
        "epochs=1",
        "glyphs_per_class=5",
        "train_sizes=20",
    ]
    options = [arg for setting in settings for arg in ("--set", setting)]
    assert main(["fig4", "--out", str(tmp_path / "o")] + options) == 0
    _, rows = read_csv(tmp_path / "o" / "accuracy.csv")
    assert len(rows) == 5 and {row[0] for row in rows} == {"20"}
    assert "train_sizes=(20,)" in (tmp_path / "o" / "manifest.txt").read_text()


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


def test_seed_flag_wins_over_the_config_file(tmp_path):
    # --seed acts as --set seed=N: it replaces the file's seed, and --set
    # replaces it; without it the file's seed stands
    config = tmp_path / "cfg"
    config.write_text("dim=8\nn_trials=5\nseed=5\n")
    args = ["oracle", "--config", str(config)]
    for name, flags, seed in [
        ("file", [], 5),
        ("flag", ["--seed", "7"], 7),
        ("set", ["--seed", "7", "--set", "seed=9"], 9),
    ]:
        assert main(args + flags + ["--out", str(tmp_path / name)]) == 0
        assert f"seed={seed}" in (tmp_path / name / "manifest.txt").read_text().splitlines()


def test_gen_and_train_honour_config_file_and_flags_win(tmp_path):
    config = tmp_path / "cfg"
    config.write_text("n_pairs=5\nwidth=9\nheight=9\n")
    data_dir = tmp_path / "data"
    assert main(["gen", "pairs", "--out", str(data_dir), "--config", str(config)]) == 0
    assert load_matrix(data_dir / "xs.wmat").shape == (5, 81)
    args = ["gen", "pairs", "--out", str(tmp_path / "d7"), "--config", str(config)]
    assert main(args + ["--set", "n_pairs=7"]) == 0
    assert load_matrix(tmp_path / "d7" / "xs.wmat").shape == (7, 81)

    config.write_text("n_factors=6\nn_mappings=3\nepochs=3\nbatch_size=5\n")
    args = ["train", "--data", str(data_dir), "--config", str(config)]
    assert main(args + ["--out", str(tmp_path / "t")]) == 0
    assert load_matrix(tmp_path / "t" / "checkpoint" / "input_filters.wmat").shape == (
        81,
        6,
    )
    assert len(read_csv(tmp_path / "t" / "loss_curve.csv")[1]) == 3
    assert main(args + ["--out", str(tmp_path / "t2"), "--set", "epochs=4"]) == 0
    assert len(read_csv(tmp_path / "t2" / "loss_curve.csv")[1]) == 4


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


@pytest.mark.parametrize("family", ["cyclic_shift", "mixed"])
def test_gen_pairs_labels_have_one_field_per_column(tmp_path, family):
    # a translation's parameter is written "dx dy", without a comma
    args = ["gen", "pairs", "--out", str(tmp_path), "--set", f"family={family}"]
    assert main(args + ["--set", "n_pairs=40"]) == 0
    header, rows = read_csv(tmp_path / "labels.csv")
    assert header == ["family", "parameter"]
    assert len(rows) == 40
    assert all(len(row) == len(header) for row in rows)
    shifts = [row[1].split(" ") for row in rows if row[0] == "cyclic_shift"]
    assert shifts and all(len(shift) == 2 for shift in shifts)
    assert all(value.isdigit() for shift in shifts for value in shift)


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
