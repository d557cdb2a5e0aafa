"""CLI contract: exit codes, config parsing, determinism, file outputs."""

import argparse
import dataclasses
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdgl.cli as cli
from cdgl import diffcore as dc
from cdgl import dynamic_fc as dfc
from cdgl import model
from cdgl import train_eval as tv
from cdgl.data_io import (
    DatasetManifest,
    ManifestEntry,
    RoiTimeSeries,
    load_roi_csv,
    save_manifest,
    write_roi_csv,
)
from cdgl.errors import ConfigError


def run(argv):
    try:
        return cli.main(argv)
    except SystemExit as err:  # argparse-level exits
        return err.code


TINY = ["--set", "epochs=2", "--set", "window_size=10", "--set", "stride=10",
        "--set", "hidden_dim=4", "--set", "proj_dim=4", "--set", "batch_size=4"]


def sets(items):
    return [arg for item in items for arg in ("--set", item)]


def read_series(out, sid):
    with open(os.path.join(out, f"attn_{sid}.json"), encoding="utf-8") as f:
        return json.load(f)


def write_dataset(out, lengths, m=6, seed=0):
    """One subject per entry of ``lengths`` (time points), labels alternating."""
    rng = np.random.default_rng(seed)
    os.makedirs(out)
    entries = []
    for i, t in enumerate(lengths):
        sid = f"s{i:02d}"
        write_roi_csv(os.path.join(out, f"{sid}.csv"), rng.standard_normal((t, m)))
        entries.append(ManifestEntry(sid, f"{sid}.csv", i % 2))
    save_manifest(os.path.join(out, "manifest.json"),
                  DatasetManifest(entries=entries, roi_count=m))
    return out


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "corr")
    code = run(["synth", "--kind", "correlation", "--subjects", "8", "--rois", "6",
                "--timepoints", "40", "--seed", "3", "--out", out])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def bad_second(dataset, tmp_path_factory):
    """The dataset, with a non-numeric last line in sub001.csv."""
    out = str(tmp_path_factory.mktemp("data") / "bad")
    shutil.copytree(dataset, out)
    with open(os.path.join(out, "sub001.csv"), "a", encoding="utf-8") as f:
        f.write("1.0,oops,2.0,3.0,4.0,5.0\n")
    return out


@pytest.fixture(scope="module")
def demo120(tmp_path_factory):
    """The README demo's 120 time points, at 8 subjects of 6 ROIs."""
    out = str(tmp_path_factory.mktemp("data") / "t120")
    assert run(["synth", "--kind", "correlation", "--subjects", "8", "--rois", "6",
                "--timepoints", "120", "--seed", "3", "--out", out]) == 0
    return out


def copy_with_overflowing_roi(dataset, tmp_path):
    """A copy of ``dataset`` whose sub003 has ROI 2 scaled by 1e160: finite
    values whose squares overflow."""
    data = tmp_path / "big"
    data.mkdir()
    for name in os.listdir(dataset):
        (data / name).write_bytes(open(os.path.join(dataset, name), "rb").read())
    ts = load_roi_csv(str(data / "sub003.csv"), "sub003", 1)
    signals = ts.signals.copy()
    signals[:, 2] *= 1e160
    write_roi_csv(str(data / "sub003.csv"), signals)
    return data


class TestConfigParsing:
    def test_values_and_comments(self):
        text = """
        # a comment
        epochs = 12
        lr = 0.5e-3
        distance_kind = "manhattan"  # inline comment
        normalize_fc = false
        streams = rd
        """
        values = cli.parse_config_text(text)
        assert values == {"epochs": 12, "lr": 5e-4, "distance_kind": "manhattan",
                          "normalize_fc": False, "streams": "rd"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.parse_config_text("learning_rate = 0.1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            cli.parse_config_text("epochs = 1\nepochs = 2")

    def test_unterminated_string(self):
        with pytest.raises(ConfigError, match="unterminated"):
            cli.parse_config_text('distance_kind = "manhattan')

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            cli.parse_config_text("epochs 5")

    def test_type_coercion_errors(self):
        with pytest.raises(ConfigError, match="epochs must be a positive integer"):
            cli.resolve_config(None, ["epochs=2.5"])

    def test_set_overrides_file(self, tmp_path):
        cfg_path = str(tmp_path / "c.toml")
        with open(cfg_path, "w") as f:
            f.write("epochs = 7\nlr = 1e-3\n")
        cfg, _ = cli.resolve_config(cfg_path, ["epochs=9"])
        assert cfg.epochs == 9 and cfg.lr == 1e-3

    def test_paths_from_config(self, tmp_path):
        cfg_path = str(tmp_path / "c.toml")
        with open(cfg_path, "w") as f:
            f.write('data = "datadir"\nout = "outdir"\n')
        _, paths = cli.resolve_config(cfg_path, [])
        assert paths == {"data": "datadir", "out": "outdir"}

    def test_missing_config_file(self):
        with pytest.raises(ConfigError, match="not found"):
            cli.resolve_config("nope.toml", [])


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        for name in ("synth", "train", "cv", "gradcheck", "fc-dump", "attn-export"):
            assert run([name, "--help"]) == 0
            out = capsys.readouterr().out
            assert "--" in out

    def test_odd_subjects_exit_2(self, tmp_path):
        code = run(["synth", "--kind", "amplitude", "--subjects", "61",
                    "--out", str(tmp_path / "x")])
        assert code == 2

    def test_missing_config_exit_2(self, dataset, tmp_path):
        code = run(["train", "--config", "missing.toml", "--data", dataset,
                    "--out", str(tmp_path / "r")])
        assert code == 2

    def test_unknown_set_key_exit_2(self, dataset, tmp_path):
        code = run(["train", "--data", dataset, "--out", str(tmp_path / "r"),
                    "--set", "bogus=1"])
        assert code == 2

    def test_missing_data_dir_exit_3(self, tmp_path):
        code = run(["train", "--data", str(tmp_path / "nodata"),
                    "--out", str(tmp_path / "r")] + TINY)
        assert code == 3

    def test_window_too_large_exit_3(self, dataset, tmp_path):
        code = run(["train", "--data", dataset, "--out", str(tmp_path / "r"),
                    "--set", "window_size=100", "--set", "epochs=1"])
        assert code == 3

    def test_non_finite_adjacency_exit_3(self, dataset, tmp_path, monkeypatch, capsys):
        prepare = tv.prepare_dataset

        def planted(*args, **kwargs):
            preps = prepare(*args, **kwargs)
            for prep in preps:
                prep.adjacency["d"] = prep.adjacency["d"].astype(np.float64)  # bool holds no NaN
                prep.adjacency["d"][3, 0, 1] = np.nan  # TINY windows: 4 per subject
            return preps

        monkeypatch.setattr(tv, "prepare_dataset", planted)
        code = run(["train", "--data", dataset, "--out", str(tmp_path / "r")] + TINY)
        assert code == 3
        err = capsys.readouterr().err
        assert "subject '" in err and "stream 'd', layer 0, window 3" in err
        assert err.endswith(" (model 0, epoch 0, step 0, before any parameter update)\n")

    def test_diverging_training_names_the_epoch_and_the_step(self, dataset, tmp_path, capsys):
        """The data trains at the default lr, so the step that fails at a huge
        one is named, and the message says Adam has moved the parameters."""
        code = run(["train", "--data", dataset, "--out", str(tmp_path / "r")] + TINY
                   + ["--set", "lr=1e300", "--set", "epochs=3"])
        assert code == 3
        assert re.fullmatch(r"error: subject '[^']+': .* \(model 0, epoch \d+, step \d+, "
                            r"parameters already updated\)\n", capsys.readouterr().err)

    @pytest.mark.parametrize("overrides", [
        ["lr=nan"], ["alpha=nan"], ["weight_decay=inf"],
        ["distance_kind=mahalanobis", "ridge_scale=nan"],
        ["distance_kind=mahalanobis", "ridge_scale=inf"]])
    def test_non_finite_config_float_exit_2(self, dataset, tmp_path, capsys, overrides):
        sets = [arg for item in overrides for arg in ("--set", item)]
        code = run(["train", "--data", dataset, "--out", str(tmp_path / "r")] + TINY + sets)
        assert code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["train", "cv", "gradcheck", "fc-dump"])
    def test_window_size_below_two_exit_2(self, dataset, tmp_path, capsys, command):
        paths = [] if command == "gradcheck" else ["--data", dataset,
                                                   "--out", str(tmp_path / "r")]
        assert run([command, "--set", "window_size=1"] + paths) == 2
        assert "window_size must be >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", ["fast", "true"])
    def test_non_number_config_float_exit_2(self, dataset, tmp_path, capsys, value):
        code = run(["train", "--data", dataset, "--out", str(tmp_path / "r"),
                    "--set", f"lr={value}"] + TINY)
        assert code == 2
        assert "lr must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "cv", "gradcheck"])
    def test_negative_seed_exit_2(self, dataset, tmp_path, capsys, command):
        paths = [] if command == "gradcheck" else ["--data", dataset,
                                                   "--out", str(tmp_path / "r")]
        assert run([command, "--set", "seed=-1"] + paths) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_negative_synth_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run(["synth", "--kind", "correlation", "--subjects", "4",
                    "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_synth_noise_exit_2(self, tmp_path, noise):
        out = tmp_path / "x"
        assert run(["synth", "--kind", "correlation", "--subjects", "4",
                    "--noise", noise, "--out", str(out)]) == 2
        assert not out.exists()

    def test_manifest_not_an_object_exit_3(self, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text("5")
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "r")] + TINY) == 3
        assert "manifest.json: manifest must be a JSON object" in capsys.readouterr().err

    def test_csv_not_utf8_exit_3(self, dataset, tmp_path, capsys):
        data = tmp_path / "latin1"
        shutil.copytree(dataset, data)
        csv_path = data / "sub000.csv"
        csv_path.write_bytes(b"r\xe9gion" + csv_path.read_bytes())  # Latin-1 e-acute
        assert run(["train", "--data", str(data), "--out", str(tmp_path / "r")] + TINY) == 3
        assert "sub000.csv: not UTF-8 text" in capsys.readouterr().err

    def test_preparation_overflow_names_subject_stream_window(self, dataset, tmp_path,
                                                              capsys):
        data = copy_with_overflowing_roi(dataset, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning may escape
            code = run(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                        "--set", "normalize_fc=false"] + TINY)
        assert code == 3
        assert ("error: subject 'sub003': stream 'd', window 0: non-finite euclidean distance"
                in capsys.readouterr().err)

    def test_overflowing_roi_names_subject_and_roi(self, dataset, tmp_path, capsys):
        data = copy_with_overflowing_roi(dataset, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["train", "--data", str(data), "--out", str(tmp_path / "r"),
                        "--set", "normalize_fc=true"] + TINY)
            assert code == 3
            assert ("error: subject 'sub003': ROI 2: non-finite standard deviation"
                    in capsys.readouterr().err)
            code = run(["fc-dump", "--data", str(data), "--subject", "sub003",
                        "--set", "window_size=10", "--set", "stride=10",
                        "--out", str(tmp_path / "fc")])
            assert code == 3
            assert "ROI 2: non-finite standard deviation" in capsys.readouterr().err

    def test_no_data_anywhere_exit_2(self, tmp_path):
        code = run(["train", "--out", str(tmp_path / "r")] + TINY)
        assert code == 2

    def test_attn_export_requires_checkpoint_flag(self, dataset, tmp_path):
        code = run(["attn-export", "--data", dataset, "--out", str(tmp_path / "a")])
        assert code == 2  # argparse: missing required --checkpoint

    def test_attn_export_missing_checkpoint_file(self, dataset, tmp_path):
        code = run(["attn-export", "--checkpoint", str(tmp_path / "no.ckpt"),
                    "--data", dataset, "--out", str(tmp_path / "a")])
        assert code == 2

    def test_attn_export_truncated_checkpoint_exit_3(self, dataset, tmp_path):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(dc.CHECKPOINT_MAGIC
                         + struct.pack("<II", dc.CHECKPOINT_SCHEMA_VERSION, 40)
                         + b'{"dims": {')  # cut inside the header
        code = run(["attn-export", "--checkpoint", str(ckpt), "--data", dataset,
                    "--out", str(tmp_path / "a")])
        assert code == 3

    # shape words whose element product wraps in numpy
    @pytest.mark.parametrize("shape", [(2 ** 32 - 1, 2 ** 32 - 1), (2 ** 32 - 1, 2 ** 31)])
    def test_attn_export_oversized_shape_exit_3(self, dataset, tmp_path, shape):
        ckpt = tmp_path / "big.ckpt"
        ckpt.write_bytes(dc.CHECKPOINT_MAGIC
                         + struct.pack("<II", dc.CHECKPOINT_SCHEMA_VERSION, 2) + b"{}"
                         + struct.pack("<IH", 1, 1) + b"w"
                         + struct.pack("<B2I", 2, *shape) + b"\x00" * 16)
        code = run(["attn-export", "--checkpoint", str(ckpt), "--data", dataset,
                    "--out", str(tmp_path / "a")])
        assert code == 3

    def test_attn_export_non_finite_checkpoint_exit_3(self, dataset, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        header, values = dc.load_params(os.path.join(run_dir, "checkpoint.ckpt"))
        ckpt = str(tmp_path / "planted.ckpt")
        for bad in (np.nan, np.inf, -np.inf):
            store = dc.ParamStore(values)
            store["classifier.b2"].data[0] = bad
            dc.save_params(ckpt, store, header)
            capsys.readouterr()
            code = run(["attn-export", "--checkpoint", ckpt, "--data", dataset,
                        "--out", str(tmp_path / "a")])
            assert code == 3
            err = capsys.readouterr().err
            # the checkpoint is blamed, not the first subject's forward pass
            assert "planted.ckpt: non-finite value in 'classifier.b2'" in err, err
            assert "subject" not in err

    @pytest.mark.parametrize("flags", [["--set", "epochs=2"], ["--config", "c.toml"]])
    def test_attn_export_config_flags_exit_2(self, dataset, tmp_path, flags):
        # the checkpoint's header is the only config attn-export reads
        code = run(["attn-export", "--checkpoint", str(tmp_path / "m.ckpt"), "--data", dataset,
                    "--out", str(tmp_path / "a")] + flags)
        assert code == 2  # argparse: unrecognized arguments

    def test_attn_export_schema_1_checkpoint_exit_3(self, dataset, tmp_path, capsys):
        ckpt = tmp_path / "old.ckpt"
        ckpt.write_bytes(dc.CHECKPOINT_MAGIC + struct.pack("<IIH", 1, 1, 1) + b"w"
                         + struct.pack("<B", 0) + b"\x00" * 8)
        code = run(["attn-export", "--checkpoint", str(ckpt), "--data", dataset,
                    "--out", str(tmp_path / "a")])
        assert code == 3
        err = capsys.readouterr().err
        assert "old.ckpt: checkpoint schema 1" in err and "retrain" in err

    def test_attn_export_header_config_error_exit_3(self, dataset, tmp_path, capsys):
        # a value TrainConfig rejects is a usage error on the command line
        # (exit 2), but in a checkpoint it is bad data
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        header, values = dc.load_params(os.path.join(run_dir, "checkpoint.ckpt"))
        header["train_config"]["epochs"] = 0
        ckpt = str(tmp_path / "edited.ckpt")
        dc.save_params(ckpt, dc.ParamStore(values), header)
        capsys.readouterr()
        code = run(["attn-export", "--checkpoint", ckpt, "--data", dataset,
                    "--out", str(tmp_path / "a")])
        assert code == 3
        err = capsys.readouterr().err
        assert "edited.ckpt: invalid checkpoint header" in err and "epochs" in err

    def test_attn_export_roi_count_mismatch_exit_3(self, dataset, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        data = write_dataset(str(tmp_path / "four"), [40, 40], m=4)
        capsys.readouterr()
        code = run(["attn-export", "--checkpoint", os.path.join(run_dir, "checkpoint.ckpt"),
                    "--data", data, "--out", str(tmp_path / "a")])
        assert code == 3
        assert ("checkpoint.ckpt: the model was trained on 6 ROIs, the data have 4"
                in capsys.readouterr().err)

    def test_unknown_subject_exit_2(self, dataset, tmp_path):
        code = run(["fc-dump", "--data", dataset, "--subject", "ghost",
                    "--set", "window_size=10", "--set", "stride=10",
                    "--out", str(tmp_path / "fc")])
        assert code == 2

    @pytest.mark.parametrize("command", ["fc-dump", "attn-export", "train", "cv"])
    def test_empty_dataset_exit_2(self, dataset, tmp_path, capsys, command):
        empty = write_dataset(str(tmp_path / "empty"), [])
        if command == "attn-export":
            run_dir = str(tmp_path / "run")
            assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
            argv = [command, "--checkpoint", os.path.join(run_dir, "checkpoint.ckpt")]
        else:
            argv = [command] + (TINY if command in ("train", "cv") else [])
        capsys.readouterr()
        assert run(argv + ["--data", empty, "--out", str(tmp_path / "out")]) == 2
        manifest = os.path.join(empty, "manifest.json")
        assert capsys.readouterr().err == f"error: dataset is empty: {manifest}\n"


def subcommands():
    parser = cli.build_parser()
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestOneResolver:
    """Graph and model settings reach every command through resolve_config alone."""

    @pytest.mark.parametrize("command", ["train", "cv", "gradcheck", "fc-dump"])
    def test_config_commands_take_config_and_set(self, command):
        dests = {a.dest for a in subcommands()[command]._actions}
        assert {"config", "set"} <= dests

    def test_no_option_shadows_a_config_key(self):
        # synth's --seed seeds the generated data set, not a model
        fields = {f.name for f in dataclasses.fields(tv.TrainConfig)}
        shadowing = {name: sorted(fields & {a.dest for a in p._actions})
                     for name, p in subcommands().items() if name != "synth"}
        assert shadowing == {name: [] for name in shadowing}


class TestSynthCommand:
    def test_rerun_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["synth", "--kind", "switching", "--subjects", "4", "--rois", "6",
                "--timepoints", "24", "--seed", "5"]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        for name in sorted(os.listdir(a)):
            assert open(f"{a}/{name}", "rb").read() == open(f"{b}/{name}", "rb").read()


class TestTrainCommand:
    def test_outputs_and_determinism(self, dataset, tmp_path):
        r1, r2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        base = ["train", "--data", dataset] + TINY
        assert run(base + ["--out", r1]) == 0
        assert run(base + ["--out", r2]) == 0
        for name in ("checkpoint.ckpt", "epochs.jsonl", "config.resolved.json"):
            b1 = open(os.path.join(r1, name), "rb").read()
            b2 = open(os.path.join(r2, name), "rb").read()
            assert b1 == b2, name
        records = [json.loads(line)
                   for line in open(os.path.join(r1, "epochs.jsonl"))]
        assert [r["epoch"] for r in records] == [0, 1]
        assert all({"epoch", "mean_loss", "bce", "info_loss", "grad_norm",
                    "param_norm", "gin_eps"} == set(r) for r in records)
        eps = records[-1]["gin_eps"]
        assert set(eps) == {"r", "d"} and len(eps["r"]) == len(eps["d"]) >= 1
        assert all(isinstance(v, float) for vs in eps.values() for v in vs)

    def test_resolved_config_contents(self, dataset, tmp_path):
        out = str(tmp_path / "r")
        assert run(["train", "--data", dataset, "--out", out] + TINY) == 0
        payload = json.load(open(os.path.join(out, "config.resolved.json")))
        assert payload["train_config"]["epochs"] == 2
        assert payload["dims"]["m"] == 6
        assert payload["dims"]["streams"] == ["r", "d"]


class TestCvCommand:
    def test_report_shape_and_determinism(self, dataset, tmp_path):
        r1, r2 = str(tmp_path / "c1"), str(tmp_path / "c2")
        base = ["cv", "--data", dataset, "--folds", "2"] + TINY
        assert run(base + ["--out", r1]) == 0
        assert run(base + ["--out", r2]) == 0
        report = json.load(open(os.path.join(r1, "report.json")))
        assert len(report["per_fold"]) == 2
        assert "auc_mean" in report["summary"]
        for name in sorted(os.listdir(r1)):
            b1 = open(os.path.join(r1, name), "rb").read()
            b2 = open(os.path.join(r2, name), "rb").read()
            assert b1 == b2, name

    def test_resolved_config_matches_train(self, dataset, tmp_path):
        c, t = str(tmp_path / "c"), str(tmp_path / "t")
        assert run(["cv", "--data", dataset, "--folds", "2", "--out", c] + TINY) == 0
        assert run(["train", "--data", dataset, "--out", t] + TINY) == 0
        resolved = open(os.path.join(c, "config.resolved.json"), "rb").read()
        assert resolved == open(os.path.join(t, "config.resolved.json"), "rb").read()
        assert json.loads(resolved)["train_config"]["epochs"] == 2

    def test_parallel_jobs_match_sequential(self, dataset, tmp_path):
        seq, par = str(tmp_path / "seq"), str(tmp_path / "par")
        base = ["cv", "--data", dataset, "--folds", "2"] + TINY
        assert run(base + ["--out", seq]) == 0
        assert run(base + ["--out", par, "--jobs", "2"]) == 0
        for name in sorted(os.listdir(seq)):
            b1 = open(os.path.join(seq, name), "rb").read()
            b2 = open(os.path.join(par, name), "rb").read()
            assert b1 == b2, name

    def test_four_folds_in_two_jobs_match_sequential(self, tmp_path_factory, tmp_path):
        # two lockstep groups, one per worker process: folds 0-1 and folds
        # 2-3, or with --holdout folds 0-2 and fold 3 with the holdout model
        data = str(tmp_path_factory.mktemp("data12") / "corr")
        assert run(["synth", "--kind", "correlation", "--subjects", "12", "--rois", "6",
                    "--timepoints", "40", "--seed", "4", "--out", data]) == 0
        for tag, holdout in (("plain", []), ("holdout", ["--holdout"])):
            seq, par = str(tmp_path / f"seq_{tag}"), str(tmp_path / f"par_{tag}")
            base = ["cv", "--data", data, "--folds", "4"] + holdout + TINY
            assert run(base + ["--out", seq]) == 0
            assert run(base + ["--out", par, "--jobs", "2"]) == 0
            names = sorted(os.listdir(seq))
            assert "fold3.ckpt" in names and names == sorted(os.listdir(par))
            assert ("holdout.ckpt" in names) == bool(holdout)
            for name in names:
                b1 = open(os.path.join(seq, name), "rb").read()
                b2 = open(os.path.join(par, name), "rb").read()
                assert b1 == b2, name

    def test_fold_headers_hold_their_own_dims(self, tmp_path):
        # one short CV subject: the fold that validates it trains on longer
        # subjects only, so its n_windows_ref differs from the other fold's
        cfg, _ = cli.resolve_config(None, TINY[1::2])
        ids = [RoiTimeSeries(f"s{i:02d}", np.zeros((1, 2)), i % 2) for i in range(10)]
        short = tv.split_subjects(ids, 0.2, 2, cfg.seed).train_ids[0]
        data = write_dataset(str(tmp_path / "data"),
                             [20 if f"s{i:02d}" == short else 40 for i in range(10)])
        out = str(tmp_path / "cv")
        assert run(["cv", "--data", data, "--folds", "2", "--holdout", "--out", out]
                   + TINY) == 0
        by_id = {ts.subject_id: ts for ts in cli._load_subjects(data)}
        plan = tv.split_subjects(list(by_id.values()), 0.2, 2, cfg.seed)

        def dims_of(ids):
            return tv.make_dims(tv.prepare_dataset([by_id[i] for i in ids], cfg), cfg)

        want = [dims_of(train) for train, _ in plan.folds]
        assert want[0] != want[1]
        for i, dims in enumerate(want):
            assert tv.load_model(os.path.join(out, f"fold{i}.ckpt"))[1:] == (dims, cfg)
        assert tv.load_model(os.path.join(out, "holdout.ckpt"))[1:] == \
            (dims_of(plan.train_ids), cfg)

    def test_jobs_below_one_exit_2(self, dataset, tmp_path, capsys):
        assert run(["cv", "--data", dataset, "--folds", "2", "--jobs", "0",
                    "--out", str(tmp_path / "j")] + TINY) == 2
        assert "error: jobs must be >= 1, got 0" in capsys.readouterr().err

    def test_folds_below_two_exit_2(self, dataset, tmp_path, capsys):
        assert run(["cv", "--data", dataset, "--folds", "1",
                    "--out", str(tmp_path / "f")] + TINY) == 2
        assert "error: k must be >= 2, got 1" in capsys.readouterr().err

    def test_holdout_section(self, dataset, tmp_path):
        out = str(tmp_path / "h")
        assert run(["cv", "--data", dataset, "--folds", "2", "--holdout",
                    "--out", out] + TINY) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert "holdout" in report
        assert set(report["holdout"]) == {"auc", "acc", "se", "sp",
                                          "tp", "tn", "fp", "fn"}
        assert os.path.exists(os.path.join(out, "holdout.ckpt"))

    def test_empty_test_split_under_holdout_exit_3_before_training(self, tmp_path, capsys):
        # 2 subjects per class: round(2 x 0.2) = 0 test subjects in each
        data = str(tmp_path / "four")
        assert run(["synth", "--kind", "correlation", "--subjects", "4", "--rois", "6",
                    "--timepoints", "40", "--seed", "3", "--out", data]) == 0
        out = str(tmp_path / "cv")
        assert run(["cv", "--data", data, "--folds", "2", "--holdout", "--out", out]
                   + TINY) == 3
        err = capsys.readouterr().err
        assert "error: the test split is empty: test_fraction=0.2" in err
        assert not [name for name in os.listdir(out) if name.endswith(".ckpt")]
        assert run(["cv", "--data", data, "--folds", "2", "--out", out] + TINY) == 0

    def test_blas_thread_count_changes_no_output_byte(self, tmp_path):
        # 30 ROIs at the default widths, so that the larger products (the
        # LSTM's input projection over 3 lockstep rows) are big enough for
        # a BLAS to split across threads
        data = str(tmp_path / "data")
        assert run(["synth", "--kind", "correlation", "--subjects", "8", "--rois", "30",
                    "--timepoints", "120", "--seed", "3", "--out", data]) == 0
        cdgl_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        outs = []
        for threads in ("1", "2"):
            out = str(tmp_path / f"threads{threads}")
            env = {**os.environ, "PYTHONPATH": cdgl_root,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            done = subprocess.run(
                [sys.executable, "-m", "cdgl", "cv", "--data", data, "--folds", "2",
                 "--holdout", "--out", out, "--set", "epochs=2"],
                capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0, done.stderr
            outs.append(out)
        names = sorted(os.listdir(outs[0]))
        assert "holdout.ckpt" in names and names == sorted(os.listdir(outs[1]))
        for name in names:
            b1 = open(os.path.join(outs[0], name), "rb").read()
            b2 = open(os.path.join(outs[1], name), "rb").read()
            assert b1 == b2, name


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert run(["gradcheck", "--set", "seed=1", "--coords", "40"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out and "PASS" in out

    def test_fails_at_absurd_tolerance(self):
        assert run(["gradcheck", "--set", "seed=1", "--coords", "8",
                    "--tolerance", "1e-18"]) == 4

    @pytest.mark.parametrize("flags, message", [
        (["--coords", "0"], "--coords must be >= 1, got 0"),
        (["--coords", "-5"], "--coords must be >= 1, got -5"),
        (["--tolerance", "nan"], "--tolerance must be a finite positive number, got nan"),
        (["--tolerance", "inf"], "--tolerance must be a finite positive number, got inf"),
        (["--tolerance", "0"], "--tolerance must be a finite positive number, got 0.0"),
        (["--tolerance", "-0.5"], "--tolerance must be a finite positive number, got -0.5"),
    ])
    def test_meaningless_inputs_exit_2(self, capsys, flags, message):
        assert run(["gradcheck"] + flags) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "gradcheck:" not in captured.out

    def test_seed_comes_from_the_config(self, capsys):
        # the line that the removed --seed 1 flag printed
        assert run(["gradcheck", "--set", "seed=1", "--coords", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "gradcheck: 54 coordinates over 54 tensors, max relative error 2.487e-06 "
            "at cdgin.layer0.d.readout.w_k[48]")
        assert run(["gradcheck", "--seed", "1"]) == 2  # one seed setting: the config's

    def test_set_overrides_gradcheck_defaults(self):
        # the TrainConfig default window of 35 leaves one window at T=40 (exit 3)
        assert run(["gradcheck", "--set", "hidden_dim=4", "--coords", "8"]) == 0

    def test_unknown_set_key_exit_2(self):
        assert run(["gradcheck", "--set", "nope=1"]) == 2

    def test_config_file_honoured(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.toml"
        cfg_path.write_text("layers = 1\n")
        assert run(["gradcheck", "--coords", "8", "--config", str(cfg_path)]) == 0
        from_file = capsys.readouterr().out
        assert run(["gradcheck", "--coords", "8", "--set", "layers=1"]) == 0
        from_set = capsys.readouterr().out
        assert from_file == from_set
        assert "over 33 tensors" in from_file  # 54 at the default two layers


class TestFcDump:
    def test_two_roi_single_edge(self, tmp_path):
        rng = np.random.default_rng(0)
        data_dir = str(tmp_path / "two")
        os.makedirs(data_dir)
        write_roi_csv(os.path.join(data_dir, "s0.csv"),
                      rng.standard_normal((30, 2)))
        manifest = DatasetManifest(entries=[ManifestEntry("s0", "s0.csv", 0)],
                                   roi_count=2)
        save_manifest(os.path.join(data_dir, "manifest.json"), manifest)
        out = str(tmp_path / "fc")
        assert run(["fc-dump", "--data", data_dir, "--set", "window_size=10",
                    "--set", "stride=10", "--out", out]) == 0
        for name in sorted(os.listdir(out)):
            if "_a_" in name:
                rows = [line.split(",") for line in
                        open(os.path.join(out, name)).read().splitlines()]
                a = np.array(rows, dtype=float)
                assert a[0, 1] == 1.0 and a[1, 0] == 1.0
                assert a[0, 0] == 0.0 and a[1, 1] == 0.0

    def test_dumped_text_is_pinned(self, tmp_path):
        # two ROIs, one window: full-precision repr cells, no header, "\n" rows
        data_dir = str(tmp_path / "two")
        os.makedirs(data_dir)
        t = np.arange(10.0)
        write_roi_csv(os.path.join(data_dir, "s0.csv"), np.stack([t, t * t], axis=1))
        save_manifest(os.path.join(data_dir, "manifest.json"),
                      DatasetManifest(entries=[ManifestEntry("s0", "s0.csv", 0)], roi_count=2))
        out = str(tmp_path / "fc")
        assert run(["fc-dump", "--data", data_dir, "--set", "window_size=10",
                    "--set", "stride=10", "--set", "normalize_fc=false", "--out", out]) == 0
        assert sorted(os.listdir(out)) == [f"s0_w000_{tag}.csv" for tag in ("a_d", "a_r", "d", "r")]

        def text(tag):
            return open(os.path.join(out, f"s0_w000_{tag}.csv"), newline="").read()

        assert text("a_r") == text("a_d") == "0.0,1.0\n1.0,0.0\n"
        assert text("r") == "1.0,0.9626907371412559\n0.9626907371412559,1.0\n"
        assert text("d") == "0.0,-107.55463727799001\n-107.55463727799001,0.0\n"

    def test_matrix_round_trip(self, dataset, tmp_path):
        out = str(tmp_path / "fc")
        assert run(["fc-dump", "--data", dataset, "--set", "window_size=10",
                    "--set", "stride=10", "--out", out]) == 0
        names = sorted(os.listdir(out))
        plain_r = [n for n in names if n.endswith("_r.csv") and "_a_r" not in n]
        assert plain_r
        first = plain_r[0]
        rows = [line.split(",") for line in
                open(os.path.join(out, first)).read().splitlines()]
        r = np.array(rows, dtype=float)
        assert r.shape == (6, 6)
        np.testing.assert_allclose(np.diag(r), 1.0, atol=1e-12)
        np.testing.assert_allclose(r, r.T, atol=1e-15)

    def test_graph_settings_and_paths_come_from_the_config(self, dataset, tmp_path):
        # every graph setting, ridge_scale included, and the data and out
        # paths, as train and cv read them
        out = tmp_path / "fc"
        cfg_path = tmp_path / "c.toml"
        cfg_path.write_text(f'data = "{dataset}"\nout = "{out}"\nwindow_size = 12\n'
                            "stride = 9\ndistance_kind = mahalanobis\nridge_scale = 0.5\n"
                            "normalize_fc = false\n")
        assert run(["fc-dump", "--config", str(cfg_path), "--subject", "sub002"]) == 0
        ts = cli._load_subjects(dataset, "sub002")[0]
        fc = dfc.build_fc_pairs(ts.signals, dfc.WindowSpec(12, 9),
                                dfc.DistanceKind("mahalanobis", 0.5))
        assert len(os.listdir(out)) == 4 * len(fc.starts) == 4 * 4
        for t in range(len(fc.starts)):
            for tag in ("r", "d", "a_r", "a_d"):
                got = np.loadtxt(out / f"sub002_w{t:03d}_{tag}.csv", delimiter=",")
                np.testing.assert_array_equal(got, getattr(fc, tag)[t])

    def test_only_the_dumped_subject_is_parsed(self, bad_second, tmp_path):
        base = ["fc-dump", "--data", bad_second, "--set", "window_size=10",
                "--set", "stride=10"]
        assert run(base + ["--out", str(tmp_path / "first")]) == 0  # sub000, the first
        assert run(base + ["--subject", "sub002", "--out", str(tmp_path / "named")]) == 0
        assert run(base + ["--subject", "sub001", "--out", str(tmp_path / "bad")]) == 3


class TestAttnExport:
    def test_csv_and_json_outputs(self, dataset, tmp_path):
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        out = str(tmp_path / "attn")
        ckpt = os.path.join(run_dir, "checkpoint.ckpt")
        assert run(["attn-export", "--checkpoint", ckpt, "--data", dataset,
                    "--subject", "sub000", "--out", out]) == 0
        csv_path = os.path.join(out, "attn_sub000_layer0.csv")
        lines = open(csv_path).read().splitlines()
        header = lines[0].split(",")
        assert header == ["window_index", "start_timepoint", "temporal_factor",
                          "mean_channel_factor_r_block",
                          "mean_channel_factor_d_block"]
        assert len(lines) == 1 + 4  # four windows at T=40, WS=SS=10
        for line in lines[1:]:
            factors = [float(v) for v in line.split(",")[2:]]
            assert all(0.0 < v < 1.0 for v in factors)
        series = json.load(open(os.path.join(out, "attn_sub000.json")))
        assert series["subject"] == "sub000"
        assert len(series["layers"]) == 2
        assert len(series["layers"][0]["temporal_factor"]) == 4

    def test_export_all_subjects(self, dataset, tmp_path):
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        out = str(tmp_path / "attn_all")
        ckpt = os.path.join(run_dir, "checkpoint.ckpt")
        assert run(["attn-export", "--checkpoint", ckpt, "--data", dataset,
                    "--out", out]) == 0
        json_files = [n for n in os.listdir(out) if n.endswith(".json")]
        assert len(json_files) == 8

    def test_builds_no_graph(self, dataset, tmp_path, monkeypatch):
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        built = []
        make = dc._make
        monkeypatch.setattr(dc, "_make", lambda *args: built.append(make(*args)) or built[-1])
        assert run(["attn-export", "--checkpoint", os.path.join(run_dir, "checkpoint.ckpt"),
                    "--data", dataset, "--out", str(tmp_path / "attn")]) == 0
        assert len(built) > 100
        assert not any(t.requires_grad or t._parents or t._backward for t in built)

    # Each model reads its own config from the checkpoint. The expected
    # factors come from the model as the flags would rebuild it: the graphs
    # of the training config and the dims of the training data.
    @pytest.mark.parametrize("trained", [["window_size=20", "stride=20"], ["streams=r"],
                                         ["distance_kind=mahalanobis"]])
    def test_config_comes_from_the_checkpoint(self, demo120, tmp_path, trained):
        run_dir, out = str(tmp_path / "run"), str(tmp_path / "attn")
        items = trained + ["epochs=1"]
        assert run(["train", "--data", demo120, "--out", run_dir] + sets(items)) == 0
        ckpt = os.path.join(run_dir, "checkpoint.ckpt")
        assert run(["attn-export", "--checkpoint", ckpt, "--data", demo120, "--out", out]) == 0
        cfg, _ = cli.resolve_config(None, items)
        preps = tv.prepare_dataset(cli._load_subjects(demo120), cfg)
        dims = tv.make_dims(preps, cfg)
        store = model.init_params(dims, 0)
        dc.load_into(store, ckpt)
        for prep in preps:
            fwd = model.forward_subject(store, dims, prep)
            series = read_series(out, prep.subject_id)
            for layer, got in enumerate(series["layers"]):
                assert got["temporal_factor"] == fwd.temporal_factors[layer].data.tolist()
                assert got["start_timepoint"] == list(prep.starts)

    def test_subjects_with_fewer_windows_than_trained(self, tmp_path):
        # trained on 6 windows per subject; scored on 3 and on 1
        train_data = write_dataset(str(tmp_path / "long"), [60] * 4)
        new_data = write_dataset(str(tmp_path / "short"), [30, 10], seed=1)
        run_dir, out = str(tmp_path / "run"), str(tmp_path / "attn")
        assert run(["train", "--data", train_data, "--out", run_dir] + TINY) == 0
        ckpt = os.path.join(run_dir, "checkpoint.ckpt")
        assert tv.load_model(ckpt)[1].n_windows_ref == 6
        assert run(["attn-export", "--checkpoint", ckpt, "--data", new_data,
                    "--out", out]) == 0
        for sid, n_w in (("s00", 3), ("s01", 1)):
            series = read_series(out, sid)
            for layer in series["layers"]:
                assert len(layer["temporal_factor"]) == n_w
                assert all(0.0 < v < 1.0 for v in layer["temporal_factor"])

    def test_subject_chosen_before_preparing(self, tmp_path):
        # s01 is shorter than one window: preparing it fails, so only a
        # --subject that leaves it out can succeed
        data = write_dataset(str(tmp_path / "data"), [40, 5, 40])
        run_dir = str(tmp_path / "run")
        train_data = write_dataset(str(tmp_path / "train"), [40] * 4)
        assert run(["train", "--data", train_data, "--out", run_dir] + TINY) == 0
        ckpt = os.path.join(run_dir, "checkpoint.ckpt")
        out = str(tmp_path / "attn")
        assert run(["attn-export", "--checkpoint", ckpt, "--data", data, "--out", out]) == 3
        assert run(["attn-export", "--checkpoint", ckpt, "--data", data, "--subject", "s02",
                    "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["attn_s02.json", "attn_s02_layer0.csv",
                                           "attn_s02_layer1.csv"]

    def test_only_the_named_subject_is_parsed(self, dataset, bad_second, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        base = ["attn-export", "--checkpoint", os.path.join(run_dir, "checkpoint.ckpt"),
                "--data", bad_second, "--out", str(tmp_path / "attn")]
        assert run(base + ["--subject", "sub000"]) == 0
        assert sorted(os.listdir(tmp_path / "attn")) == [
            "attn_sub000.json", "attn_sub000_layer0.csv", "attn_sub000_layer1.csv"]
        capsys.readouterr()
        assert run(base) == 3
        assert "sub001.csv:42: non-numeric cell" in capsys.readouterr().err
        assert run(base + ["--subject", "ghost"]) == 2
        assert "error: subject 'ghost' not in dataset (ids: sub000, sub001" \
            in capsys.readouterr().err


@settings(max_examples=40, deadline=None, derandomize=True)
@given(streams=st.sampled_from(["r", "d", "rd"]),
       distance_kind=st.sampled_from(dfc.DISTANCE_KINDS),
       alpha=st.sampled_from([0.0, 0.1]), layers=st.integers(1, 3),
       lengths=st.lists(st.integers(10, 40), min_size=2, max_size=5))
def test_train_then_export_without_flags(tmp_path_factory, streams, distance_kind, alpha,
                                         layers, lengths):
    """Any README-valid config trains on mixed-length subjects, and the
    checkpoint alone exports factors in (0, 1) for every subject."""
    if alpha > 0:  # the contrastive term needs delta + 1 = 2 windows
        lengths = [max(t, 15) for t in lengths]
    root = tmp_path_factory.mktemp("prop")
    data = write_dataset(str(root / "data"), lengths, m=4)
    items = [f"streams={streams}", f"distance_kind={distance_kind}", f"alpha={alpha}",
             f"layers={layers}", "window_size=10", "stride=5", "hidden_dim=4",
             "proj_dim=4", "epochs=1"]
    assert run(["train", "--data", data, "--out", str(root / "run")] + sets(items)) == 0
    out = str(root / "attn")
    assert run(["attn-export", "--checkpoint", str(root / "run" / "checkpoint.ckpt"),
                "--data", data, "--out", out]) == 0
    for i, t in enumerate(lengths):
        series = read_series(out, f"s{i:02d}")
        assert len(series["layers"]) == layers
        for layer in series["layers"]:
            assert len(layer["temporal_factor"]) == (t - 10) // 5 + 1
            factors = layer["temporal_factor"] + list(layer["mean_channel_factor"].values())
            assert all(0.0 < v < 1.0 for v in factors)
