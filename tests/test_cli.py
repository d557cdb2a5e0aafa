"""CLI contract: exit codes, config parsing, determinism, file outputs."""

import json
import os
import struct
import warnings

import numpy as np
import pytest

import cdgl.cli as cli
from cdgl import diffcore as dc
from cdgl import model
from cdgl.data_io import (
    DatasetManifest,
    ManifestEntry,
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


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("data") / "corr")
    code = run(["synth", "--kind", "correlation", "--subjects", "8", "--rois", "6",
                "--timepoints", "40", "--seed", "3", "--out", out])
    assert code == 0
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
        with pytest.raises(ConfigError, match="expects int"):
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
        prepare = model.prepare_subject

        def planted(*args, **kwargs):
            prep = prepare(*args, **kwargs)
            prep.adjacency["d"][3, 0, 1] = np.nan  # TINY windows: 4 per subject
            return prep

        monkeypatch.setattr(model, "prepare_subject", planted)
        code = run(["train", "--data", dataset, "--out", str(tmp_path / "r")] + TINY)
        assert code == 3
        err = capsys.readouterr().err
        assert "subject '" in err and "stream 'd', layer 0, window 3" in err

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
                        "--window-size", "10", "--stride", "10",
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
                    "--data", dataset, "--out", str(tmp_path / "a")] + TINY)
        assert code == 2

    def test_attn_export_truncated_checkpoint_exit_3(self, dataset, tmp_path):
        ckpt = tmp_path / "cut.ckpt"
        ckpt.write_bytes(dc.CHECKPOINT_MAGIC + b"\x01\x00")  # cut inside the header
        code = run(["attn-export", "--checkpoint", str(ckpt), "--data", dataset,
                    "--out", str(tmp_path / "a")] + TINY)
        assert code == 3

    # shape words whose element product wraps in numpy
    @pytest.mark.parametrize("shape", [(2 ** 32 - 1, 2 ** 32 - 1), (2 ** 32 - 1, 2 ** 31)])
    def test_attn_export_oversized_shape_exit_3(self, dataset, tmp_path, shape):
        ckpt = tmp_path / "big.ckpt"
        ckpt.write_bytes(dc.CHECKPOINT_MAGIC + struct.pack("<IIH", 1, 1, 1) + b"w"
                         + struct.pack("<B2I", 2, *shape) + b"\x00" * 16)
        code = run(["attn-export", "--checkpoint", str(ckpt), "--data", dataset,
                    "--out", str(tmp_path / "a")] + TINY)
        assert code == 3

    def test_attn_export_non_finite_checkpoint_exit_3(self, dataset, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        values = dc.load_params(os.path.join(run_dir, "checkpoint.ckpt"))
        ckpt = str(tmp_path / "planted.ckpt")
        for bad in (np.nan, np.inf, -np.inf):
            store = dc.ParamStore()
            for name, value in values.items():
                store.add(name, value)
            store["classifier.b2"].data[0] = bad
            dc.save_params(ckpt, store)
            capsys.readouterr()
            code = run(["attn-export", "--checkpoint", ckpt, "--data", dataset,
                        "--out", str(tmp_path / "a")] + TINY)
            assert code == 3
            err = capsys.readouterr().err
            # the checkpoint is blamed, not the first subject's forward pass
            assert "planted.ckpt: non-finite value in 'classifier.b2'" in err, err
            assert "subject" not in err

    def test_unknown_subject_exit_2(self, dataset, tmp_path):
        code = run(["fc-dump", "--data", dataset, "--subject", "ghost",
                    "--window-size", "10", "--stride", "10",
                    "--out", str(tmp_path / "fc")])
        assert code == 2


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
                    "param_norm"} == set(r) for r in records)

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

    def test_holdout_section(self, dataset, tmp_path):
        out = str(tmp_path / "h")
        assert run(["cv", "--data", dataset, "--folds", "2", "--holdout",
                    "--out", out] + TINY) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert "holdout" in report
        assert set(report["holdout"]) == {"auc", "acc", "se", "sp",
                                          "tp", "tn", "fp", "fn"}
        assert os.path.exists(os.path.join(out, "holdout.ckpt"))


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert run(["gradcheck", "--seed", "1", "--coords", "40"]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out and "PASS" in out

    def test_fails_at_absurd_tolerance(self):
        assert run(["gradcheck", "--seed", "1", "--coords", "8",
                    "--tolerance", "1e-18"]) == 4

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
        assert run(["fc-dump", "--data", data_dir, "--window-size", "10",
                    "--stride", "10", "--out", out]) == 0
        for name in sorted(os.listdir(out)):
            if "_a_" in name:
                rows = [line.split(",") for line in
                        open(os.path.join(out, name)).read().splitlines()]
                a = np.array(rows, dtype=float)
                assert a[0, 1] == 1.0 and a[1, 0] == 1.0
                assert a[0, 0] == 0.0 and a[1, 1] == 0.0

    def test_matrix_round_trip(self, dataset, tmp_path):
        out = str(tmp_path / "fc")
        assert run(["fc-dump", "--data", dataset, "--window-size", "10",
                    "--stride", "10", "--out", out]) == 0
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


class TestAttnExport:
    def test_csv_and_json_outputs(self, dataset, tmp_path):
        run_dir = str(tmp_path / "run")
        assert run(["train", "--data", dataset, "--out", run_dir] + TINY) == 0
        out = str(tmp_path / "attn")
        ckpt = os.path.join(run_dir, "checkpoint.ckpt")
        assert run(["attn-export", "--checkpoint", ckpt, "--data", dataset,
                    "--subject", "sub000", "--out", out] + TINY) == 0
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
                    "--out", out] + TINY) == 0
        json_files = [n for n in os.listdir(out) if n.endswith(".json")]
        assert len(json_files) == 8
