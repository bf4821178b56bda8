import json
from pathlib import Path

import numpy as np
import pytest

from buscast.cli import main, parse_config_file
from buscast.nn_core import save_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err, command, *fragments):
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error [{command}]: ")
    for fragment in fragments:
        assert fragment in lines[0]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth + ingest once; downstream command tests share the cache."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    out = root / "out"
    assert main(["synth", "--days", "24", "--seed", "7", "--out", str(data)]) == 0
    assert (
        main(
            ["ingest", "--ridership", str(data / "ridership.csv"),
             "--weather", str(data / "weather.csv"), "--out", str(out)]
        )
        == 0
    )
    return {"data": data, "out": out, "dataset": out / "dataset.json"}


class TestSynth:
    def test_writes_expected_row_counts(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "synth", "--days", "3", "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        ridership = (tmp_path / "ridership.csv").read_text().splitlines()
        weather = (tmp_path / "weather.csv").read_text().splitlines()
        assert len(ridership) == 1 + 3 * 26 * 5
        assert len(weather) == 1 + 3 * 18

    def test_json_format(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "synth", "--days", "2", "--out", str(tmp_path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["days"] == 2

    def test_bad_days(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "synth", "--days", "0", "--out", str(tmp_path))
        assert code == 1
        assert "synth" in err


class TestIngest:
    def test_summary_json(self, workspace, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "ingest",
            "--ridership", str(workspace["data"] / "ridership.csv"),
            "--weather", str(workspace["data"] / "weather.csv"),
            "--out", str(tmp_path),
            "--format", "json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["records"] == 24 * 26 * 5
        assert summary["incomplete_services"] == 0
        assert summary["rain_observations"] + summary["no_rain_observations"] == 24 * 18
        assert Path(summary["dataset"]).exists()

    def test_missing_file_fails(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "ingest", "--ridership", str(tmp_path / "no.csv"),
            "--weather", str(tmp_path / "no.csv"), "--out", str(tmp_path),
        )
        assert code != 0

    def test_empty_csv_fails_cleanly(self, capsys, tmp_path):
        r = tmp_path / "r.csv"
        w = tmp_path / "w.csv"
        r.write_text("date,service_index,stop_index,ridership\n")
        w.write_text("date,hour,category,precipitation_mm\n")
        code, _, err = run_cli(
            capsys, "ingest", "--ridership", str(r), "--weather", str(w), "--out", str(tmp_path)
        )
        assert code == 1
        assert "ingest" in err


class TestCorrelate:
    def test_matrix_csv(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "correlate", "--dataset", str(workspace["dataset"]),
            "--out", str(workspace["out"]),
        )
        assert code == 0
        lines = (workspace["out"] / "correlation.csv").read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].split(",")[1] == "stop1"


TINY_HP = [
    "--batch-size", "64", "--lstm-nodes", "4", "--n-layers", "1",
    "--learning-rate", "0.01", "--sequence-length", "13", "--max-epochs", "3",
    "--patience", "3",
]


class TestTrain:
    def test_joint_writes_checkpoint_and_history(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]),
            "--method", "d", "--out", str(workspace["out"]), *TINY_HP,
        )
        assert code == 0
        assert (workspace["out"] / "d.ckpt").exists()
        history = (workspace["out"] / "d_history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) >= 2

    def test_per_stop_writes_five_checkpoints(self, workspace, capsys):
        code, _, _ = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]),
            "--method", "perstop", "--out", str(workspace["out"]), *TINY_HP,
        )
        assert code == 0
        for stop in range(1, 6):
            assert (workspace["out"] / f"perstop_stop{stop}.ckpt").exists()

    def test_unknown_method(self, workspace, capsys):
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]),
            "--method", "nope", "--out", str(workspace["out"]),
        )
        assert code == 1

    @pytest.mark.parametrize("name", ["adadelta", "adagrad", "adamax", "ftrl"])
    def test_unimplemented_optimizer_rejected(self, workspace, capsys, tmp_path, name):
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]),
            "--method", "a", "--optimizer", name, "--max-epochs", "1", "--out", str(tmp_path),
        )
        assert code == 1
        assert_one_error_line(err, "train", name, "sgd, rmsprop, adam, nadam")
        assert not (tmp_path / "a.ckpt").exists()

    def test_statistical_not_trainable(self, workspace, capsys):
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]),
            "--method", "statistical", "--out", str(workspace["out"]),
        )
        assert code == 1
        assert "statistical" in err


class TestEvaluate:
    def test_checkpoint_mode_with_improvement(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "evaluate", "--dataset", str(workspace["dataset"]),
            "--methods", "d,perstop,statistical", "--out", str(workspace["out"]),
        )
        assert code == 0
        assert "improvement of d vs perstop" in out
        report = json.loads((workspace["out"] / "rmse_report.json").read_text())
        assert set(report["methods"]) == {"d", "perstop", "statistical"}

    def test_missing_checkpoint_names_method(self, workspace, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "evaluate", "--dataset", str(workspace["dataset"]),
            "--methods", "b", "--out", str(tmp_path),
        )
        assert code == 1
        assert "'b'" in err

    def test_retrain_mode(self, workspace, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "evaluate", "--dataset", str(workspace["dataset"]),
            "--methods", "a,statistical", "--retrain", "--seeds", "1",
            "--out", str(tmp_path), *TINY_HP, "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report["methods"]) == {"a", "statistical"}

    def test_csv_format(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "evaluate", "--dataset", str(workspace["dataset"]),
            "--methods", "statistical", "--out", str(workspace["out"]), "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("method,stop1_rmse")


class TestPredict:
    def test_joint_prediction_keys(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--dataset", str(workspace["dataset"]),
            "--model", str(workspace["out"] / "d.ckpt"),
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload["predictions"]) == ["1", "2", "3", "4", "5"]
        assert all(v >= 0.0 for v in payload["predictions"].values())
        # 24 synth days end on 2021-10-24 service 26, so the next slot is:
        assert payload["predicted_date"] == "2021-10-25"
        assert payload["predicted_service_index"] == 1

    def test_per_stop_directory(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--dataset", str(workspace["dataset"]),
            "--model", str(workspace["out"]),
        )
        assert code == 0
        assert len(json.loads(out)["predictions"]) == 5

    def test_missing_model(self, workspace, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "predict", "--dataset", str(workspace["dataset"]),
            "--model", str(tmp_path / "ghost.ckpt"),
        )
        assert code == 1

    def _predict_with_checkpoint(self, capsys, workspace, path):
        return run_cli(capsys, "predict", "--dataset", str(workspace["dataset"]), "--model", str(path))

    def test_truncated_checkpoint_payload(self, workspace, capsys, tmp_path):
        path = tmp_path / "truncated.ckpt"
        save_params(path, {"note": "x"}, [("w", np.ones((4, 3))), ("b", np.ones(4))])
        path.write_bytes(path.read_bytes()[:-8])
        code, _, err = self._predict_with_checkpoint(capsys, workspace, path)
        assert code == 1
        assert_one_error_line(err, "predict", "truncated payload at b")

    def test_corrupt_checkpoint_header(self, workspace, capsys, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        save_params(path, {"note": "x"}, [("w", np.ones((4, 3)))])
        raw = bytearray(path.read_bytes())
        raw[12] = ord("[")  # the header's opening brace
        path.write_bytes(bytes(raw))
        code, _, err = self._predict_with_checkpoint(capsys, workspace, path)
        assert code == 1
        assert_one_error_line(err, "predict", "corrupt checkpoint header")

    def test_insufficient_history(self, capsys, tmp_path, workspace):
        # a dataset with only 12 services against look-back 13
        import csv

        data = tmp_path / "data"
        out = tmp_path / "out"
        assert main(["synth", "--days", "1", "--seed", "2", "--out", str(data)]) == 0
        rows = list(csv.reader((data / "ridership.csv").open()))
        with (data / "short.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(rows[0])
            w.writerows(r for r in rows[1:] if int(r[1]) <= 12)
        assert main(["ingest", "--ridership", str(data / "short.csv"),
                     "--weather", str(data / "weather.csv"), "--out", str(out)]) == 0
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "predict", "--dataset", str(out / "dataset.json"),
            "--model", str(workspace["out"] / "d.ckpt"),
        )
        assert code == 1
        assert "13" in err


class TestTune:
    def test_smoke_run_writes_report(self, workspace, capsys, tmp_path):
        config = tmp_path / "tune.cfg"
        config.write_text(
            "tune_lstm_nodes = 4\n"
            "tune_n_layers = 1\n"
            "tune_batch_sizes = 64\n"
            "tune_sequence_lengths = 13\n"
            "tune_learning_rates = 0.01\n"
            "tune_optimizers = adam,sgd\n"
        )
        code, out, _ = run_cli(
            capsys, "tune", "--dataset", str(workspace["dataset"]),
            "--method", "d", "--max-resource", "9", "--eta", "3",
            "--config", str(config), "--out", str(tmp_path), "--seed", "3",
            "--format", "json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["trials"] >= 9
        report_lines = (tmp_path / "tuning_d.csv").read_text().splitlines()
        assert len(report_lines) == 1 + summary["trials"]
        best = json.loads((tmp_path / "best_d.json").read_text())
        assert best["hyperparams"]["lstm_nodes"] == 4

    def test_per_stop_tuning_targets_one_stop(self, workspace, capsys, tmp_path):
        config = tmp_path / "tune.cfg"
        config.write_text(
            "tune_lstm_nodes = 4\ntune_n_layers = 1\ntune_batch_sizes = 64\n"
            "tune_sequence_lengths = 13\ntune_learning_rates = 0.01\ntune_optimizers = adam\n"
        )
        code, _, _ = run_cli(
            capsys, "tune", "--dataset", str(workspace["dataset"]),
            "--method", "perstop", "--stop", "2", "--max-resource", "3", "--eta", "3",
            "--config", str(config), "--out", str(tmp_path), "--seed", "1",
        )
        assert code == 0
        assert (tmp_path / "tuning_perstop_stop2.csv").exists()
        assert (tmp_path / "best_perstop_stop2.json").exists()

    def test_reproducible_report(self, workspace, capsys, tmp_path):
        config = tmp_path / "tune.cfg"
        config.write_text(
            "tune_lstm_nodes = 4\ntune_n_layers = 1\ntune_batch_sizes = 64\n"
            "tune_sequence_lengths = 13\ntune_learning_rates = 0.01\ntune_optimizers = adam\n"
        )
        blobs = []
        for run in range(2):
            out_dir = tmp_path / f"run{run}"
            code, _, _ = run_cli(
                capsys, "tune", "--dataset", str(workspace["dataset"]),
                "--method", "d", "--max-resource", "3", "--eta", "3",
                "--config", str(config), "--out", str(out_dir), "--seed", "9",
            )
            assert code == 0
            blobs.append((out_dir / "tuning_d.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_unimplemented_tune_optimizer_rejected(self, workspace, capsys, tmp_path):
        config = tmp_path / "tune.cfg"
        config.write_text("tune_optimizers = adam,ftrl\n")
        code, _, err = run_cli(
            capsys, "tune", "--dataset", str(workspace["dataset"]),
            "--method", "d", "--config", str(config), "--out", str(tmp_path),
        )
        assert code == 1
        assert_one_error_line(err, "tune", "ftrl", "sgd, rmsprop, adam, nadam")


class TestConfigFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nn_stops = 5\nmethod = d  # inline\n\n")
        assert parse_config_file(path) == {"n_stops": "5", "method": "d"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        from buscast.errors import BuscastError

        with pytest.raises(BuscastError):
            parse_config_file(path)

    def test_flags_override_config(self, workspace, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("lstm_nodes = 64\nmax_epochs = 2\nsequence_length = 13\n")
        code, _, _ = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]),
            "--method", "a", "--config", str(config), "--lstm-nodes", "4",
            "--out", str(tmp_path),
        )
        assert code == 0
        from buscast.models import load_model

        assert load_model(tmp_path / "a.ckpt").model.hidden_size == 4
