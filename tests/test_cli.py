import csv
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buscast
from buscast import cli
from buscast.cli import RunConfig, _boundaries, _merge, build_parser, main, parse_config_file
from buscast.data_ingest import (
    DEFAULT_TIMETABLE,
    RouteDataset,
    build_route_dataset,
    join_weather_to_services,
    parse_ridership_csv,
    parse_weather_csv,
    write_ridership_csv,
)
from buscast.errors import BuscastError, DivergedTraining
from buscast.features import prepare_windows, scale_targets, stop_view
from buscast.models import (
    MethodId,
    TrainSchedule,
    build_model,
    load_model,
    method_spec,
    predict_next_service,
    train,
)
from buscast.nn_core import OptimizerKind, save_params
from buscast.tuning import HyperParams, make_schedule

from ingest_oracle import (
    cache_bytes, read_cache, records_of, ridership_columns, service_weather_of, with_cache_cells,
)
from test_artifact_fuzz import _capped
from window_oracle import RecordRoute, next_service_key, oracle_stop_rows, oracle_trailing_run, slots_of

#: The directory holding the ``buscast`` package, for a child process's PYTHONPATH.
SRC = str(Path(buscast.__file__).resolve().parents[1])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reject_constant(name):
    """``json.loads``' ``parse_constant``: ``NaN`` and ``Infinity`` are not JSON."""
    raise AssertionError(f"{name} in JSON output")


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

    def test_cache_loads_equal_to_the_build(self, workspace, capsys, tmp_path):
        """The cache ``ingest`` writes loads array for array as the dataset built from the parsed CSVs,
        on a route with an incomplete service and a day without counts."""
        header, *rows = (workspace["data"] / "ridership.csv").read_text().splitlines()
        gap_day = sorted({row.split(",")[0] for row in rows})[4]
        kept = [row for i, row in enumerate(rows) if i != 40 and not row.startswith(gap_day)]
        ridership = tmp_path / "ridership.csv"
        ridership.write_text("\n".join([header, *kept]) + "\n")
        weather = workspace["data"] / "weather.csv"
        code, _, _ = run_cli(
            capsys, "ingest", "--ridership", str(ridership), "--weather", str(weather), "--out", str(tmp_path),
        )
        assert code == 0
        records = parse_ridership_csv(ridership)
        built = build_route_dataset(
            records, join_weather_to_services(records, parse_weather_csv(weather), DEFAULT_TIMETABLE),
            5, 26,
        )
        loaded = RouteDataset.load(tmp_path / "dataset.json")
        assert (~built.complete & built.mask.any(-1)).sum() == 1
        assert not built.mask[4].any() and not built.weather_mask[4].any()
        for name in ("ridership", "mask", "rain", "precipitation", "weather_mask"):
            expected, actual = getattr(built, name), getattr(loaded, name)
            assert actual.dtype == expected.dtype and np.array_equal(actual, expected), name
        assert (loaded.first_date, loaded.n_stops, loaded.services_per_day) == (
            built.first_date, built.n_stops, built.services_per_day)

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

    @pytest.mark.parametrize(
        "csv_name, edit, fragments",
        [
            ("ridership.csv", lambda text: text + "2021-10-01,1\n", ["ridership.csv:", "expected 4 fields, got 2"]),
            ("weather.csv", lambda text: text + "2021-10-01,7,Sunny\n", ["weather.csv:", "expected 4 fields, got 3"]),
            ("weather.csv", lambda text: text.replace(",0.0\n", ",nan\n", 1),
             ["weather.csv:", "non-finite number 'nan'"]),
        ],
        ids=["short-ridership-row", "short-weather-row", "nan-precipitation"],
    )
    def test_bad_row_is_one_error_line(self, workspace, capsys, tmp_path, csv_name, edit, fragments):
        for name in ("ridership.csv", "weather.csv"):
            text = (workspace["data"] / name).read_text()
            (tmp_path / name).write_text(edit(text) if name == csv_name else text)
        code, _, err = run_cli(
            capsys, "ingest", "--ridership", str(tmp_path / "ridership.csv"),
            "--weather", str(tmp_path / "weather.csv"), "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert_one_error_line(err, "ingest", *fragments)

    @pytest.mark.parametrize("quoted", [False, True], ids=["quote-free", "quoted-header"])
    def test_byte_order_mark_is_not_part_of_the_header(self, workspace, capsys, tmp_path, quoted):
        """CSVs that start with a UTF-8 byte order mark ingest to the same cache byte for byte, and a bad
        row is reported on the same line; a quoted header name takes the csv.reader path."""
        caches, errors = [], []
        for bom in (b"", b"\xef\xbb\xbf"):
            data = tmp_path / ("bom" if bom else "plain")
            data.mkdir()
            for name in ("ridership.csv", "weather.csv"):
                text = (workspace["data"] / name).read_bytes()
                (data / name).write_bytes(bom + (b'"date"' + text[len(b"date"):] if quoted else text))
            argv = ["ingest", "--ridership", str(data / "ridership.csv"), "--weather", str(data / "weather.csv")]
            assert run_cli(capsys, *argv, "--out", str(data))[0] == 0
            caches.append((data / "dataset.json").read_bytes())
            with (data / "ridership.csv").open("ab") as f:
                f.write(b"2021-10-01,1,1,-4\r\n")
            code, _, err = run_cli(capsys, *argv, "--out", str(data / "bad"))
            assert code == 1
            errors.append(err.replace(str(data), "<data>"))
        assert caches[1] == caches[0]
        lines = 1 + 24 * 26 * 5 + 1
        assert errors[1] == errors[0] == f"error [ingest]: <data>/ridership.csv:{lines}: value -4 below minimum 0\n"

    def test_only_synth_takes_the_size_flags(self, capsys):
        for command, takes in (("ingest", False), ("synth", True)):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            usage = capsys.readouterr().out
            assert ("--n-stops" in usage, "--services" in usage) == (takes, takes)

    def test_stop_and_service_counts_come_from_the_csv(self, capsys, tmp_path):
        data = tmp_path / "data"
        assert run_cli(capsys, "synth", "--days", "4", "--n-stops", "3", "--services", "4", "--out", str(data))[0] == 0
        code, out, _ = run_cli(
            capsys, "ingest", "--ridership", str(data / "ridership.csv"), "--weather", str(data / "weather.csv"),
            "--out", str(tmp_path), "--format", "json",
        )
        assert code == 0 and json.loads(out)["complete_services"] == 4 * 4
        dataset = RouteDataset.load(tmp_path / "dataset.json")
        assert (dataset.n_stops, dataset.services_per_day) == (3, 4)

    @pytest.mark.parametrize("extra_row, highest", [("", 5), ("2021-10-01,1,100000000,7\n", 100000000)],
                             ids=["stops-1-2-4-5", "and-stop-100000000"])
    def test_stop_without_a_record_is_refused(self, workspace, capsys, tmp_path, extra_row, highest):
        """No array is sized by a stop index: a stop far past the others is refused under a capped address
        space, as a missing stop is."""
        header, *rows = (workspace["data"] / "ridership.csv").read_text().splitlines()
        ridership = tmp_path / "ridership.csv"
        ridership.write_text("\n".join([header, *(row for row in rows if row.split(",")[2] != "3")]) + "\n" + extra_row)
        with _capped():
            code, _, err = run_cli(
                capsys, "ingest", "--ridership", str(ridership), "--weather", str(workspace["data"] / "weather.csv"),
                "--out", str(tmp_path / "out"),
            )
        assert code == 1
        assert_one_error_line(err, "ingest", "stop 3 has no ridership record", f"highest stop index is {highest}")
        assert not (tmp_path / "out" / "dataset.json").exists()

    @pytest.mark.parametrize("wide", ["ridership", "weather"])
    def test_date_span_beyond_the_rows_is_refused(self, workspace, capsys, tmp_path, wide):
        """No array is sized by a date span: a CSV dated 0001-01-01 and 9999-12-31 is refused under a capped
        address space, naming the CSV, both dates and its row count."""
        ridership, weather = workspace["data"] / "ridership.csv", tmp_path / "weather.csv"
        far = "0001-01-01,7,Sunny,0.0\n9999-12-31,7,Sunny,0.0\n"
        if wide == "ridership":  # the two far dates alone: ten records and two observations
            ridership = tmp_path / "ridership.csv"
            ridership.write_text("date,service_index,stop_index,ridership\n" + "".join(
                f"{day},2,{stop},7\n" for day in ("0001-01-01", "9999-12-31") for stop in range(1, 6)))
            weather.write_text("date,hour,category,precipitation_mm\n" + far)
            wide_csv, rows = ridership, 10
        else:
            weather.write_text((workspace["data"] / "weather.csv").read_text() + far)
            wide_csv, rows = weather, 24 * 18 + 2
        with _capped():
            code, _, err = run_cli(
                capsys, "ingest", "--ridership", str(ridership), "--weather", str(weather),
                "--out", str(tmp_path / "out"),
            )
        assert code == 1
        assert_one_error_line(err, "ingest", str(wide_csv), "0001-01-01", "9999-12-31", f"its {rows} rows")
        assert not (tmp_path / "out" / "dataset.json").exists()

    def test_days_times_stops_beyond_the_rows_is_refused(self, capsys, tmp_path):
        """The span and the stop count each fit the rows, but not their product: stops 1..k on one day and
        stop 1 on k days would ask for a k x 2 x k grid. It is refused under a capped address space, naming
        the three sizes and the row count."""
        k = 4000
        days = [(date(2020, 1, 1) + timedelta(days=d)).isoformat() for d in range(k)]
        ridership, weather = tmp_path / "ridership.csv", tmp_path / "weather.csv"
        ridership.write_text("date,service_index,stop_index,ridership\n" + "".join(
            [f"{days[0]},2,{stop},7\n" for stop in range(1, k + 1)] + [f"{day},2,1,7\n" for day in days[1:]]))
        weather.write_text("date,hour,category,precipitation_mm\n" + "".join(f"{day},7,Sunny,0.0\n" for day in days))
        with _capped():
            code, _, err = run_cli(
                capsys, "ingest", "--ridership", str(ridership), "--weather", str(weather),
                "--out", str(tmp_path / "out"),
            )
        assert code == 1
        assert_one_error_line(err, "ingest", str(ridership), f"{k} days x {k} stops", f"its {2 * k - 1} rows",
                              f"{k} x 2 x {k} = {2 * k * k} cells")
        assert not (tmp_path / "out" / "dataset.json").exists()

    def test_non_utf8_csv_is_one_error_line(self, workspace, capsys, tmp_path):
        r = tmp_path / "r.csv"
        r.write_bytes(b"\xff\xfe" + (workspace["data"] / "ridership.csv").read_bytes())
        code, _, err = run_cli(
            capsys, "ingest", "--ridership", str(r), "--weather", str(workspace["data"] / "weather.csv"),
            "--out", str(tmp_path),
        )
        assert code == 1
        assert_one_error_line(err, "ingest", str(r), "not UTF-8")


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

    def test_json_has_null_for_a_stop_without_variance(self, capsys, tmp_path):
        """JSON has no NaN: a coefficient that is undefined because stop 1 always counts 0 is null."""
        assert run_cli(capsys, "synth", "--days", "3", "--seed", "1", "--out", str(tmp_path))[0] == 0
        ridership = tmp_path / "ridership.csv"
        header, *rows = ridership.read_text().splitlines()
        rows = [row.rsplit(",", 1)[0] + ",0" if row.split(",")[2] == "1" else row for row in rows]
        ridership.write_text("\n".join([header, *rows]) + "\n")
        assert run_cli(capsys, "ingest", "--ridership", str(ridership), "--weather",
                       str(tmp_path / "weather.csv"), "--out", str(tmp_path))[0] == 0
        code, out, _ = run_cli(capsys, "correlate", "--dataset", str(tmp_path / "dataset.json"),
                               "--out", str(tmp_path), "--format", "json")
        assert code == 0
        matrix = json.loads(out, parse_constant=reject_constant)["matrix"]
        assert matrix[0] == [1.0, None, None, None, None] and all(row[0] is None for row in matrix[1:])
        assert None not in matrix[1][1:]
        assert (tmp_path / "correlation.csv").read_text().splitlines()[1].split(",")[2] == "nan"


TINY_HP = [
    "--batch-size", "64", "--lstm-nodes", "4", "--n-layers", "1",
    "--learning-rate", "0.01", "--sequence-length", "13", "--max-epochs", "3",
    "--patience", "3",
]
#: A tuning grid of one tiny config, as config lines.
TINY_GRID = (
    "tune_lstm_nodes = 4\ntune_n_layers = 1\ntune_batch_sizes = 64\ntune_sequence_lengths = 13\n"
    "tune_learning_rates = 0.01\ntune_optimizers = adam\n"
)


@pytest.fixture(scope="module")
def tiny_grid(tmp_path_factory):
    path = tmp_path_factory.mktemp("grid") / "tiny.cfg"
    path.write_text(TINY_GRID)
    return path


@pytest.fixture(scope="module")
def trained(workspace):
    """Train d and perstop once into the shared out directory; returns each exit code.

    TestTrain checks what they write; TestEvaluate and TestPredict read the
    checkpoints, so they pass whichever tests are selected.
    """
    return {
        method: main(["train", "--dataset", str(workspace["dataset"]), "--method", method,
                      "--out", str(workspace["out"]), *TINY_HP])
        for method in ("d", "perstop")
    }


class TestTrain:
    def test_joint_writes_checkpoint_and_history(self, workspace, trained):
        assert trained["d"] == 0
        assert (workspace["out"] / "d.ckpt").exists()
        history = (workspace["out"] / "d_history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss"
        assert len(history) >= 2

    def test_per_stop_writes_one_checkpoint(self, workspace, trained):
        assert trained["perstop"] == 0
        written = {p.name for p in workspace["out"].glob("perstop*")}
        assert written == {"perstop.ckpt"} | {f"perstop_stop{stop}_history.csv" for stop in range(1, 6)}

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

    def test_non_finite_loss_prints_one_error_line(self, tmp_path):
        """A run whose loss overflows exits 1 with one error line and no floating-point warnings.

        The commands run in a child process, so numpy's warnings would reach its stderr.
        """
        env = {**os.environ, "PYTHONWARNINGS": "default",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

        def cli(*argv):
            return subprocess.run([sys.executable, "-m", "buscast.cli", *argv], cwd=tmp_path, env=env,
                                  capture_output=True, text=True)

        assert cli("synth", "--days", "20", "--seed", "3", "--out", ".").returncode == 0
        assert cli("ingest", "--ridership", "ridership.csv", "--weather", "weather.csv", "--out", ".").returncode == 0
        run = cli("train", "--dataset", "dataset.json", "--method", "d", "--optimizer", "sgd", "--learning-rate",
                  "1e6", "--clip-norm", "none", "--max-epochs", "5", "--out", "ckpt")
        assert run.returncode == 1
        assert_one_error_line(run.stderr, "train", "non-finite training loss")

    def test_statistical_not_trainable(self, workspace, capsys):
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]),
            "--method", "statistical", "--out", str(workspace["out"]),
        )
        assert code == 1
        assert "statistical" in err


@pytest.mark.usefixtures("trained")
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

    def test_clip_norm_flag_equals_config_key(self, workspace, capsys, tmp_path):
        config = tmp_path / "clip.cfg"
        config.write_text("clip_norm = 1e-3\n")
        reports = []
        for extra in (["--clip-norm", "1e-3"], ["--config", str(config)], []):
            out = tmp_path / f"report{len(reports)}"
            code, _, _ = run_cli(
                capsys, "evaluate", "--dataset", str(workspace["dataset"]), "--methods", "d",
                "--retrain", "--seeds", "1", "--out", str(out), *TINY_HP, *extra,
            )
            assert code == 0
            reports.append((out / "rmse_report.json").read_bytes())
        assert reports[0] == reports[1]
        assert reports[0] != reports[2]  # clipping at 1e-3 fires, so the flag took effect

    def test_csv_format(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "evaluate", "--dataset", str(workspace["dataset"]),
            "--methods", "statistical", "--out", str(workspace["out"]), "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("method,stop1_rmse")


@pytest.mark.usefixtures("trained")
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

    def test_per_stop_checkpoint_file(self, workspace, capsys):
        code, out, _ = run_cli(
            capsys, "predict", "--dataset", str(workspace["dataset"]),
            "--model", str(workspace["out"] / "perstop.ckpt"),
        )
        assert code == 0
        predictions = json.loads(out)["predictions"]
        assert len(predictions) == 5 and all(v >= 0.0 for v in predictions.values())

    def test_per_stop_directory(self, workspace, capsys):
        code, _, err = run_cli(
            capsys, "predict", "--dataset", str(workspace["dataset"]),
            "--model", str(workspace["out"]),
        )
        assert code == 1
        assert_one_error_line(err, "predict", "no checkpoint file at")

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

    @pytest.mark.parametrize(
        "header, fragment",
        [
            (b"[" * 100_000, "corrupt checkpoint header"),
            (b'{"format_version": 1}', "malformed parameter list"),
            (b'{"format_version": 1, "params": 3}', "malformed parameter list"),
            (b'{"format_version": 1, "params": [["w", ["ab"]]]}', "malformed parameter list"),
            (b'{"format_version": 1, "params": [["w", [1.5]]]}', "malformed parameter list"),
            (b'{"format_version": 1, "params": [["w", [-1]]]}', "malformed parameter list"),
            (b'{"format_version": 1, "params": [[7, [1]]]}', "malformed parameter list"),
            (b'{"format_version": 1, "params": [["w"]]}', "malformed parameter list"),
        ],
        ids=["deep-nesting", "no-params", "params-not-a-list", "text-dimension", "fractional-dimension",
             "negative-dimension", "unnamed-array", "no-shape"],
    )
    def test_malformed_checkpoint_header(self, workspace, capsys, tmp_path, header, fragment):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"BCKP" + struct.pack("<Q", len(header)) + header + bytes(64))
        code, _, err = self._predict_with_checkpoint(capsys, workspace, path)
        assert code == 1
        assert_one_error_line(err, "predict", str(path), fragment)

    @pytest.mark.parametrize(
        "edit_header, drop, fragment",
        [
            (lambda h: h.pop("method"), None, "'method'"),
            (lambda h: h.update(method="zz"), None, "header key 'method': 'zz' is not a valid MethodId, got 'zz'"),
            (lambda h: h.update(method="statistical"), None,
             "header key 'method': 'statistical' trains no model, got 'statistical'"),
            (lambda h: None, "d/layer0/w", "parameter array 'd/layer0/w' is missing"),
            (lambda h: h["members"][0]["hyperparams"].pop("optimizer"), None,
             "member 'd': hyperparams: header key 'optimizer' is missing"),
            (lambda h: h["members"][0]["hyperparams"].update(batch_size=float("inf")), None,
             "header key 'batch_size': must be an integer of at least 1, got inf"),
        ],
        ids=["no-method", "unknown-method", "statistical-method", "missing-array", "bad-hyperparams",
             "infinite-hyperparameter"],
    )
    def test_malformed_checkpoint(self, workspace, trained, capsys, tmp_path, edit_header, drop, fragment):
        from buscast.nn_core import load_params

        header, params = load_params(workspace["out"] / "d.ckpt")
        edit_header(header)
        path = tmp_path / "edited.ckpt"
        save_params(path, header, [(name, arr) for name, arr in params.items() if name != drop])
        code, _, err = self._predict_with_checkpoint(capsys, workspace, path)
        assert code == 1
        assert_one_error_line(err, "predict", fragment)

    def test_insufficient_history(self, capsys, tmp_path, workspace):
        # a day of 26 services whose trailing run of complete services is 12 (15..26) against look-back 13
        import csv

        data = tmp_path / "data"
        out = tmp_path / "out"
        assert main(["synth", "--days", "1", "--seed", "2", "--out", str(data)]) == 0
        rows = list(csv.reader((data / "ridership.csv").open()))
        with (data / "short.csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(rows[0])
            w.writerows(r for r in rows[1:] if r[1:3] != ["14", "1"])
        assert main(["ingest", "--ridership", str(data / "short.csv"),
                     "--weather", str(data / "weather.csv"), "--out", str(out)]) == 0
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "predict", "--dataset", str(out / "dataset.json"),
            "--model", str(workspace["out"] / "d.ckpt"),
        )
        assert code == 1
        assert_one_error_line(err, "predict", "need 13", "trailing run has 12")


DAY7 = date(2021, 10, 7)


@pytest.mark.usefixtures("trained")
class TestPredictTail:
    """predict encodes only the days of its last L services; its output equals a full encode of the records."""

    ROUTES = {
        "whole": lambda r: False,
        # the last day holds one service, and it misses stop 3: the run ends the day before
        "last-service-incomplete": lambda r: r.service_date == DAY7 and (r.service_index > 1 or r.stop_index == 3),
        # a gap in the encoded last day, before the last 13 services
        "gap-before-the-last-l": lambda r: (r.service_date, r.service_index, r.stop_index) == (DAY7, 5, 2),
        # a gap inside the last 13 services: the trailing run is 6 long
        "gap-inside-the-last-l": lambda r: (r.service_date, r.service_index, r.stop_index) == (DAY7, 20, 4),
        # the last day stops after service 10, so the next service is that day's 11th
        "last-day-stops-mid-day": lambda r: r.service_date == DAY7 and r.service_index > 10,
    }

    def _route(self, tmp_path, drop):
        """A 7-day route without the records ``drop`` selects: its cache, and the lists ingest read."""
        data, out = tmp_path / "data", tmp_path / "out"
        assert main(["synth", "--days", "7", "--seed", "5", "--out", str(data)]) == 0
        records = [r for r in records_of(parse_ridership_csv(data / "ridership.csv")) if not drop(r)]
        write_ridership_csv(ridership_columns(records), data / "ridership.csv")
        assert main(["ingest", "--ridership", str(data / "ridership.csv"),
                     "--weather", str(data / "weather.csv"), "--out", str(out)]) == 0
        weather = join_weather_to_services(
            ridership_columns(records), parse_weather_csv(data / "weather.csv"), DEFAULT_TIMETABLE
        )
        return out / "dataset.json", RecordRoute(records, service_weather_of(weather), 5, 26)

    @staticmethod
    def _expected(lists, checkpoint):
        """(stdout, error line) of predict, from every complete service encoded one at a time."""
        lm = load_model(checkpoint)
        run, look_back = oracle_trailing_run(lists), lm.look_back
        if len(run) < look_back:
            return "", f"error [predict]: need {look_back} consecutive complete services, trailing run has {len(run)}"
        scalers = lm.forecaster.scalers
        history = [oracle_stop_rows(lists, stop, lm.spec.features, scalers)[-look_back:] for stop in range(1, 6)]
        target = next_service_key(run[-1], 26)
        predictions = predict_next_service(lm.forecaster, history, look_back, int(slots_of([target], 26)[0]))
        payload = {
            "predicted_date": target[0].isoformat(),
            "predicted_service_index": target[1],
            "predictions": {str(stop): predictions[stop - 1] for stop in range(1, 6)},
        }
        return json.dumps(payload, sort_keys=True) + "\n", ""

    @pytest.mark.parametrize("method", ["d", "perstop"])
    @pytest.mark.parametrize("route", list(ROUTES))
    def test_output_equals_full_encode(self, workspace, capsys, tmp_path, route, method):
        cache, lists = self._route(tmp_path, self.ROUTES[route])
        checkpoint = workspace["out"] / f"{method}.ckpt"
        capsys.readouterr()
        code, out, err = run_cli(capsys, "predict", "--dataset", str(cache), "--model", str(checkpoint))
        expected_out, expected_err = self._expected(lists, checkpoint)
        assert (out, err.strip()) == (expected_out, expected_err)
        assert code == (1 if expected_err else 0)
        assert bool(expected_err) == (route == "gap-inside-the-last-l")
        if route == "last-day-stops-mid-day":
            payload = json.loads(out)
            assert (payload["predicted_date"], payload["predicted_service_index"]) == (DAY7.isoformat(), 11)


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

    @pytest.mark.parametrize("stop", ["-1", "0", "6"])
    def test_stop_outside_the_dataset_rejected(self, workspace, capsys, tmp_path, stop):
        """For a joint method too: its one regressor predicts stops 1..5, and no other."""
        for method in ("perstop", "d"):
            code, _, err = run_cli(
                capsys, "tune", "--dataset", str(workspace["dataset"]), "--method", method,
                "--stop", stop, "--out", str(tmp_path),
            )
            assert code == 1
            assert_one_error_line(err, "tune", "--stop", "1..5", "5 stops", f"got {stop}")
            assert not any(tmp_path.iterdir())

    def test_unimplemented_tune_optimizer_rejected(self, workspace, capsys, tmp_path):
        config = tmp_path / "tune.cfg"
        config.write_text("tune_optimizers = adam,ftrl\n")
        code, _, err = run_cli(
            capsys, "tune", "--dataset", str(workspace["dataset"]),
            "--method", "d", "--config", str(config), "--out", str(tmp_path),
        )
        assert code == 1
        assert_one_error_line(err, "tune", "ftrl", "sgd, rmsprop, adam, nadam")


#: A small tuning grid with every optimizer and both depths.
RESUME_GRID = (
    "tune_lstm_nodes = 4,8\ntune_n_layers = 1,2\ntune_batch_sizes = 64\ntune_sequence_lengths = 13\n"
    "tune_learning_rates = 0.01,0.001\ntune_optimizers = sgd,rmsprop,adam,nadam\n"
)


def _tune_resume(workspace, root: Path, method_args) -> tuple[int, Path]:
    config = root / "tune.cfg"
    config.write_text(RESUME_GRID)
    out = root / "out"
    code = main([
        "tune", "--dataset", str(workspace["dataset"]), "--method", *method_args, "--max-resource", "9",
        "--eta", "3", "--config", str(config), "--out", str(out), "--seed", "4",
    ])
    return code, out


@pytest.fixture(scope="class", params=[("d",), ("perstop", "--stop", "2")], ids=["d", "perstop-stop2"])
def spied_tune(request, workspace, tmp_path_factory):
    """One tune run of R=9, eta=3 with ``train`` and ``save_train_state`` spied on.

    ``calls`` holds (hp, epochs, epochs resumed from) of each ``train`` call,
    and ``written`` the index of the call whose state each write saved.
    """
    calls, written = [], []

    def spied_train(model, train_data, val_data, hp, schedule, seed, state=None):
        calls.append((hp, schedule.max_epochs, len(state.history.epochs)))
        return train(model, train_data, val_data, hp, schedule, seed, state)

    save = cli.save_train_state

    def spied_save(path, state):
        written.append(len(calls) - 1)
        assert len(state.history.epochs) == calls[-1][1]
        save(path, state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "train", spied_train)
        patch.setattr(cli, "save_train_state", spied_save)
        code, out = _tune_resume(workspace, tmp_path_factory.mktemp("tune"), request.param)
    assert code == 0
    with next(out.glob("tuning_*.csv")).open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {"method": request.param, "out": out, "rows": rows, "calls": calls, "written": written}


class TestTuneResume:
    """Promoted trials resume from spilled training states, with the results of retraining from scratch."""

    def test_each_row_equals_training_from_scratch(self, workspace, spied_tune):
        method_args, rows = spied_tune["method"], spied_tune["rows"]
        dataset = RouteDataset.load(workspace["dataset"])
        spec = method_spec(MethodId(method_args[0]), dataset.services_per_day)
        cols = slice(None) if len(method_args) == 1 else slice(int(method_args[2]) - 1, int(method_args[2]))
        prepared = prepare_windows(dataset, _boundaries(RunConfig(), dataset), spec.features, 13)
        train_data, val_data = (stop_view(scale_targets(split, prepared.scalers), cols)
                                for split in (prepared.train, prepared.val))
        assert len(rows) == 20 and {row["rung"] for row in rows} == {"0", "1", "2"}
        for row in rows:
            hp = HyperParams(int(row["batch"]), int(row["seq_len"]), int(row["nodes"]), int(row["layers"]),
                             float(row["lr"]), OptimizerKind(row["optimizer"]))
            epochs, seed = int(row["epochs"]), int(row["seed"])
            model = build_model(spec, hp, dataset.n_stops, seed)
            try:
                history = train(model, train_data, val_data, hp, TrainSchedule(epochs, epochs), seed + 1)
                expected = history.best_val_loss
            except DivergedTraining:
                expected = float("inf")
            assert row["val_loss"] == repr(expected), row

    def test_no_state_is_left_behind(self, spied_tune):
        suffix = "_stop".join(spied_tune["method"][::2])
        names = sorted(path.name for path in spied_tune["out"].rglob("*"))
        assert names == [f"best_{suffix}.json", f"tuning_{suffix}.csv"]

    def test_states_are_written_only_while_promotable(self, spied_tune):
        rows, calls, written = spied_tune["rows"], spied_tune["calls"], spied_tune["written"]
        assert len(calls) == len(rows)  # every config is feasible: trial i is train call i
        brackets = {bracket.index: bracket.rungs for bracket in make_schedule(9, 3).brackets}
        promotable = set()
        for row in rows:
            trial, loss = int(row["trial_id"]), float(row["val_loss"])
            rungs, rung = brackets[int(row["bracket"])], int(row["rung"])
            # Trials of the same rung run so far that beat this one on (loss, trial id).
            beaten_by = sum(
                1 for other in rows
                if (other["bracket"], other["rung"]) == (row["bracket"], row["rung"])
                and int(other["trial_id"]) < trial and float(other["val_loss"]) <= loss
            )
            if rung + 1 < len(rungs) and beaten_by < rungs[rung].n_keep and loss < float("inf"):
                promotable.add(trial)
        assert written and sorted(written) == written and set(written) == promotable
        # Each promoted trial resumed from its previous rung's budget.
        for (_, _, resumed_from), row in zip(calls, rows):
            rungs, rung = brackets[int(row["bracket"])], int(row["rung"])
            assert resumed_from == (rungs[rung - 1].epochs if rung > 0 else 0)

    @pytest.mark.parametrize("method_args", [("d",), ("perstop", "--stop", "2")], ids=["d", "perstop-stop2"])
    def test_states_are_removed_when_a_trial_fails(self, workspace, capsys, tmp_path, monkeypatch, method_args):
        calls, written = [], []

        def failing_train(model, train_data, val_data, hp, schedule, seed, state=None):
            calls.append(state)
            if len(calls) == 11:  # the second trial of bracket 0's second rung
                raise BuscastError("disk on fire")
            return train(model, train_data, val_data, hp, schedule, seed, state)

        save = cli.save_train_state

        def spied_save(path, state):
            written.append(path)
            save(path, state)

        monkeypatch.setattr(cli, "train", failing_train)
        monkeypatch.setattr(cli, "save_train_state", spied_save)
        code, out = _tune_resume(workspace, tmp_path, method_args)
        err = capsys.readouterr().err
        assert code == 1
        assert_one_error_line(err, "tune", "disk on fire")
        assert len(written) >= 2 and calls[-1].history.epochs  # states were spilled, and one resumed
        assert not any(out.rglob("*"))


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

        assert load_model(tmp_path / "a.ckpt").forecaster.members[0].model.hidden_size == 4

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_second_call_holds_the_defaults(self, capsys, tmp_path, monkeypatch):
        """Flags and a config file given to one ``main`` call do not reach the next, which shares its parser."""
        configs = []
        monkeypatch.setattr(cli, "_merge", lambda args: configs.append(_merge(args)) or configs[-1])
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("rain_probability = 0.5\nseed = 4\n")
        assert run_cli(capsys, "synth", "--config", "run.cfg", "--days", "2", "--noise", "2", "--out", "first")[0] == 0
        assert run_cli(capsys, "synth")[0] == 0
        assert (configs[0].rain_probability, configs[0].seed, configs[0].n_days, configs[0].noise_scale) == (
            0.5, 4, 2, 2.0)
        assert configs[1] == RunConfig()

    def test_readme_lists_every_key_with_its_flag(self):
        """The README's config-file bullet names exactly the fields of ``RunConfig``, each with its flag."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("* **config file**", 1)[1].split("\n* **", 1)[0]
        documented = dict(re.findall(r"^  \* `(\w+)`(?: \(`(--[\w-]+)`)?", section, flags=re.M))
        assert documented == {f.name: f.metadata["flag"] or "" for f in fields(RunConfig)}


class TestBadInputs:
    """Each bad input ends in exit 1 and one ``error [cmd]:`` line, never a traceback."""

    def test_synth_departure_outside_the_weather_hours(self, capsys, tmp_path):
        """A service in use that departs before 06:00 is rejected before any CSV is written; one
        that is not in use may."""
        config = tmp_path / "t.cfg"
        config.write_text("timetable = 05:30,07:00\n")
        argv = ["synth", "--config", str(config), "--days", "2"]
        code, _, err = run_cli(capsys, *argv, "--services", "2", "--out", str(tmp_path / "two"))
        assert code == 1
        assert_one_error_line(err, "synth", "service 1 departs at 05:30, outside the weather hours 06:00-23:59")
        assert not list(tmp_path.rglob("*.csv"))
        config.write_text("timetable = 07:00,05:30\n")
        assert run_cli(capsys, *argv, "--services", "1", "--out", str(tmp_path / "one"))[0] == 0

    def test_bad_date_flag(self, workspace, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]), "--method", "a",
            "--train-end", "2021-13-01", "--val-end", "2021-10-20", "--out", str(tmp_path),
        )
        assert code == 1
        assert_one_error_line(err, "train", "--train-end", "2021-13-01")

    def test_bad_config_value(self, workspace, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("batch_size = abc\n")
        code, _, err = run_cli(
            capsys, "train", "--dataset", str(workspace["dataset"]), "--method", "a",
            "--config", str(config), "--out", str(tmp_path),
        )
        assert code == 1
        assert_one_error_line(err, "train", "'batch_size'", "'abc'")

    def test_config_file_not_utf8(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"seed = \xff\n")
        code, _, err = run_cli(capsys, "synth", "--config", str(config), "--out", str(tmp_path / "out"))
        assert code == 1
        assert_one_error_line(err, "synth", f"{config}: not UTF-8 text (byte 7)")

    @pytest.mark.parametrize("value", ["26", 1.5, True, 0, None], ids=["text", "fraction", "true", "zero", "null"])
    @pytest.mark.parametrize(
        "method, entry, key",
        [
            ("d", (), "look_back"),
            ("d", (), "n_stops"),
            ("d", (), "services_per_day"),
            ("d", ("members", 0, "hyperparams"), "lstm_nodes"),
            ("d", ("members", 0, "hyperparams"), "n_layers"),
            ("perstop", ("members", 1, "hyperparams"), "lstm_nodes"),
            ("perstop", ("members", 1, "hyperparams"), "n_layers"),
            ("d", ("members", 0, "hyperparams"), "batch_size"),
            ("perstop", ("members", 1, "hyperparams"), "sequence_length"),
        ],
    )
    def test_checkpoint_size_that_is_not_a_count(
        self, workspace, trained, capsys, tmp_path, method, entry, key, value
    ):
        """A size in a checkpoint header, a member's hyperparameters included, must be an int of at least 1: one
        error line names the key."""
        from buscast.nn_core import load_params

        header, params = load_params(workspace["out"] / f"{method}.ckpt")
        edited = header
        for step in entry:
            edited = edited[step]
        edited[key] = value
        path = tmp_path / "edited.ckpt"
        save_params(path, header, list(params.items()))
        code, _, err = run_cli(capsys, "predict", "--dataset", str(workspace["dataset"]), "--model", str(path))
        assert code == 1
        assert_one_error_line(err, "predict", repr(key))

    def test_checkpoint_of_another_input_width(self, workspace, trained, capsys, tmp_path):
        """A ``d`` checkpoint whose input layer reads 5 features: ``d`` reads 37, so ``predict`` and ``evaluate``
        refuse it with one line that names the array and the width it must have."""
        from buscast.nn_core import load_params

        header, params = load_params(workspace["out"] / "d.ckpt")
        arrays = [(name, np.ascontiguousarray(arr[..., :5]) if name.endswith("layer0/w") else arr)
                  for name, arr in params.items()]
        save_params(tmp_path / "d.ckpt", header, arrays)
        for argv in (["predict", "--model", str(tmp_path / "d.ckpt")],
                     ["evaluate", "--methods", "d", "--out", str(tmp_path)]):
            code, _, err = run_cli(capsys, *argv, "--dataset", str(workspace["dataset"]))
            assert code == 1
            assert_one_error_line(err, argv[0], "parameter array 'd/layer0/w' is float64 of shape (5, 16, 5), "
                                                "not float64 of shape (5, 16, 37)")

    @pytest.mark.parametrize(
        "key, value, fragment",
        [
            ("batch_size", True, "header key 'batch_size': must be an integer of at least 1, got True"),
            ("batch_size", 16.9, "header key 'batch_size': must be an integer of at least 1, got 16.9"),
            ("learning_rate", float("nan"), "header key 'learning_rate': must be a finite number above 0, got nan"),
            ("lstm_nodes", "999", "header key 'lstm_nodes': must be an integer of at least 1, got '999'"),
            ("n_layers", 7, "parameter array 'd/layer1/w' is missing"),
            ("sequence_length", 12, "sequence_length 12 is not the look-back 13"),
        ],
        ids=["true-batch", "fractional-batch", "nan-learning-rate", "text-nodes", "more-layers-than-arrays",
             "another-look-back"],
    )
    def test_checkpoint_hyperparameters_are_checked_not_coerced(
        self, workspace, trained, capsys, tmp_path, key, value, fragment
    ):
        """Each member's hyperparameters set its array shapes, so each is checked as it stands: one error line."""
        from buscast.nn_core import load_params

        header, params = load_params(workspace["out"] / "d.ckpt")
        header["members"][0]["hyperparams"][key] = value
        path = tmp_path / "edited.ckpt"
        save_params(path, header, list(params.items()))
        code, _, err = run_cli(capsys, "predict", "--dataset", str(workspace["dataset"]), "--model", str(path))
        assert code == 1
        assert_one_error_line(err, "predict", str(path), "member 'd': ", fragment)

    def test_checkpoint_of_the_per_branch_layout_asks_for_a_new_train(self, workspace, trained, capsys, tmp_path):
        """A ``d`` checkpoint as written before the layout version: sizes in the header, one array per branch and
        layer. ``predict`` and ``evaluate`` refuse it with one line that asks for ``buscast train``."""
        from buscast.nn_core import load_params

        header, params = load_params(workspace["out"] / "d.ckpt")
        del header["version"]
        (member,) = header.pop("members")
        hp = member["hyperparams"]
        header.update(member, n_branches=5, n_layers=hp["n_layers"], hidden_size=hp["lstm_nodes"], input_size=37,
                      stop_index=None, feature_spec={
                          "use_ridership": True, "use_day_of_week": True, "use_service_number": True,
                          "use_rain": True, "services_per_day": 26, "dimension": 37,
                      })
        layers = [(name.removeprefix("d/"), arr) for name, arr in params.items() if "/layer" in name]
        arrays = [(f"branch{b}/{name}", arr[b]) for b in range(5) for name, arr in layers]
        arrays += [(name.removeprefix("d/"), arr) for name, arr in params.items() if "/head/" in name]
        save_params(tmp_path / "d.ckpt", header, arrays)
        for argv in (["predict", "--model", str(tmp_path / "d.ckpt")],
                     ["evaluate", "--methods", "d", "--out", str(tmp_path)]):
            code, _, err = run_cli(capsys, *argv, "--dataset", str(workspace["dataset"]))
            assert code == 1
            assert_one_error_line(err, argv[0], str(tmp_path / "d.ckpt"), "run 'buscast train' again")

    @pytest.mark.parametrize("stops", [None, "x", {}, [1], [{}, None]])
    def test_per_stop_checkpoint_without_a_list_of_stops(self, workspace, trained, capsys, tmp_path, stops):
        """``members`` holds one object per stop for ``perstop``; ``stops`` is what stands there instead."""
        from buscast.nn_core import load_params

        header, params = load_params(workspace["out"] / "perstop.ckpt")
        path = tmp_path / "edited.ckpt"
        save_params(path, {**header, "members": stops}, list(params.items()))
        code, _, err = run_cli(capsys, "predict", "--dataset", str(workspace["dataset"]), "--model", str(path))
        assert code == 1
        assert_one_error_line(err, "predict", "header key 'members': must be a list of 5 objects, one per regressor")

    @pytest.mark.parametrize("members", [4, 6])
    def test_per_stop_checkpoint_with_a_member_per_stop_too_few_or_many(
        self, workspace, trained, capsys, tmp_path, members
    ):
        """A 5-stop per-stop checkpoint needs 5 members: the error line names the file and the key."""
        from buscast.nn_core import load_params

        header, params = load_params(workspace["out"] / "perstop.ckpt")
        entries = (header["members"] * 2)[:members]
        arrays = [(f"perstop_stop{b}/{name.partition('/')[2]}", arr) for b in range(1, members + 1)
                  for name, arr in params.items() if name.startswith("perstop_stop1/")]
        path = tmp_path / "edited.ckpt"
        save_params(path, {**header, "members": entries}, arrays)
        code, _, err = run_cli(capsys, "predict", "--dataset", str(workspace["dataset"]), "--model", str(path))
        assert code == 1
        assert_one_error_line(err, "predict", str(path), "'members'")

    def _evaluate_edited_cache(self, workspace, capsys, tmp_path, edit):
        """Run ``evaluate`` on the shared cache with its payload replaced by ``edit(payload)``."""
        cache = tmp_path / "dataset.json"
        cache.write_bytes(cache_bytes(edit(read_cache(workspace["dataset"]))))
        return run_cli(
            capsys, "evaluate", "--dataset", str(cache), "--methods", "statistical", "--out", str(tmp_path),
        )

    @pytest.mark.parametrize("precipitation, shown", [(-5.0, "-5.0"), (float("inf"), "inf")])
    def test_dataset_cache_with_bad_precipitation(self, workspace, capsys, tmp_path, precipitation, shown):
        code, _, err = self._evaluate_edited_cache(
            workspace, capsys, tmp_path,
            lambda payload: with_cache_cells(payload, "precipitation", ((0, 3), precipitation)),
        )
        assert code == 1
        assert_one_error_line(err, "evaluate", f"precipitation {shown} for", "negative or not finite")

    def test_dataset_cache_without_records(self, workspace, capsys, tmp_path):
        code, _, err = self._evaluate_edited_cache(
            workspace, capsys, tmp_path, lambda payload: {k: v for k, v in payload.items() if k != "ridership"},
        )
        assert code == 1
        assert_one_error_line(err, "evaluate", "'ridership'")

    def test_dataset_cache_with_rain_flag_7(self, workspace, capsys, tmp_path):
        code, _, err = self._evaluate_edited_cache(
            workspace, capsys, tmp_path, lambda payload: with_cache_cells(payload, "rain", ((0, 4), 7)),
        )
        assert code == 1
        assert_one_error_line(err, "evaluate", "rain flag 7 for (datetime.date(2021, 10, 1), 5) is not 0 or 1")

    def test_dataset_cache_with_no_stops(self, workspace, capsys, tmp_path):
        code, _, err = self._evaluate_edited_cache(
            workspace, capsys, tmp_path, lambda payload: {**payload, "n_stops": 0},
        )
        assert code == 1
        assert_one_error_line(err, "evaluate", "header key 'n_stops': must be an integer of at least 1, got 0")

    def test_version_1_cache_asks_for_a_new_ingest(self, workspace, trained, capsys, tmp_path):
        cache = tmp_path / "dataset.json"
        cache.write_text(json.dumps({
            "format": "buscast-dataset", "version": 1, "n_stops": 5, "services_per_day": 26,
            "timetable": {"1": "06:40"}, "records": [["2021-10-01", 1, 1, 3]], "weather": [["2021-10-01", 1, 0, 0.0]],
        }))
        code, _, err = run_cli(
            capsys, "predict", "--dataset", str(cache), "--model", str(workspace["out"] / "d.ckpt"),
        )
        assert code == 1
        assert_one_error_line(
            err, "predict", f"{cache}: version-1 dataset cache; run 'buscast ingest' again to rewrite it",
        )

    def test_version_2_cache_asks_for_a_new_ingest(self, workspace, trained, capsys, tmp_path):
        cache = tmp_path / "dataset.json"
        cache.write_text(json.dumps({
            "format": "buscast-dataset", "version": 2, "n_stops": 5, "services_per_day": 26,
            "first_date": "2021-10-01", "timetable": {"1": "06:40"}, "ridership": [[[3] * 5] * 26],
            "rain": [[0] * 26], "precipitation": [[0.0] * 26],
        }))
        code, _, err = run_cli(
            capsys, "predict", "--dataset", str(cache), "--model", str(workspace["out"] / "d.ckpt"),
        )
        assert code == 1
        assert_one_error_line(
            err, "predict", f"{cache}: version-2 dataset cache; run 'buscast ingest' again to rewrite it",
        )

    def test_version_3_cache_asks_for_a_new_ingest(self, workspace, trained, capsys, tmp_path):
        """The JSON cache with base64 grids that ``ingest`` wrote before the container."""
        cache = tmp_path / "dataset.json"
        cache.write_text(json.dumps({
            "format": "buscast-dataset", "version": 3, "n_stops": 1, "services_per_day": 1,
            "first_date": "2021-10-01", "days": 1, "ridership": "AwAAAAAAAAA=", "mask": "AQ==", "rain": "AA==",
            "precipitation": "AAAAAAAAAAA=", "weather_mask": "AQ==",
        }))
        code, _, err = run_cli(
            capsys, "predict", "--dataset", str(cache), "--model", str(workspace["out"] / "d.ckpt"),
        )
        assert code == 1
        assert_one_error_line(
            err, "predict", f"{cache}: version-3 dataset cache; run 'buscast ingest' again to rewrite it",
        )

    def test_checkpoint_given_as_the_dataset(self, workspace, trained, capsys):
        checkpoint = workspace["out"] / "d.ckpt"
        code, _, err = run_cli(capsys, "predict", "--dataset", str(checkpoint), "--model", str(checkpoint))
        assert code == 1
        assert_one_error_line(err, "predict", f"{checkpoint}: not a buscast dataset cache")

    def test_dataset_given_as_the_model(self, workspace, trained, capsys):
        cache = workspace["dataset"]
        code, _, err = run_cli(capsys, "predict", "--dataset", str(cache), "--model", str(cache))
        assert code == 1
        assert_one_error_line(err, "predict", f"{cache}: not a buscast model checkpoint (kind None)")

    @pytest.mark.parametrize("edit, fragment", [
        (lambda payload: {**payload, "mask": payload["mask"].astype(np.uint8)}, "malformed parameter list"),
        (lambda payload: {**payload, "days": payload["days"] + 1}, "'ridership' is a 24 x 26 x 5 grid of int64"),
        (lambda payload: with_cache_cells(payload, "weather_mask", ((0, 0), 2)), "weather flag 2 for"),
    ], ids=["bad-base64", "days-disagree", "weather-flag-2"])
    def test_dataset_cache_with_bad_grid(self, workspace, capsys, tmp_path, edit, fragment):
        code, _, err = self._evaluate_edited_cache(workspace, capsys, tmp_path, edit)
        assert code == 1
        assert_one_error_line(err, "evaluate", fragment)


    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["evaluate", "--methods", "a", "--retrain", "--seeds", "0"], "--seeds"),
            (["evaluate", "--methods", "a", "--retrain", "--seeds", "-2"], "--seeds"),
            (["train", "--method", "a", "--max-epochs", "0"], "--max-epochs"),
            (["train", "--method", "a", "--clip-norm", "-1"], "--clip-norm"),
            (["train", "--method", "a", "--clip-norm", "0"], "--clip-norm"),
            (["train", "--method", "a", "--clip-norm", "nan"], "--clip-norm"),
            (["tune", "--method", "a", "--clip-norm", "inf"], "--clip-norm"),
            (["synth", "--n-stops", "0"], "--n-stops"),
            (["synth", "--services", "0"], "--services"),
            *(
                (argv + ["--seed", "-1"], "invalid value '-1' for --seed: must be at least 0")
                for argv in (["synth"], ["train", "--method", "a"], ["tune", "--method", "a"],
                             ["evaluate", "--methods", "a", "--retrain"])
            ),
            *(
                (["train", "--method", "a", "--learning-rate", rate],
                 f"invalid value '{rate}' for --learning-rate: must be a finite number above 0")
                for rate in ("nan", "inf", "0")
            ),
            (["evaluate", "--methods", "a", "--retrain", "--patience", "0"], "--patience: must be at least 1"),
            (["tune", "--method", "a", "--eta", "1"], "invalid value '1' for --eta: must be at least 2"),
            (["tune", "--method", "a", "--max-resource", "0"], "--max-resource: must be at least 1"),
            (["tune", "--method", "a", "--stop", "abc"], "invalid value 'abc' for --stop"),
            (["train", "--method", "a", "--batch-size", "abc"], "invalid value 'abc' for --batch-size"),
            (["synth", "--noise", "nan"], "invalid value 'nan' for --noise: must be a finite number"),
        ],
        ids=["seeds-0", "seeds-negative", "max-epochs-0", "clip-negative", "clip-0", "clip-nan", "clip-inf",
             "n-stops-0", "services-0", "seed-negative-synth", "seed-negative-train", "seed-negative-tune",
             "seed-negative-evaluate-retrain", "learning-rate-nan", "learning-rate-inf", "learning-rate-0",
             "patience-0", "eta-1", "max-resource-0", "stop-abc", "batch-size-abc", "synth-noise-nan"],
    )
    def test_out_of_range_flag(self, workspace, tiny_grid, capsys, tmp_path, argv, fragment):
        # Tiny settings come before the case's flags, so a missing range check fails fast.
        tiny = {"train": TINY_HP, "tune": [*TINY_HP, "--config", str(tiny_grid), "--max-resource", "1"],
                "evaluate": [*TINY_HP, "--seeds", "1"]}.get(argv[0], [])
        dataset = [] if argv[0] == "synth" else ["--dataset", str(workspace["dataset"])]
        code, _, err = run_cli(capsys, argv[0], *tiny, *argv[1:], *dataset, "--out", str(tmp_path))
        assert code == 1
        assert_one_error_line(err, argv[0], fragment)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("sizes", [["--lstm-nodes", "100000000"], ["--n-layers", "100000000", "--lstm-nodes", "4"]],
                             ids=["lstm-nodes", "n-layers"])
    def test_model_too_large_for_memory(self, workspace, capsys, tmp_path, sizes):
        """Under a capped address space, a model that does not fit ends in one line, numpy's
        _ArrayMemoryError (the width) and a bare MemoryError (the depth) alike."""
        with _capped():
            code, _, err = run_cli(
                capsys, "train", "--dataset", str(workspace["dataset"]), "--method", "a", *sizes,
                "--out", str(tmp_path),
            )
        assert code == 1
        assert_one_error_line(err, "train", "out of memory")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "line, key", [("eval_seeds = 0", "'eval_seeds'"), ("max_epochs = -1", "'max_epochs'"),
                      ("clip_norm = nan", "'clip_norm'"), ("n_stops = 0", "'n_stops'"),
                      ("seed = -1", "'seed': must be at least 0"),
                      ("learning_rat = 5", "'learning_rat'"),
                      ("learning_rate = inf", "'learning_rate': must be a finite number above 0"),
                      ("tune_batch_sizes = 16,0", "'tune_batch_sizes': must be at least 1"),
                      ("tune_learning_rates = 0.01,nan", "'tune_learning_rates': must be a finite number above 0")],
    )
    def test_out_of_range_config_key(self, workspace, capsys, tmp_path, line, key):
        # Tiny settings go in as the config's other keys, so a missing range check fails fast.
        tiny = {"batch_size": "64", "lstm_nodes": "4", "sequence_length": "13", "max_epochs": "1",
                "patience": "1", "eval_seeds": "1"}
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in tiny.items() if k != line.split("=")[0].strip())
                          + line + "\n")
        code, _, err = run_cli(
            capsys, "evaluate", "--dataset", str(workspace["dataset"]), "--methods", "a", "--retrain",
            "--config", str(config), "--out", str(tmp_path / "out"),
        )
        assert code == 1
        assert_one_error_line(err, "evaluate", "config key " + key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, what", [
        ("--dataset", "cannot read dataset cache"), ("--config", "cannot read config file"),
        ("--model", "no checkpoint file at"), ("--ridership", "cannot read ridership CSV"),
        ("--weather", "cannot read weather CSV"), ("--out", "cannot read checkpoint"),
    ])
    def test_directory_for_a_file_names_the_input(self, workspace, capsys, tmp_path, flag, what):
        directory = tmp_path / "d.ckpt"
        directory.mkdir()
        data, dataset = workspace["data"], str(workspace["dataset"])
        argv = {
            "--ridership": ["ingest", "--weather", str(data / "weather.csv")],
            "--weather": ["ingest", "--ridership", str(data / "ridership.csv")],
            "--out": ["evaluate", "--dataset", dataset, "--methods", "d"],  # reads <out>/d.ckpt
        }.get(flag, ["predict", "--dataset", dataset, "--model", str(workspace["out"] / "d.ckpt")])
        code, _, err = run_cli(capsys, *argv, flag, str(tmp_path if flag == "--out" else directory))
        assert code == 1
        assert_one_error_line(err, argv[0], f"{what} {directory}")

    def test_clip_norm_none_disables_clipping(self):
        args = build_parser().parse_args(["train", "--clip-norm", "none"])
        assert _merge(args).clip_norm is None


class TestCheckpointMatchesDataset:
    @pytest.fixture(scope="class")
    def three_stop_dataset(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("three")
        data, out = root / "data", root / "out"
        assert main(["synth", "--days", "24", "--n-stops", "3", "--seed", "4", "--out", str(data)]) == 0
        assert main(["ingest", "--ridership", str(data / "ridership.csv"), "--weather",
                     str(data / "weather.csv"), "--out", str(out)]) == 0
        return out / "dataset.json"

    @pytest.fixture(scope="class")
    def five_stop_checkpoint(self, workspace, tmp_path_factory):
        out = tmp_path_factory.mktemp("ckpt5")
        assert main(["train", "--dataset", str(workspace["dataset"]), "--method", "a",
                     "--out", str(out), *TINY_HP]) == 0
        return out / "a.ckpt"

    def test_predict_names_both_stop_counts(self, three_stop_dataset, five_stop_checkpoint, capsys):
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "predict", "--dataset", str(three_stop_dataset), "--model", str(five_stop_checkpoint),
        )
        assert code == 1
        assert_one_error_line(err, "predict", "checkpoint has n_stops 5, dataset has 3")

    def test_evaluate_names_both_stop_counts(self, three_stop_dataset, five_stop_checkpoint, capsys):
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "evaluate", "--dataset", str(three_stop_dataset), "--methods", "a",
            "--out", str(five_stop_checkpoint.parent),
        )
        assert code == 1
        assert_one_error_line(err, "evaluate", "checkpoint has n_stops 5, dataset has 3")


def test_statistical_only_evaluate_scores_the_same_targets_in_both_modes(capsys, tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    assert main(["synth", "--days", "30", "--seed", "6", "--out", str(data)]) == 0
    assert main(["ingest", "--ridership", str(data / "ridership.csv"),
                 "--weather", str(data / "weather.csv"), "--out", str(out)]) == 0
    reports = []
    for mode in ([], ["--retrain"]):
        report_dir = tmp_path / f"report{len(reports)}"
        code, _, _ = run_cli(
            capsys, "evaluate", "--dataset", str(out / "dataset.json"), "--methods", "statistical",
            "--sequence-length", "60", "--out", str(report_dir), *mode,
        )
        assert code == 0
        reports.append((report_dir / "rmse_report.json").read_bytes())
    assert reports[0] == reports[1]


class TestOneHarness:
    """Checkpoint and --retrain evaluation score every method identically for the same flags."""

    @pytest.fixture(scope="class")
    def checkpoints(self, workspace, tmp_path_factory):
        out = tmp_path_factory.mktemp("harness")
        for method in ("d", "perstop"):
            assert main(["train", "--dataset", str(workspace["dataset"]), "--method", method,
                         "--seed", "3", "--out", str(out), *TINY_HP]) == 0
        return out

    @pytest.mark.parametrize("stat_flags", [[], ["--stat-start", "2021-10-10"]], ids=["default", "stat-start"])
    def test_checkpoint_mode_equals_retrain(self, workspace, checkpoints, capsys, tmp_path, stat_flags):
        reports = []
        for mode in ([], ["--retrain", "--seeds", "1"]):
            out = checkpoints if not mode else tmp_path
            code, _, _ = run_cli(
                capsys, "evaluate", "--dataset", str(workspace["dataset"]),
                "--methods", "d,perstop,statistical", "--seed", "3", "--out", str(out),
                *TINY_HP, *stat_flags, *mode,
            )
            assert code == 0
            reports.append(json.loads((out / "rmse_report.json").read_text())["methods"])
        for method in ("d", "perstop", "statistical"):
            assert reports[0][method]["per_stop"] == reports[1][method]["per_stop"]


#: Each command's flags that have no config key; the others come from the fields of ``RunConfig``.
#: tune's --config is left out: it holds the tiny grid, and an empty one reads no file, so the
#: default grid would train.
HAND_WRITTEN_FLAGS = {
    "synth": ("--config", "--format"),
    "ingest": ("--config", "--format"),
    "correlate": ("--config", "--format", "--start", "--end"),
    "train": ("--config", "--format"),
    "tune": ("--format", "--stop"),
    "evaluate": ("--config", "--format", "--methods", "--retrain"),
    "predict": ("--config", "--format", "--model"),
}
#: Boundary and garbage values for any flag; no size among them is large.
FUZZ_VALUES = ("0", "-1", "1", "2", "", "abc", "nan", "inf", "1e400", "none", "2021-13-01")


@pytest.fixture(scope="module")
def fuzz_base(workspace, trained, tmp_path_factory):
    """A working directory holding a copy of the d checkpoint and a tiny tuning grid, and each
    command's base argv of tiny settings, which writes to that directory."""
    root = tmp_path_factory.mktemp("fuzz")
    shutil.copy(workspace["out"] / "d.ckpt", root / "d.ckpt")
    (root / "tiny.cfg").write_text(TINY_GRID)
    dataset = ["--dataset", str(workspace["dataset"])]
    fit = [*dataset, *TINY_HP, "--max-epochs", "1"]
    return root, {
        "synth": ["--days", "2"],
        "ingest": ["--ridership", str(workspace["data"] / "ridership.csv"),
                   "--weather", str(workspace["data"] / "weather.csv")],
        "correlate": dataset,
        "train": ["--method", "d", *fit],
        "tune": ["--method", "d", "--config", "tiny.cfg", "--max-resource", "1", *fit],
        "evaluate": ["--methods", "d,statistical", "--seeds", "1", *fit],
        "predict": [*dataset, "--model", "d.ckpt"],
    }


@pytest.fixture
def command_argv(fuzz_base, tmp_path, monkeypatch):
    """Each command's base argv, run from a fresh working directory holding the files it reads."""
    root, base = fuzz_base
    for name in ("d.ckpt", "tiny.cfg"):
        shutil.copy(root / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return {command: [command, "--out", ".", *argv] for command, argv in base.items()}


class TestOutput:
    """``main`` alone writes stdout, in a format the command declares in ``cli.FORMATS``."""

    @pytest.mark.parametrize("command", sorted(cli.FORMATS))
    def test_a_command_prints_nothing_itself(self, command_argv, capsys, command):
        args = build_parser().parse_args(command_argv[command])
        assert isinstance(args.fn(args, _merge(args)), cli.Output)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command, report", [("correlate", "correlation.csv"), ("tune", "tuning_d.csv"), ("evaluate", "rmse_report.csv")]
    )
    def test_csv_prints_the_report_the_command_wrote(self, command_argv, capsys, command, report):
        """stdout is text, so each CRLF the csv module ends a row with reads as LF there."""
        code, out, err = run_cli(capsys, *command_argv[command], "--format", "csv")
        assert (code, err) == (0, "")
        assert out.encode() == Path(report).read_bytes().replace(b"\r\n", b"\n")

    @pytest.mark.parametrize("command, fmt", [("synth", "csv"), ("ingest", "csv"), ("train", "csv"), ("predict", "text")])
    def test_a_format_the_command_cannot_render_is_a_usage_error(self, command_argv, capsys, tmp_path, command, fmt):
        argv = command_argv[command] + ["--out", "fresh", "--format", fmt]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "fresh").exists()

    def test_text_starts_with_the_config_line(self, command_argv, capsys):
        code, out, _ = run_cli(capsys, *command_argv["evaluate"])
        lines = out.splitlines()
        assert code == 0 and lines[0].startswith("config: {")
        assert lines[1].startswith("d: rmse=") and lines[-1] == "wrote rmse_report.json"


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_flags_end_in_a_clean_exit(fuzz_base, data):
    """Any flags with boundary or garbage values end in exit 0, 1 (one error line) or argparse's 2,
    never a traceback, and JSON output holds no NaN or Infinity."""
    root, base = fuzz_base
    command = data.draw(st.sampled_from(sorted(base)))
    knob_flags = [f.metadata["flag"] for f in fields(RunConfig) if command in f.metadata["commands"]]
    flags = data.draw(st.lists(st.sampled_from(knob_flags + list(HAND_WRITTEN_FLAGS[command])), max_size=3))
    fmt = data.draw(st.sampled_from(cli.FORMATS[command]))
    argv = [command, "--out", ".", *base[command], "--format", fmt]
    for flag in flags:
        argv += [flag] if flag == "--retrain" else [flag, data.draw(st.sampled_from(FUZZ_VALUES))]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, redirect_stdout(out), redirect_stderr(err):
        patch.chdir(root)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 1:
        assert_one_error_line(err.getvalue(), command)
    if code == 0 and fmt == "json":
        json.loads(out.getvalue(), parse_constant=reject_constant)
