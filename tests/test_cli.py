"""Command-line interface: round-trips, commands, and error reporting."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import opcausal
from opcausal import MultivariateSeries, cli, evaluate
from opcausal.cli import (
    main,
    parse_delays,
    read_series_csv,
    write_series_csv,
    write_truth_json,
)
from opcausal.errors import NonFiniteValue, OpcausalError
from opcausal.evaluate import SYSTEMS
from opcausal.simulate import GroundTruth, simulate_ar

NMM_CONFIG = Path(opcausal.__file__).parent / "configs" / "nmm_reproduction.json"


@pytest.mark.filterwarnings("error")
class TestSeriesCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path, rng):
        series = MultivariateSeries(
            data=rng.standard_normal((50, 3)), channel_names=["a", "b", "c"]
        )
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        np.testing.assert_array_equal(back.data, series.data)
        assert back.channel_names == ["a", "b", "c"]

    def test_written_bytes(self, tmp_path):
        data = np.array(
            [
                [0.1, -0.0, 1 / 3],
                [-2.5e-7, 1e300, 5e-324],
                [3.0, -12345678901234567.0, 2.0**0.5],
            ]
        )
        path = tmp_path / "series.csv"
        write_series_csv(
            MultivariateSeries(data=data, channel_names=["a", "b,c", 'd"e']), path
        )
        assert path.read_bytes() == (
            b'a,"b,c","d""e"\r\n'
            b"0.10000000000000001,-0,0.33333333333333331\r\n"
            b"-2.4999999999999999e-07,1.0000000000000001e+300,4.9406564584124654e-324\r\n"
            b"3,-12345678901234568,1.4142135623730951\r\n"
        )

    # np.savetxt, which the writer replaced, is the oracle; the writer formats
    # 64 rows per `%`, so the row counts sit on and around block edges
    @pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("n_cols", [1, 36])
    def test_equals_savetxt(self, tmp_path, rng, n_rows, n_cols):
        data = rng.standard_normal((n_rows, n_cols)) * 10.0 ** rng.integers(-300, 300, (n_rows, 1))
        special = [-0.0, 5e-324, 2.5e-310, 1e300, -1e300, 1e16, -12345678901234567.0,
                   2.0**70, 0.0, 1 / 3, 1.0]
        data.flat[::3] = np.resize(special, data.flat[::3].shape)
        series = MultivariateSeries(data=data)
        path, want = tmp_path / "series.csv", tmp_path / "savetxt.csv"
        write_series_csv(series, path)
        with open(want, "w", newline="") as fh:
            csv.writer(fh).writerow(series.channel_names)
            np.savetxt(fh, data, fmt="%.17g", delimiter=",", newline="\r\n")
        assert path.read_bytes() == want.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(OpcausalError, match="empty"):
            read_series_csv(path)

    def test_ragged_row_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(OpcausalError, match="row 3"):
            read_series_csv(path)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,oops\n")
        with pytest.raises(OpcausalError, match="column 2"):
            read_series_csv(path)

    def test_data_bytes_pinned(self, tmp_path, exp_probe):
        series, _ = simulate_ar(300, seed=5)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        assert back.data.dtype == np.float64 and back.data.flags.c_contiguous
        assert back.data.shape == (300, 9)
        assert hashlib.sha256(back.data.tobytes()).hexdigest() == (
            "fe8e1c0eceb9adfe35276fe4bdfe87733b0c970d2d787f6d3dd1310abe294133"
        ), exp_probe

    def test_equals_float_of_each_csv_cell(self, tmp_path, rng):
        # the per-cell float() reader that np.loadtxt replaced is the reference
        forms = ["{!r}", "{:.17g}", "{:.5e}", "{:.3E}", '"{!r}"', " {:.8f} ", "{:+.1f}"]
        values = rng.standard_normal((40, len(forms))) * 10.0 ** rng.integers(-30, 30, (40, 1))
        lines = [",".join(f"c{j}" for j in range(len(forms)))]
        lines += [",".join(f.format(v) for f, v in zip(forms, row)) for row in values.tolist()]
        path = tmp_path / "forms.csv"
        path.write_text("\r\n".join(lines) + "\r\n")
        with open(path, newline="") as fh:
            expected = [[float(cell) for cell in row] for row in list(csv.reader(fh))[1:]]
        back = read_series_csv(path).data
        assert back.tobytes() == np.array(expected).tobytes()

    def test_header_only_has_no_data_rows(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_bytes(b"a,b\r\n")
        with pytest.raises(OpcausalError) as exc:
            read_series_csv(path)
        assert str(exc.value) == f"{path}: no data rows"

    @pytest.mark.parametrize(
        "body", [b"a,b\n1,2\n\n3,4\n", b"a,b\r\n1,2\r\n\r\n3,4\r\n", b"a,b\n1,2\n\n"]
    )
    def test_blank_line_is_a_row_of_zero_fields(self, tmp_path, body):
        path = tmp_path / "blank.csv"
        path.write_bytes(body)
        with pytest.raises(OpcausalError) as exc:
            read_series_csv(path)
        assert str(exc.value) == f"{path}: row 3 has 0 fields, expected 2"

    def test_every_row_wider_than_the_header(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n1,2,3\n4,5,6\n")
        with pytest.raises(OpcausalError) as exc:
            read_series_csv(path)
        assert str(exc.value) == f"{path}: row 2 has 3 fields, expected 2"

    def test_quoted_header_and_cells(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_bytes(b'"a,\nb",c\r\n"2.5",-1e-3\r\n3,"4"\r\n')
        back = read_series_csv(path)
        assert back.channel_names == ["a,\nb", "c"]
        np.testing.assert_array_equal(back.data, [[2.5, -1e-3], [3.0, 4.0]])

    def test_rows_are_counted_as_records_after_a_multiline_header(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_bytes(b'"a\nb",c\n1,2\n3\n')
        with pytest.raises(OpcausalError) as exc:
            read_series_csv(path)
        assert str(exc.value) == f"{path}: row 3 has 1 fields, expected 2"

    @pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"])
    def test_cell_float_reads_but_numpy_does_not_is_named(self, tmp_path, cell):
        # float() accepts digit-group underscores and any Unicode decimal digit
        path = tmp_path / "digits.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n", encoding="utf-8")
        with pytest.raises(OpcausalError) as exc:
            read_series_csv(path)
        assert str(exc.value) == f"{path}: non-numeric value {cell!r} at row 3, column 2 (b)"

    def test_blank_line_inside_a_quoted_cell_is_part_of_the_cell(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_bytes(b'a,b\n"1\n\n",2\n3,4\n')
        np.testing.assert_array_equal(read_series_csv(path).data, [[1.0, 2.0], [3.0, 4.0]])

    def test_fault_the_rescan_cannot_name_is_still_an_error(self, tmp_path, monkeypatch):
        path = tmp_path / "series.csv"
        path.write_text("a,b\n1,2\n")

        def refuse(*args, **kwargs):
            raise ValueError("refused")

        monkeypatch.setattr(np, "loadtxt", refuse)
        with pytest.raises(OpcausalError) as exc:
            read_series_csv(path)
        assert str(exc.value) == f"{path}: unreadable data (refused)"

    def test_padded_and_exponent_cells(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("a,b\n 1.5 ,\t-2E+03\n.5,5.\n")
        np.testing.assert_array_equal(read_series_csv(path).data, [[1.5, -2000.0], [0.5, 5.0]])

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
    def test_non_finite_value_is_rejected(self, tmp_path, cell):
        path = tmp_path / "inf.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(NonFiniteValue, match="NaN or infinite"):
            read_series_csv(path)

    @pytest.mark.parametrize("cell", ["#4", "4#5"])
    def test_hash_cell_is_data_not_a_comment(self, tmp_path, cell):
        path = tmp_path / "hash.csv"
        path.write_text(f"a,b\n1,2\n3,{cell}\n")
        with pytest.raises(OpcausalError) as exc:
            read_series_csv(path)
        assert str(exc.value) == f"{path}: non-numeric value {cell!r} at row 3, column 2 (b)"


class TestTruthJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        truth = GroundTruth(edges=[(0, 1, 4), (2, 0, 2)], description="demo")
        path = tmp_path / "truth.json"
        write_truth_json(truth, path)
        with open(path) as fh:
            back = json.load(fh)
        assert [(e["source"], e["target"], e["delay_samples"]) for e in back["edges"]] == (
            truth.edges
        )
        assert back["description"] == "demo"


class TestParseDelays:
    def test_range(self):
        assert list(parse_delays("1-5", None, False)) == [1, 2, 3, 4, 5]

    def test_range_with_step(self):
        assert list(parse_delays("2-10:2", None, False)) == [2, 4, 6, 8, 10]

    def test_comma_list(self):
        assert list(parse_delays("1,3,7", None, False)) == [1, 3, 7]

    def test_milliseconds_need_sample_rate(self):
        with pytest.raises(OpcausalError):
            parse_delays("10-100", None, True)

    def test_milliseconds_converted(self):
        grid = parse_delays("10-100:10", 200.0, True)
        assert list(grid) == [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]

    def test_fractional_samples_rejected(self):
        with pytest.raises(OpcausalError):
            parse_delays("15-25:10", 100.0, True)

    @pytest.mark.parametrize(
        "spec", ["1-10:0", "1-10:-1", "1-10:nan", "1e400", "1-1e400", "inf-5", "nan,2"]
    )
    def test_zero_step_and_non_finite_bounds_rejected(self, spec):
        with pytest.raises(OpcausalError):
            parse_delays(spec, None, False)

    @pytest.mark.parametrize("spec", ["1-1e300", "1-5:1e-300", "1-1e9"])
    def test_range_of_too_many_delays_names_the_spec(self, spec):
        message = f"delay range {spec!r} lists more than 100000 delays"
        with pytest.raises(OpcausalError, match=f"^{re.escape(message)}$"):
            parse_delays(spec, None, False)

    # "1e-3" reads as the range "1e" to "3"
    @pytest.mark.parametrize("spec, item", [("1,,2", ""), ("1e-3", "1e")])
    def test_unreadable_number_names_the_spec(self, spec, item):
        message = f"delay specification {spec!r}: {item!r} is not a number"
        with pytest.raises(OpcausalError, match=f"^{re.escape(message)}$"):
            parse_delays(spec, None, False)


class TestCommands:
    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "simulate",
                "--system",
                "ar",
                "--T",
                "500",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert (tmp_path / "run.csv").exists()
        with open(tmp_path / "run.truth.json") as fh:
            truth = json.load(fh)
        assert len(truth["edges"]) == 9
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert "seed: 5" in capsys.readouterr().out

    def test_simulate_writes_what_simulate_realization_draws(self, tmp_path):
        out = tmp_path / "run"
        argv = ["simulate", "--system", "ar", "--T", "3000", "--seed", "5", "--noise-level", "0.2"]
        assert main([*argv, "--out", str(out)]) == 0
        series, truth, _ = evaluate.simulate_realization("ar", {"T": 3000, "NL": 0.2}, 5)
        # the CSV round-trips at 17 digits and ar decimates by 1: equal bit for bit
        assert read_series_csv(out.with_suffix(".csv")).data.tobytes() == series.data.tobytes()
        edges = json.loads(out.with_suffix(".truth.json").read_text())["edges"]
        assert [(e["source"], e["target"], e["delay_samples"]) for e in edges] == truth.edges

    def test_infer_on_simulated_series(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "4000", "--seed", "1", "--out", str(out)])
        rc = main(
            [
                "infer",
                "--input",
                str(tmp_path / "run.csv"),
                "--out",
                str(tmp_path / "net.json"),
                "--delta",
                "0.15",
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "net.json").read_text())
        assert payload["params"]["delta"] == 0.15
        pairs = {(e["source"], e["target"]) for e in payload["edges"]}
        assert (1, 0) in pairs

    def test_infer_with_a_sample_rate_writes_each_delay_in_ms(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "4000", "--seed", "1", "--out", str(out)])
        net = tmp_path / "net.json"
        argv = ["infer", "--input", str(out.with_suffix(".csv")), "--out", str(net)]
        assert main([*argv, "--delta", "0.15", "--sample-rate", "250"]) == 0
        edges = json.loads(net.read_text())["edges"]
        assert edges
        assert [e["delay_ms"] for e in edges] == [4.0 * e["delay_samples"] for e in edges]

    def test_infer_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0.5, "d": 1}))
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        main(
            [
                "infer",
                "--input",
                str(tmp_path / "run.csv"),
                "--out",
                str(tmp_path / "net.json"),
                "--config",
                str(cfg),
                "--delta",
                "0.2",
                "--delays",
                "1-3",
            ]
        )
        payload = json.loads((tmp_path / "net.json").read_text())
        assert payload["params"]["delta"] == 0.2  # flag wins
        assert payload["params"]["d"] == 1  # config file wins over default

    @pytest.mark.parametrize(
        "content,message",
        [({"lamda": 0.5}, "lamda"), ([1, 2], "JSON object"), ({"r_max": 3}, "r_max")],
    )
    def test_unknown_config_key_is_an_error(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        rc = main(
            [
                "infer",
                "--input",
                str(tmp_path / "run.csv"),
                "--out",
                str(tmp_path / "net.json"),
                "--config",
                str(cfg),
            ]
        )
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "net.json").exists()

    @pytest.mark.parametrize("spec", ["1-10:0", "1e400"])
    def test_bad_delays_exit_with_an_error_line(self, tmp_path, capsys, spec):
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        net = tmp_path / "net.json"
        argv = ["infer", "--input", str(out.with_suffix(".csv")), "--out", str(net)]
        rc = main([*argv, "--delays", spec])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not net.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"d": 2.5}, "embedding delay must be an integer >= 1, got 2.5"),
            ({"M": 3.9}, "embedding dimension must be an integer in [2, 8], got 3.9"),
            ({"M": True}, "embedding dimension must be an integer in [2, 8], got True"),
            ({"d": "100"}, "d must be a number, got '100'"),
        ],
    )
    @pytest.mark.parametrize("command", ["infer", "windowed"])
    def test_config_integer_that_is_not_whole_is_an_error(
        self, tmp_path, capsys, command, content, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        result = tmp_path / "result.csv"
        argv = [command, "--input", str(out.with_suffix(".csv")), "--out", str(result)]
        assert main([*argv, "--config", str(cfg), "--sample-rate", "100"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not result.exists()
        assert not result.with_suffix(".manifest.json").exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"delta": True}, "delta must be a number, got True"),
            ({"lambda": "0.9"}, "lambda must be a number, got '0.9'"),
            ({"delta": None}, "delta must be a number, got None"),
            ({"delta": float("nan")}, "delta must be non-negative, got nan"),
        ],
    )
    @pytest.mark.parametrize("command", ["infer", "windowed"])
    def test_config_number_that_is_not_a_number_is_an_error(
        self, tmp_path, capsys, command, content, message
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        result = tmp_path / "result.csv"
        argv = [command, "--input", str(out.with_suffix(".csv")), "--out", str(result)]
        assert main([*argv, "--config", str(cfg), "--sample-rate", "100"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not result.exists()
        assert not result.with_suffix(".manifest.json").exists()

    # a 500-sample series is too short for its conditioning states; only the config is tested
    @pytest.mark.filterwarnings(
        "ignore:only .* samples for .* joint conditioning states:RuntimeWarning"
    )
    def test_config_integer_delta_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": 0}))
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        net = tmp_path / "net.json"
        argv = ["infer", "--input", str(out.with_suffix(".csv")), "--out", str(net)]
        assert main([*argv, "--config", str(cfg), "--delays", "1-3"]) == 0
        assert json.loads(net.read_text())["params"]["delta"] == 0.0

    # a 500-sample series is too short for its conditioning states; only the config is tested
    @pytest.mark.filterwarnings(
        "ignore:only .* samples for .* joint conditioning states:RuntimeWarning"
    )
    def test_config_integer_written_as_a_whole_float_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"M": 3.0, "d": 1.0}))
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        net = tmp_path / "net.json"
        argv = ["infer", "--input", str(out.with_suffix(".csv")), "--out", str(net)]
        assert main([*argv, "--config", str(cfg), "--delays", "1-3"]) == 0
        params = json.loads(net.read_text())["params"]
        assert params["m"] == 3 and params["d"] == 1

    def test_windowed_writes_normalized_strengths(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "6000", "--seed", "1", "--out", str(out)])
        windows = tmp_path / "windows.csv"
        argv = ["windowed", "--input", str(out.with_suffix(".csv")), "--out", str(windows)]
        rc = main([*argv, "--sample-rate", "200", "--window-s", "20", "--delays", "2-10:2"])
        assert rc == 0
        lines = windows.read_text().splitlines()
        assert lines[0] == "window_mid_s,source,target,delay_ms,strength_normalized"
        rows = [line.split(",") for line in lines[1:]]
        assert rows
        delays = {float(r[3]) * 200 / 1000 for r in rows}
        assert delays <= {2.0, 4.0, 6.0, 8.0, 10.0}
        strengths = [float(r[4]) for r in rows]
        assert all(0.0 <= s <= 1.0 for s in strengths)
        assert max(strengths) == 1.0
        manifest = json.loads((tmp_path / "windows.manifest.json").read_text())
        assert set(manifest) == {
            "command", "input", "window_s", "overlap", "sample_rate", "M", "d",
            "lambda", "delta", "delays", "tool_version", "window_mid_s",
        }
        assert manifest["command"] == "windowed" and manifest["sample_rate"] == 200.0
        # 30 s at 200 Hz in 20 s windows at the default 50% overlap
        assert manifest["window_mid_s"] == [10.0, 20.0]

    def test_windowed_recording_shorter_than_a_window_is_an_error(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("inferred a window before checking the recording length")

        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        monkeypatch.setattr(evaluate, "infer_network", refuse)
        windows = tmp_path / "windows.csv"
        argv = ["windowed", "--input", str(out.with_suffix(".csv")), "--out", str(windows)]
        argv += ["--sample-rate", "100", "--window-s", "10", "--d", "1", "--delays", "1-3"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: recording of 500 samples is shorter than one window of 1000 samples\n"
        )
        assert not windows.exists()
        assert not windows.with_suffix(".manifest.json").exists()

    @pytest.mark.parametrize("window_s", ["inf", "nan"])
    def test_windowed_length_that_is_not_positive_and_finite_is_an_error(
        self, tmp_path, capsys, window_s
    ):
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        windows = tmp_path / "windows.csv"
        argv = ["windowed", "--input", str(out.with_suffix(".csv")), "--out", str(windows)]
        assert main([*argv, "--sample-rate", "100", "--window-s", window_s]) == 1
        assert capsys.readouterr().err == (
            "error: window_s must be a positive finite number of seconds, "
            f"got {float(window_s)}\n"
        )
        assert not windows.exists()

    @pytest.mark.parametrize("rate", ["0", "-100", "nan"])
    @pytest.mark.parametrize("command", ["infer", "windowed"])
    def test_sample_rate_that_is_not_positive_and_finite_is_an_error(
        self, tmp_path, capsys, command, rate
    ):
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        result = tmp_path / "result.csv"
        argv = [command, "--input", str(out.with_suffix(".csv")), "--out", str(result)]
        assert main([*argv, "--sample-rate", rate]) == 1
        err = capsys.readouterr().err
        assert err == f"error: sample rate must be a positive finite number, got {float(rate)}\n"
        assert not result.exists()
        assert not result.with_suffix(".manifest.json").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            (command, flag, value, message)
            for command in ("infer", "windowed")
            for flag, value, message in [
                ("--M", "9", "embedding dimension must be an integer in [2, 8], got 9"),
                ("--d", "0", "embedding delay must be an integer >= 1, got 0"),
                ("--delays", "5-1", "delay grid must be non-empty"),
                (
                    "--delays",
                    "1-3:0",
                    "delay range '1-3:0' needs finite bounds and a positive step",
                ),
                ("--lambda", "1.5", "lambda must be in (0, 1], got 1.5"),
                ("--delta", "-1", "delta must be non-negative, got -1.0"),
                ("--sample-rate", "-1", "sample rate must be a positive finite number, got -1.0"),
            ]
        ]
        + [
            (
                "windowed",
                "--window-s",
                "0",
                "window_s must be a positive finite number of seconds, got 0.0",
            ),
            ("windowed", "--overlap", "1", "overlap must be in [0, 1)"),
        ],
    )
    def test_bad_setting_fails_before_reading_the_csv(
        self, tmp_path, capsys, monkeypatch, command, flag, value, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("read the CSV before checking the settings")

        monkeypatch.setattr(cli, "read_series_csv", refuse)
        out = tmp_path / "result"
        argv = [command, "--input", str(tmp_path / "series.csv"), "--out", str(out)]
        assert main([*argv, "--sample-rate", "100", flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["infer", "windowed"])
    def test_zero_sample_rate_is_named_before_delays_in_ms(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("read the CSV before checking the sample rate")

        monkeypatch.setattr(cli, "read_series_csv", refuse)
        out = tmp_path / "result"
        argv = [command, "--input", str(tmp_path / "series.csv"), "--out", str(out)]
        assert main([*argv, "--sample-rate", "0", "--delays-in-ms", "--delays", "10-50:10"]) == 1
        err = capsys.readouterr().err
        assert err == "error: sample rate must be a positive finite number, got 0.0\n"
        assert list(tmp_path.iterdir()) == []

    def test_windowed_needs_a_sample_rate(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["simulate", "--system", "ar", "--T", "500", "--seed", "1", "--out", str(out)])
        capsys.readouterr()
        windows = tmp_path / "windows.csv"
        rc = main(["windowed", "--input", str(out.with_suffix(".csv")), "--out", str(windows)])
        assert rc == 1
        assert "sample rate" in capsys.readouterr().err
        assert not windows.exists()

    def test_windowed_without_sample_rate_fails_before_reading_the_csv(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(cli, "read_series_csv", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "windows.csv"
        argv = ["windowed", "--input", str(tmp_path / "series.csv"), "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: windowed analysis requires a sample rate\n"
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep",
                "--system",
                "ar",
                "--delta",
                "0.15",
                "--T",
                "4000",
                "--R",
                "1",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "system,T,delta,realization_count,"
            "tpr_mean,tpr_std,fpr_mean,fpr_std,f1_mean,f1_std"
        )
        assert lines[1].startswith("ar,4000,0.15,1,")
        cell = json.loads((tmp_path / "sweep.json").read_text())["cells"][0]
        assert list(cell["stats"]) == [
            "tpr_mean", "tpr_std", "fpr_mean", "fpr_std", "f1_mean", "f1_std"
        ]

    def test_sweep_cell_without_realizations_has_blank_stats(self, tmp_path):
        # T=50 is below simulate_ar's minimum, so every realization fails
        out = tmp_path / "sweep"
        argv = ["sweep", "--system", "ar", "--delta", "0.1", "--T", "50", "--R", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[1] == "ar,50,0.1,0,,,,,,"
        (cell,) = json.loads((tmp_path / "sweep.json").read_text())["cells"]
        assert cell["n_realizations"] == 0 and set(cell["stats"].values()) == {None}
        assert "need at least 100 samples" in cell["errors"][0]

    def test_sweep_axis_the_system_ignores_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--system", "ar", "--K", "1,5", "--R", "1", "--out", str(out)])
        assert rc == 1
        assert "reads no cell key K" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "system, flag", [("ar", "--c"), ("ar", "--K"), ("lorenz", "--K"), ("nmm", "--c")]
    )
    def test_simulate_flag_the_system_ignores_is_an_error(self, tmp_path, capsys, system, flag):
        out = tmp_path / "run"
        rc = main(["simulate", "--system", system, "--T", "500", flag, "1", "--out", str(out)])
        assert rc == 1
        assert f"reads no cell key {flag[2:]}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("system", ["ar", "lorenz"])
    def test_nmm_config_for_another_system_is_an_error(self, tmp_path, capsys, command, system):
        argv = [command, "--system", system, "--T", "300", "--nmm-config", str(NMM_CONFIG)]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: system '{system}' reads no neural-mass config\n"
        assert list(tmp_path.iterdir()) == []

    # 300 samples decimate to 60, too few for a reliable estimate
    @pytest.mark.filterwarnings("ignore:only .* samples:RuntimeWarning")
    def test_sweep_manifest_records_the_nmm_config(self, tmp_path):
        out = tmp_path / "sweep"
        argv = ["sweep", "--system", "nmm", "--T", "300", "--R", "1", "--out", str(out)]
        assert main([*argv, "--nmm-config", str(NMM_CONFIG)]) == 0
        manifest = json.loads(out.with_suffix(".manifest.json").read_text())
        assert manifest["nmm_config"] == str(NMM_CONFIG)

    def test_sweep_bad_nmm_config_fails_before_any_realization(self, tmp_path, capsys):
        # the config is checked on load, so no realization runs and nothing is written
        config = json.loads(NMM_CONFIG.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**config, "noise_var": -1.0}))
        argv = ["sweep", "--system", "nmm", "--T", "300", "--R", "2", "--nmm-config", str(bad)]
        assert main([*argv, "--out", str(tmp_path / "sweep")]) == 1
        assert capsys.readouterr().err == "error: noise_var must be non-negative, got -1.0\n"
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_bad_nmm_config_is_named_before_the_system_it_is_for(
        self, tmp_path, capsys, command
    ):
        # both commands load the file before they pair it with the system
        config = json.loads(NMM_CONFIG.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**config, "noise_var": -1.0}))
        argv = [command, "--system", "ar", "--T", "300", "--nmm-config", str(bad)]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: noise_var must be non-negative, got -1.0\n"
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("system, T", [("lorenz", "0"), ("nmm", "0"), ("lorenz", "-5")])
    def test_simulate_fewer_than_one_sample_is_an_error(self, tmp_path, capsys, system, T):
        argv = ["simulate", "--system", system, "--T", T, "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        message = f"need at least 1 sample, and T must be an integer, got {T}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_simulate_negative_noise_level_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("simulated before checking the noise level")

        monkeypatch.setitem(SYSTEMS, "ar", replace(SYSTEMS["ar"], simulate=refuse))
        argv = ["simulate", "--system", "ar", "--T", "300", "--noise-level", "-1"]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: noise level must be non-negative, got -1.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("K", ["200", "-5", "nan"])
    def test_simulate_bad_density_names_K(self, tmp_path, capsys, K):
        argv = ["simulate", "--system", "nmm", "--T", "300", "--K", K]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 1
        message = f"connection density K must be in [0, 100] percent, got {float(K)}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m", ["3", "4"])
    def test_infer_on_one_channel_is_an_error(self, tmp_path, capsys, rng, m):
        path = tmp_path / "one.csv"
        write_series_csv(MultivariateSeries(data=rng.standard_normal((200, 1))), path)
        out = tmp_path / "net.json"
        assert main(["infer", "--input", str(path), "--out", str(out), "--M", m, "--d", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "error: pairwise entropies need at least two channels, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, recorded",
        [
            (["--system", "ar"], {"T": 300}),
            (["--system", "lorenz"], {"T": 300, "c": 0.6}),
            (["--system", "lorenz", "--c", "0"], {"T": 300, "c": 0.0}),
            (["--system", "nmm", "--K", "10"], {"T": 300, "K": 10.0}),
        ],
    )
    def test_simulate_manifest_records_the_keys_the_system_reads(self, tmp_path, argv, recorded):
        out = tmp_path / "run"
        assert main(["simulate", *argv, "--T", "300", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert {k: manifest[k] for k in ("T", "c", "K") if k in manifest} == recorded

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--delta", "-0.1", "delta must be non-negative, got -0.1"),
            ("--delta", "nan", "delta must be non-negative, got nan"),
            ("--lambda", "1.5", "lambda must be in (0, 1], got 1.5"),
            ("--NL", "-1", "noise level must be non-negative, got -1.0"),
            ("--T", "0", "need at least 1 sample, and T must be an integer, got 0"),
            ("--K", "-5", "connection density K must be in [0, 100] percent, got -5.0"),
            ("--K", "nan", "connection density K must be in [0, 100] percent, got nan"),
            ("--T", "1e4", "--T item '1e4' is not an integer"),
            ("--T", "300,2.5", "--T item '2.5' is not an integer"),
            ("--delta", "abc", "--delta item 'abc' is not a number"),
            ("--delta", "0.1,", "--delta item '' is not a number"),
            ("--lambda", "0.9;0.99", "--lambda item '0.9;0.99' is not a number"),
            ("--NL", "0,,0.2", "--NL item '' is not a number"),
        ],
    )
    def test_sweep_bad_setting_fails_before_any_realization(
        self, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "sweep"
        system = "nmm" if flag == "--K" else "ar"  # only nmm reads K
        argv = ["sweep", "--system", system, "--T", "300", "--R", "2", flag, value]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_sweep_threads_below_one_is_an_error(self, tmp_path, capsys, threads):
        out = tmp_path / "sweep"
        argv = ["sweep", "--system", "ar", "--delta", "0.1", "--T", "200", "--R", "1"]
        assert main([*argv, "--threads", threads, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: max_workers (--threads) must be an integer >= 1, got {threads}\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_in_two_processes_writes_the_serial_csv(self, tmp_path):
        # --threads 2 is the one path that imports the process pool
        argv = ["sweep", "--system", "ar", "--T", "300", "--delta", "0.1,0.15", "--R", "2"]
        for threads in ("1", "2"):
            assert main([*argv, "--threads", threads, "--out", str(tmp_path / threads)]) == 0
        assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()

    def test_simulate_negative_seed_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulated before checking the seed")

        monkeypatch.setitem(SYSTEMS, "ar", replace(SYSTEMS["ar"], simulate=refuse))
        argv = ["simulate", "--system", "ar", "--T", "300", "--seed", "-1"]
        assert main([*argv, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_accepts_a_negative_seed(self, tmp_path):
        # derive_seed masks the base seed, so every realization seed is valid
        out = tmp_path / "sweep"
        argv = ["sweep", "--system", "ar", "--T", "300", "--delta", "0.1", "--R", "1"]
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 0
        (cell,) = json.loads(out.with_suffix(".json").read_text())["cells"]
        assert cell["n_realizations"] == 1 and cell["seeds"][0] >= 0

    def test_sweep_needs_an_axis(self, tmp_path, capsys):
        rc = main(["sweep", "--system", "ar", "--out", str(tmp_path / "s")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        rc = main(
            [
                "infer",
                "--input",
                str(tmp_path / "nope.csv"),
                "--out",
                str(tmp_path / "net.json"),
            ]
        )
        assert rc == 1


def test_cli_import_leaves_the_process_pool_unloaded():
    # every command but `sweep --threads N` with N > 1 starts without the
    # pool stack (multiprocessing, socket, subprocess, selectors), and every
    # command that derives no seed without hashlib and its OpenSSL library
    code = (
        "import sys, opcausal.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing', 'hashlib')"
        " if m in sys.modules])"
    )
    paths = [str(Path(opcausal.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"
