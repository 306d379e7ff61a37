"""End-to-end tests of the command-line interface."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import naqae
from conftest import child_env
from naqae import cli, device
from naqae.cli import build_parser, main
from naqae.fitting import MODEL_KINDS, MODEL_SPELLINGS, FrequencyPoint, fit_model

BASE20_SCHEDULE = "20,24,29,33,38,42,46,51,55,60,64,68,73\n"
# A 400-digit integer: without the signed 64-bit rule it ended in an OverflowError traceback.
HUGE = "1" + "0" * 399
OUT_OF_RANGE = "signed 64-bit range"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchedule:
    def test_base20_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", "--depths", "0..12", "--base-shots", "20", "--k-sigma", "0.055"
        )
        assert code == 0
        assert out == BASE20_SCHEDULE

    def test_rounding_up(self, capsys):
        code, out, _ = run_cli(
            capsys, "schedule", "--depths", "0..3", "--base-shots", "20",
            "--k-sigma", "0.055", "--rounding", "up",
        )
        assert code == 0 and out == "20,25,29,34\n"

    def test_bad_depth_range(self, capsys):
        code, _, err = run_cli(
            capsys, "schedule", "--depths", "5..1", "--base-shots", "20", "--k-sigma", "0.1"
        )
        assert code == 1 and "error" in err

    @pytest.mark.parametrize(
        "depths", ["1_0..1_2", " 0..2", "0..+2", "٣..5", "0..2,3", " 0,+1", "0,1_0"]
    )
    def test_depths_must_be_plain_integers(self, capsys, depths):
        # int() would take each of these; the shot CSV's rule does not
        code, out, err = run_cli(
            capsys, "schedule", "--depths", depths, "--base-shots", "20", "--k-sigma", "0.1"
        )
        assert code == 1 and out == "" and "expected plain integers" in err

    @pytest.mark.parametrize("base_shots", ["1_0", " 20", "+5", "٣"])
    def test_base_shots_must_be_plain_integers(self, capsys, base_shots):
        code, out, err = run_cli(
            capsys, "schedule", "--depths", "0..2", "--base-shots", base_shots, "--k-sigma", "0.1"
        )
        assert code == 1 and out == "" and "expected plain integers" in err

    def test_oversized_depth(self, capsys):
        code, out, err = run_cli(
            capsys, "schedule", "--depths", HUGE, "--base-shots", "20", "--k-sigma", "0.1"
        )
        assert code == 1 and out == "" and OUT_OF_RANGE in err

    @pytest.mark.parametrize("depths", ["0..9223372036854775806", "5..1048581"])
    def test_depth_range_capped(self, capsys, depths):
        # Unbounded, the first range ended in a MemoryError traceback.
        code, out, err = run_cli(
            capsys, "schedule", "--depths", depths, "--base-shots", "2", "--k-sigma", "0.1"
        )
        assert code == 1 and out == ""
        assert err == f"naqae: error: bad depth range {depths!r}: more than 1048576 depths\n"

    def test_depth_range_cap_is_inclusive(self):
        assert len(cli._parse_depths("5..1048580")) == cli._MAX_DEPTHS == 2**20

    @pytest.mark.parametrize(
        "base_shots, k_sigma, depth",
        [("9223372036854775807", "0.1", 0), ("2", "1e308", 1), (str(2**62), "0.1", 3)],
    )
    def test_shot_counts_past_int64(self, capsys, base_shots, k_sigma, depth):
        # The first printed 9223372036854775808, a count simulate --shots rejects;
        # the second, an infinite count, cannot be converted to an integer.
        code, out, err = run_cli(
            capsys, "schedule", "--depths", "0..3", "--base-shots", base_shots,
            "--k-sigma", k_sigma,
        )
        assert code == 1 and out == ""
        message = f"naqae: error: shot count at depth {depth} must be finite and < 2**63"
        assert err.startswith(message)

    def test_depth_zero_at_a_huge_rate(self, capsys):
        # Depth 0 keeps the base count however large k_sigma; it once exited 1 on a NaN count.
        assert run_cli(capsys, "schedule", "--depths", "0", "--base-shots", "5",
                       "--k-sigma", "1e308") == (0, "5\n", "")

    @pytest.mark.parametrize("k_sigma", ["-0.1", "nan", "inf"])
    def test_bad_k_sigma(self, capsys, k_sigma):
        code, _, err = run_cli(
            capsys, "schedule", "--depths", "0..3", "--base-shots", "20", "--k-sigma", k_sigma
        )
        assert code == 1 and "k_sigma must be finite and >= 0" in err

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        code, stdout, _ = run_cli(
            capsys, "schedule", "--depths", "0..2", "--base-shots", "20",
            "--k-sigma", "0.055", "--out", str(out),
        )
        assert code == 0 and stdout == "20,24,29\n"
        doc = json.loads(out.read_text())
        assert doc["entries"][2] == {"m": 2, "n_shots": 29}


class TestSimulate:
    def test_deterministic_stdout(self, capsys):
        argv = ["simulate", "--preset", "A1", "--noise", "none",
                "--depths", "0..5", "--shots", "10", "--seed", "1"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("m,shots,ones\n")

    def test_certainty_rows(self, capsys):
        _, out, _ = run_cli(
            capsys, "simulate", "--preset", "A1", "--noise", "none",
            "--depths", "0..5", "--shots", "10", "--seed", "1",
        )
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows[1] == ["1", "10", "10"] and rows[4] == ["4", "10", "10"]

    def test_theta_flag(self, tmp_path, capsys):
        out_file = tmp_path / "shots.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--theta", "0.5", "--noise", "depol:0.9",
            "--depths", "0,2,4", "--shots", "50,50,50", "--seed", "3",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text().startswith("m,shots,ones\n")

    def test_shots_past_the_draw_limit(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--depths", "0",
            "--shots", "9223372036854775807",
        )
        assert (code, out) == (1, "")
        assert err == ("naqae: error: a batch may draw at most 2**40 shots over its "
                       "depths and seeds, got 9223372036854775807\n")

    def test_overflowing_noise_is_refused_before_drawing(self, capsys, monkeypatch):
        # k_mu * m overflows at depth 2, so p(1) there is NaN: refused, naming the depth.
        drawn = []
        monkeypatch.setattr(device, "_count_ones", lambda *args: drawn.append(args) or 0)
        code, out, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--noise", "gaussian:1e308,0.1",
            "--depths", "0..3", "--shots", "1000",
        )
        assert (code, out, drawn) == (1, "", [])
        assert err == "naqae: error: p(1) at depth 2 is nan: the noise parameters overflow\n"

    def test_preset_and_theta_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--preset", "A1", "--theta", "0.5",
            "--depths", "0..2", "--shots", "10",
        )
        assert code == 1 and "error" in err

    def test_bad_noise_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--noise", "thermal:0.1",
            "--depths", "0..2", "--shots", "10",
        )
        assert code == 1 and "error" in err

    def test_repeated_depths(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--depths", "2,2,2", "--shots", "100",
            "--seed", "3",
        )
        assert code == 1 and out == "" and "repeated: [2]" in err

    @pytest.mark.parametrize(
        "depths, shots",
        [("1_0..1_2", "10"), (" 0,+1", "10"), ("0,1", "1_0"), ("0,1", "٣"), ("0,1", "10, 20")],
    )
    def test_integers_must_be_plain(self, capsys, depths, shots):
        code, out, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--depths", depths, "--shots", shots,
            "--seed", "1",
        )
        assert code == 1 and out == "" and "expected plain integers" in err

    @pytest.mark.parametrize("seed", ["1_0", " 20", "+5", "٣"])
    def test_seed_must_be_plain_integers(self, capsys, seed):
        code, out, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--depths", "0..2", "--shots", "10",
            "--seed", seed,
        )
        assert code == 1 and out == "" and "expected plain integers" in err

    @pytest.mark.parametrize(
        "depths", [HUGE, "0.." + HUGE, str(2**63)], ids=["list", "range", "2**63"]
    )
    def test_oversized_depth(self, capsys, depths):
        code, out, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--depths", depths, "--shots", "10"
        )
        assert code == 1 and out == "" and OUT_OF_RANGE in err

    def test_depth_range_capped(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--depths", "0..9223372036854775806",
            "--shots", "10",
        )
        assert code == 1 and out == ""
        assert err == (
            "naqae: error: bad depth range '0..9223372036854775806': more than 1048576 depths\n"
        )

    def test_negative_seed(self, capsys):
        argv = ["simulate", "--theta", "0.5", "--depths", "0..5", "--shots", "10"]
        code, out, _ = run_cli(capsys, *argv, "--seed", "-1")
        assert code == 0 and out.startswith("m,shots,ones\n")
        assert run_cli(capsys, *argv, "--seed", "1")[1] != out

    def test_shot_list_length_mismatch(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--theta", "0.5", "--depths", "0..3", "--shots", "10,20"
        )
        assert code == 1 and "error" in err


@pytest.fixture
def gaussian_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code = main(
        ["simulate", "--preset", "A1", "--noise", "gaussian:0.05,0.02",
         "--depths", "0..30", "--shots", "8192", "--seed", "42", "--out", str(path)]
    )
    capsys.readouterr()
    assert code == 0
    return path


class TestFit:
    def test_all_models_with_drift(self, gaussian_csv, tmp_path, capsys):
        out_file = tmp_path / "fits.json"
        table_file = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys, "fit", "--input", str(gaussian_csv), "--model", "all",
            "--out", str(out_file), "--table", str(table_file),
        )
        assert code == 0
        fits = json.loads(out_file.read_text())["fits"]
        assert [f["model"] for f in fits] == ["gaussian", "gaussian_zero_mean", "depolarizing"]
        table = table_file.read_text().splitlines()
        assert table[0] == "label,gaussian,gaussian_zero_mean,depolarizing,best"
        assert table[1].endswith(",gaussian")  # drifting device: full model wins

    def test_single_model_stdout(self, gaussian_csv, capsys):
        code, out, _ = run_cli(capsys, "fit", "--input", str(gaussian_csv), "--model", "zero-mean")
        assert code == 0
        fits = json.loads(out)["fits"]
        assert len(fits) == 1 and fits[0]["model"] == "gaussian_zero_mean"
        assert "k_sigma" in fits[0]

    def test_model_spellings(self):
        # every family has exactly one --model spelling; the choices are those and "all"
        assert sorted(MODEL_SPELLINGS.values()) == sorted(MODEL_KINDS)
        (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
        (model,) = [a for a in commands.choices["fit"]._actions if a.dest == "model"]
        assert list(model.choices) == [*MODEL_SPELLINGS, "all"]

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--input", "/nonexistent.csv")
        assert code == 1 and "error" in err

    def test_oversized_depth(self, tmp_path, capsys):
        csv = tmp_path / "huge.csv"
        csv.write_text(f"m,shots,ones\n0,10,5\n{HUGE},10,5\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "fit", "--input", str(csv), "--model", "depol")
        assert code == 1 and out == ""
        assert err.startswith("naqae: error:") and OUT_OF_RANGE in err

    def test_table_needs_model_all(self, gaussian_csv, tmp_path, capsys):
        table_file = tmp_path / "t.csv"
        code, out, err = run_cli(
            capsys, "fit", "--input", str(gaussian_csv), "--model", "depol",
            "--table", str(table_file),
        )
        assert code == 1 and "--table needs --model all" in err
        assert out == "" and not table_file.exists()

    def test_out_and_table_on_one_file_fit_nothing(self, gaussian_csv, tmp_path, capsys,
                                                    monkeypatch):
        # The table overwrote the JSON, and the run exited 0.
        fitted = []
        monkeypatch.setattr(cli, "_fit_kinds", lambda *args: fitted.append(args) or [])
        monkeypatch.chdir(tmp_path)
        table = tmp_path / "f.json"
        code, out, err = run_cli(capsys, "fit", "--input", str(gaussian_csv),
                                 "--out", "f.json", "--table", str(table))
        assert (code, out, fitted, table.exists()) == (1, "", [], False)
        assert err == f"naqae: error: --out f.json and --table {table} are the same file\n"


class TestMalformedShotCsv:
    @pytest.mark.parametrize("argv", [["fit", "--model", "all"], ["fit", "--model", "gaussian"],
                                      ["estimate"]], ids=["fit_all", "fit_gaussian", "estimate"])
    @pytest.mark.parametrize("text, message", [
        ("m,shots,ones\n", "no tally rows"),
        ("m,shots,ones\n0,10," + "1" * 131_073 + "\n",
         "line 2: field larger than field limit (131072)"),
    ], ids=["header_only", "long_cell"])
    def test_refused_without_output(self, tmp_path, capsys, argv, text, message):
        # Each ended with empty results (exit 0, or exit 1 after printing
        # '{"fits": []}'), or in a csv.Error traceback.
        csv = tmp_path / "shots.csv"
        csv.write_text(text, encoding="utf-8")
        out_file = tmp_path / "out.json"
        for out in ([], ["--out", str(out_file)]):
            code, stdout, err = run_cli(capsys, argv[0], "--input", str(csv), *argv[1:], *out)
            assert (code, stdout, out_file.exists()) == (1, "", False)
            assert err == f"naqae: error: {csv}: {message}\n"

    @pytest.mark.parametrize("argv", [["fit", "--model", "all"], ["estimate"]],
                             ids=["fit_all", "estimate"])
    def test_byte_that_is_not_utf8(self, tmp_path, capsys, argv):
        # Printed the decoder's message alone, which names neither file nor line.
        csv = tmp_path / "shots.csv"
        csv.write_bytes(b"m,shots,ones,label\n0,10,2,\xff\n")
        out_file = tmp_path / "out.json"
        code, stdout, err = run_cli(capsys, argv[0], "--input", str(csv), *argv[1:],
                                    "--out", str(out_file))
        assert (code, stdout, out_file.exists()) == (1, "", False)
        assert err == f"naqae: error: {csv}: line 2: not UTF-8 (invalid start byte, byte 0xff)\n"


class TestEstimate:
    def test_naive(self, gaussian_csv, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--input", str(gaussian_csv))
        assert code == 0
        est = json.loads(out)["estimates"][0]
        assert est["method"] == "naive"
        assert 0 <= est["a_hat"] <= 1

    def test_corrected_requires_p_coh(self, gaussian_csv, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--input", str(gaussian_csv), "--method", "corrected"
        )
        assert code == 1 and "p-coh" in err

    @pytest.mark.parametrize("method", [[], ["--method", "naive"]])
    def test_p_coh_needs_corrected(self, gaussian_csv, capsys, method):
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(gaussian_csv), *method, "--p-coh", "0.5"
        )
        assert code == 1 and "--p-coh needs --method corrected" in err and out == ""

    def test_corrected(self, gaussian_csv, tmp_path, capsys):
        out_file = tmp_path / "est.json"
        code, _, _ = run_cli(
            capsys, "estimate", "--input", str(gaussian_csv), "--method", "corrected",
            "--p-coh", "0.96", "--out", str(out_file),
        )
        assert code == 0
        est = json.loads(out_file.read_text())["estimates"][0]
        assert est["method"] == "corrected"

    def test_p_coh_does_not_leak_between_calls(self, gaussian_csv, capsys):
        # main keeps one parser for the process; a flag given to one call
        # must not reach the next
        naive = run_cli(capsys, "estimate", "--input", str(gaussian_csv))
        corrected = run_cli(
            capsys, "estimate", "--input", str(gaussian_csv), "--method", "corrected",
            "--p-coh", "0.9",
        )
        assert corrected[0] == 0
        assert json.loads(corrected[1])["estimates"][0]["method"] == "corrected"
        code, out, err = run_cli(capsys, "estimate", "--input", str(gaussian_csv))
        assert (code, out, err) == naive
        assert code == 0 and json.loads(out)["estimates"][0]["method"] == "naive"

    @pytest.mark.parametrize(
        "row",
        [f"0,{HUGE},5", f"{HUGE},10,5", f"0,{2**63 - 1},1\n0,{2**63 - 1},1"],
        ids=["shots", "m", "merged_shots"],
    )
    def test_oversized_integer(self, tmp_path, capsys, row):
        csv = tmp_path / "huge.csv"
        csv.write_text(f"m,shots,ones\n{row}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "estimate", "--input", str(csv))
        assert code == 1 and out == ""
        assert err.startswith("naqae: error:") and OUT_OF_RANGE in err

    def test_corrected_underflow_is_an_error(self, tmp_path, capsys):
        # 0.5 ** 4096 underflows to 0.0: the correction cannot be inverted
        csv = tmp_path / "deep.csv"
        csv.write_text("m,shots,ones\n0,10,5\n4096,10,5\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "estimate", "--input", str(csv), "--method", "corrected", "--p-coh", "0.5"
        )
        assert code == 1 and out == ""
        assert "depth 4096" in err and "0.5**4096" in err and "Traceback" not in err


class TestExperiment:
    def test_runs_config(self, tmp_path, capsys):
        config = {
            "device": {"preset": "A1", "noise": {"kind": "gaussian", "k_mu": 0.0, "k_sigma": 0.055}},
            "max_depth": 4,
            "n_shot_base": 20,
            "replications": 3,
            "seed": 11,
            "settings": ["noisy_a", "noise_aware"],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out_file = tmp_path / "curves.csv"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(config_path), "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "setting,x_kind,x,rmse"
        # two x-axis kinds per setting, five prefixes each
        assert len(lines) == 1 + 2 * 2 * 5

    def test_invalid_config(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"device": {"theta": 0.3}}))
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code == 1 and "missing field" in err

    def test_shot_count_past_int64(self, tmp_path, capsys):
        config = {"device": {"theta": 0.3}, "max_depth": 3, "n_shot_base": 2**62,
                  "k_sigma_assumed": 0.1, "settings": ["noise_aware"], "replications": 1,
                  "seed": 0}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code == 1 and out == ""
        assert "shot count at depth 3 must be finite and < 2**63" in err

    def test_replications_past_the_draw_limit(self, tmp_path, capsys):
        # 2**40 shots at depth 0 are within the limit once, not twice.
        config = {"device": {"theta": 0.3}, "max_depth": 0, "n_shot_base": 2**40,
                  "k_sigma_assumed": 0.1, "settings": ["noise_aware"], "replications": 2,
                  "seed": 0}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code == 1 and out == ""
        assert f"at most 2**40 shots over its depths and seeds, got {2**41}" in err

    def test_config_past_the_search_limit_draws_nothing(self, capsys, monkeypatch):
        # Depths 0..1023 have 1024 * 1025 zeros, past the theta search's 2**20:
        # the config is refused as it is read, before any setting is sampled.
        drawn = []
        monkeypatch.setattr(device, "_count_ones", lambda *args: drawn.append(args))
        config = GOLDEN / "inputs" / "config_past_search_limit.json"
        code, out, err = run_cli(capsys, "experiment", "--config", str(config))
        assert (code, out, drawn) == (1, "", [])
        assert err == ("naqae: error: depths with 1049600 zeros of sin and cos in [0, pi/2] are "
                       "past the theta search's limit of 1048576 (sum of 2m + 2 over the depths)\n")

    @pytest.mark.parametrize("fields, message", [
        # noisy_b's correction: exp(-400)**2 underflows to 0
        ({"max_depth": 3, "k_sigma_assumed": 200},
         "correction is singular at depth 2: p_coh_tilde**m = 1.9151695967140057e-174**2 "
         "underflows to 0"),
        ({"max_depth": 3, "k_sigma_assumed": 1e17}, "correction is singular at p_coh_tilde == 0"),
        # noise_aware's count at depth 1 is past 2**63; noisy_a draws 2**31 shots
        ({"max_depth": 1, "n_shot_base": 2**30, "k_sigma_assumed": 2**31, "replications": 1,
          "settings": ["noisy_a", "noise_aware"]},
         "shot count at depth 1 must be finite and < 2**63, got 9.223372037928518e+18"),
        # noise_aware draws 6 * 2**38 shots; the flat settings draw 2 * 2**38
        ({"max_depth": 1, "n_shot_base": 2**38, "k_sigma_assumed": 1.0, "replications": 1},
         f"a batch may draw at most 2**40 shots over its depths and seeds, got {6 * 2**38}"),
        # noisy_a's p(1) is NaN at depth 2, though the noiseless setting is listed first
        ({"device": {"theta": 0.5, "noise": {"kind": "gaussian", "k_mu": 1e308, "k_sigma": 0.1}},
          "settings": ["noiseless", "noisy_a"], "max_depth": 3},
         "p(1) at depth 2 is nan: the noise parameters overflow"),
    ], ids=["singular_depth", "singular_rate", "shots_past_int64", "draws_past_cap", "nan_p1"])
    def test_setting_faults_are_refused_before_any_draw(
        self, tmp_path, capsys, monkeypatch, fields, message
    ):
        # Each config used to sample its earlier settings before the run failed.
        drawn = []
        monkeypatch.setattr(device, "_count_ones", lambda *args: drawn.append(args) or 0)
        config = {"device": {"preset": "A1", "noise": {"kind": "gaussian", "k_mu": 0.0,
                                                       "k_sigma": 0.055}},
                  "n_shot_base": 20, "replications": 50, "seed": 0, **fields}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert (code, out, drawn) == (1, "", [])
        assert err == f"naqae: error: {message}\n"

    @pytest.mark.parametrize("text, key", [
        ('{"device": {"theta": 0.3}, "max_depth": 2, "n_shot_base": 5, "replications": 1, '
         '"seed": 1, "seed": 2}', "seed"),
        ('{"device": {"preset": "A1", "preset": "A2"}, "max_depth": 2, "n_shot_base": 5, '
         '"replications": 1, "seed": 1}', "preset"),
    ], ids=["top_level", "nested"])
    def test_repeated_key_is_refused(self, tmp_path, capsys, text, key):
        # json kept the last value: seed 2 ran, and so did preset A2.
        config_path = tmp_path / "config.json"
        config_path.write_text(text, encoding="utf-8")
        out_file = tmp_path / "curves.csv"
        code, out, err = run_cli(capsys, "experiment", "--config", str(config_path),
                                 "--out", str(out_file))
        assert (code, out, out_file.exists()) == (1, "", False)
        assert err == f"naqae: error: {config_path}: repeated key {key!r}\n"

    def test_malformed_json(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code == 1 and "error" in err

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json raises RecursionError, not a ValueError, past its nesting depth
        config_path = tmp_path / "config.json"
        config_path.write_text("[" * 100_000 + "]" * 100_000)
        out_file = tmp_path / "curves.csv"
        code, out, err = run_cli(capsys, "experiment", "--config", str(config_path),
                                 "--out", str(out_file))
        assert (code, out, out_file.exists()) == (1, "", False)
        assert err == f"naqae: error: {config_path}: JSON nested too deeply to read\n"

    @pytest.mark.parametrize("text, message", [
        ("{not json", "line 1 column 2: Expecting property name enclosed in double quotes"),
        ('{\n  "max_depth": 4\n  "seed": 1\n}', "line 3 column 3: Expecting ',' delimiter"),
        (b'{"seed": "\xff"}', "line 1: not UTF-8 (invalid start byte, byte 0xff)"),
    ], ids=["not_json", "missing_comma", "not_utf8"])
    def test_unreadable_config_names_its_path(self, tmp_path, capsys, text, message):
        # Printed the decoder's message alone, which names no file.
        config_path = tmp_path / "config.json"
        if isinstance(text, bytes):
            config_path.write_bytes(text)
        else:
            config_path.write_text(text, encoding="utf-8")
        out_file = tmp_path / "curves.csv"
        code, out, err = run_cli(capsys, "experiment", "--config", str(config_path),
                                 "--out", str(out_file))
        assert (code, out, out_file.exists()) == (1, "", False)
        assert err == f"naqae: error: {config_path}: {message}\n"


class TestParser:
    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()

    def test_cold_import_leaves_scipy_unloaded(self):
        # The package does not use SciPy: neither importing it and its CLI nor
        # a fit may load any scipy module, and the fit in the fresh process
        # must equal this one's.
        points = [(m, 0.5 - 0.45 * math.exp(-0.1 * m) * math.cos(2.2 * (2 * m + 1)))
                  for m in range(9)]
        child = (
            "import json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import naqae, naqae.cli\n"
            "cold = scipy_modules()\n"
            "points = [naqae.FrequencyPoint(m, p) for m, p in json.loads(sys.argv[1])]\n"
            "fit = naqae.fit_model(points, 'gaussian_zero_mean')\n"
            "print(json.dumps([naqae.__file__, cold, scipy_modules(), fit.theta_hat, fit.sse]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, json.dumps(points)],
            env=child_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        path, cold, after_fit, theta_hat, sse = json.loads(proc.stdout)
        assert Path(path).resolve() == Path(naqae.__file__).resolve()
        assert cold == [] and after_fit == []
        fit = fit_model([FrequencyPoint(m, p) for m, p in points], "gaussian_zero_mean")
        assert (theta_hat, sse) == (fit.theta_hat, fit.sse)

    def test_console_script_entry_point_is_cli_main(self):
        # pyproject.toml's [project.scripts] entry must name, by import, the
        # main that these tests run in-process.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        entry = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["naqae"]
        module_name, _, attribute = entry.partition(":")
        target = importlib.import_module(module_name)
        for name in attribute.split("."):
            target = getattr(target, name)
        assert target is main


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["calibrate"])
        assert info.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["schedule", "--depths", "0..3", "--base-shots", "20",
                  "--k-sigma", "0.1", "--bogus"])
        assert info.value.code == 2
