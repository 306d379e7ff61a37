"""End-to-end tests of the command-line interface."""

import json

import pytest

from naqae.cli import main

BASE20_SCHEDULE = "20,24,29,33,38,42,46,51,55,60,64,68,73\n"


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

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--input", "/nonexistent.csv")
        assert code == 1 and "error" in err

    def test_table_needs_model_all(self, gaussian_csv, tmp_path, capsys):
        table_file = tmp_path / "t.csv"
        code, out, err = run_cli(
            capsys, "fit", "--input", str(gaussian_csv), "--model", "depol",
            "--table", str(table_file),
        )
        assert code == 1 and "--table needs --model all" in err
        assert out == "" and not table_file.exists()


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

    def test_malformed_json(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("{not json")
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code == 1 and "error" in err

    def test_thread_cap_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        config = {
            "device": {"theta": 0.6, "noise": {"kind": "depolarizing", "p_coh": 0.92}},
            "max_depth": 3, "n_shot_base": 25, "replications": 4, "seed": 2,
            "settings": ["noisy_b", "noiseless"],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = ["experiment", "--config", str(config_path)]
        monkeypatch.setenv("NAQAE_THREADS", "1")
        _, serial, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("NAQAE_THREADS", "4")
        _, threaded, _ = run_cli(capsys, *argv)
        assert serial == threaded

    def test_bad_thread_env(self, tmp_path, capsys, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"device": {"theta": 0.5}, "max_depth": 1, "n_shot_base": 5,
             "replications": 1, "seed": 0}
        ))
        monkeypatch.setenv("NAQAE_THREADS", "lots")
        code, _, err = run_cli(capsys, "experiment", "--config", str(config_path))
        assert code == 1 and "NAQAE_THREADS" in err


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
