"""Command-line surface: exit codes, output channels, manifests."""

import json

import numpy as np
import pytest

from felab.cli import dispatch
from felab.set_model import IntervalSet, set_to_json


@pytest.fixture
def ball_file(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(set_to_json(IntervalSet([(-1.0, 1.0)])))
    return str(path)


class TestExitCodes:
    def test_spectrum_ok(self, capsys):
        code = dispatch(["--quiet", "spectrum", "--d", "2", "--q", "4", "--modes", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("n,ell_hat,combined,margin")
        assert "gamma," in out.strip().split("\n")[-1]

    def test_threshold_exit_1(self, capsys):
        code = dispatch(["--quiet", "kernel", "--kind", "L", "--d", "2", "--q", "3.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "3.33" in err  # names the q_d threshold

    def test_unknown_subcommand_exit_3(self, capsys):
        assert dispatch(["frobnicate"]) == 3

    def test_missing_subcommand_exit_3(self):
        assert dispatch([]) == 3


class TestGamma:
    def test_prints_value(self, capsys):
        code = dispatch(["--quiet", "gamma", "--d", "2", "--q", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "4.000000" in out
        assert "±" in out


class TestPhi:
    def test_json_output(self, capsys, ball_file):
        code = dispatch(["--quiet", "phi", "--set", ball_file, "--q", "4"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"] == pytest.approx((2 / 3) ** 0.25, abs=1e-7)

    def test_oracle_flag(self, capsys, ball_file):
        code = dispatch(["--quiet", "phi", "--set", ball_file, "--q", "4", "--oracle"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["method"] == "convolution_oracle"
        assert doc["norm_q_pow_q"] == pytest.approx(16 / 3, abs=1e-10)


class TestStdoutCleanliness:
    def test_diagnostics_on_stderr(self, capsys, tmp_path):
        code = dispatch(["--out-dir", str(tmp_path / "run"), "expand-sweep",
                         "--family", "sliver", "--q", "4", "--eps", "0.05,0.025"])
        captured = capsys.readouterr()
        assert code == 0
        # stdout parses as pure CSV
        lines = captured.out.strip().split("\n")
        assert lines[0].startswith("eps,direct,base")
        for ln in lines[1:]:
            [float(t) for t in ln.split(",")]
        assert "expanding" in captured.err
        # the expansion runs at its own tight tolerances
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["quadrature"]["abs_tol"] == 1e-12

    def test_quiet_silences(self, capsys, ball_file):
        dispatch(["--quiet", "dist", "--set", ball_file])
        assert capsys.readouterr().err == ""


class TestManifest:
    def test_written_last_with_outputs(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code = dispatch(["--quiet", "--out-dir", str(out_dir), "--seed", "9",
                         "search", "--d", "1", "--q", "4", "--family", "intervals:2",
                         "--restarts", "4", "--budget", "8"])
        capsys.readouterr()
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert any(p.endswith("search.json") for p in manifest["outputs"])
        assert any(p.endswith("trajectory.csv") for p in manifest["outputs"])
        assert manifest["wall_time_s"] > 0
        # search runs at probe-grade tolerances, not the CLI default
        assert manifest["quadrature"]["abs_tol"] == 3e-7
        assert manifest["quadrature"]["rel_tol"] == 1e-8
        for p in manifest["outputs"]:
            assert (tmp_path / "run" / p.split("/")[-1]).exists()


class TestBalanceDistRoundtrip:
    def test_balance_translated_ball(self, capsys, tmp_path):
        path = tmp_path / "shifted.json"
        path.write_text(set_to_json(IntervalSet([(-0.8, 1.2)])))
        code = dispatch(["--quiet", "balance", "--set", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["converged"]
        assert doc["map"]["translation"][0] == pytest.approx(-0.2, abs=1e-10)

    def test_dist_two_intervals(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(set_to_json(IntervalSet([(0.0, 1.0), (2.0, 3.0)])))
        code = dispatch(["--quiet", "dist", "--set", str(path)])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["distance"] == pytest.approx(1.0, abs=1e-12)


class TestVerifySubset:
    def test_single_fast_criterion(self, capsys):
        code = dispatch(["verify", "--criteria", "6"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "criterion,name,passed,seconds"
        assert lines[1].startswith("6,")
        assert ",true," in lines[1]
        assert "criterion  6" in captured.err or "criterion 6" in captured.err


class TestMalformedInput:
    """Bad input exits 3 with a usage message, never through a traceback."""

    @staticmethod
    def assert_usage_error(code, capsys):
        err = capsys.readouterr().err
        assert code == 3
        assert "usage error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("criteria", ["99", "a", "1,x"])
    def test_bad_criteria(self, capsys, criteria):
        self.assert_usage_error(dispatch(["verify", "--criteria", criteria]), capsys)

    def test_bad_thread_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("FELAB_THREADS", "abc")
        code = dispatch(["--quiet", "search", "--d", "1", "--q", "4",
                         "--family", "intervals:2", "--restarts", "4", "--budget", "8"])
        self.assert_usage_error(code, capsys)

    @pytest.mark.parametrize("argv", [
        ["search", "--d", "1", "--q", "4"],
        ["q-sweep", "--d", "1", "--q-list", "4"],
        ["expand", "--set", "SET", "--q", "4"],
        ["expand-sweep", "--family", "sliver", "--q", "4", "--eps", "0.05"],
        ["verify", "--criteria", "6"],
    ])
    def test_tol_refused_where_ignored(self, capsys, ball_file, argv):
        argv = [ball_file if a == "SET" else a for a in argv]
        code = dispatch(["--tol", "1e-3"] + argv)
        self.assert_usage_error(code, capsys)

    @pytest.mark.parametrize("argv", [
        ["search", "--d", "1", "--q", "4", "--family", "intervals:x"],
        ["q-sweep", "--d", "2", "--q-list", "4", "--family", "disc"],
        ["expand-sweep", "--family", "star:x", "--q", "4", "--eps", "0.05"],
    ])
    def test_bad_family(self, capsys, argv):
        code = dispatch(argv)
        err = capsys.readouterr().err
        assert code == 3
        assert "usage error: unknown family" in err
        assert "Traceback" not in err

    def test_missing_set_file(self, capsys, tmp_path):
        code = dispatch(["phi", "--set", str(tmp_path / "missing.json"), "--q", "4"])
        err = capsys.readouterr().err
        assert code == 3
        assert "usage error: cannot read set file" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ("intervals: [-1, 1]", "not JSON"),
        ("[[-1, 1]]", "must be a JSON object"),
        ('{"kind": "star"}', "lacks the key 'fourier'"),
        ('{"kind": "intervals", "intervals": [[-1]]}', "malformed set document"),
    ])
    def test_malformed_set_document(self, capsys, tmp_path, text, message):
        path = tmp_path / "set.json"
        path.write_text(text)
        code = dispatch(["phi", "--set", str(path), "--q", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_tol_accepted_where_used(self, capsys, ball_file):
        code = dispatch(["--quiet", "--tol", "1e-9", "phi", "--set", ball_file, "--q", "4"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["phi"] == pytest.approx((2 / 3) ** 0.25,
                                                                          abs=1e-7)
