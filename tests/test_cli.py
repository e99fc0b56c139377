"""Command-line surface: exit codes, output channels, manifests."""

import contextlib
import io
import json
import math
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_spectrum_d1_exit_1(self, capsys):
        # S^0 has only modes 0 and 1, and both are neutral
        code = dispatch(["--quiet", "spectrum", "--d", "1", "--q", "4", "--modes", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "d >= 2" in captured.err

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

    def test_strict_json_when_the_norm_overflows(self, capsys, tmp_path):
        # ||1_E^||_4^4 of [0, 1e200] is 16/3 (5e199)^3, beyond the float range
        path = tmp_path / "huge.json"
        path.write_text(set_to_json(IntervalSet([(0.0, 1e200)])))
        code = dispatch(["--quiet", "phi", "--set", str(path), "--q", "4"])

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert code == 0
        assert doc["norm_q_pow_q"] is None
        assert doc["phi"] == pytest.approx((2 / 3) ** 0.25, abs=1e-7)


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
        ["kernel", "--kind", "K", "--d", "1", "--q", "4"],
        ["gamma", "--d", "2", "--q", "4"],
        ["first-variation", "--d", "1", "--q", "4"],
        ["spectrum", "--d", "2", "--q", "4", "--modes", "4"],
        ["phi", "--set", "SET", "--q", "4", "--oracle"],
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
        ('{"kind": "intervals", "intervals": [[0, 1e400]]}', "must be finite"),
        ('{"kind": "intervals", "intervals": [[0, NaN]]}', "must be finite"),
        ('{"kind": "intervals", "intervals": [[NaN, 1]]}', "must be finite"),
        ('{"kind": "star", "fourier": {"c0": NaN}}', "must be finite"),
        ('{"kind": "star", "fourier": {"c0": 1e300}}', "finite measure"),
        ('{"kind": "star", "fourier": {"c0": 1, "a": [[0.1]]}}', "1-D coefficient lists"),
        ('{"kind": "star", "fourier": {"c0": 1}, "center": [0]}', "center of length 2"),
    ])
    def test_malformed_set_document(self, capsys, tmp_path, text, message):
        path = tmp_path / "set.json"
        path.write_text(text)
        code = dispatch(["phi", "--set", str(path), "--q", "4"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["gamma", "--d", "1", "--q", "inf"], "finite exponent"),
        (["gamma", "--d", "2", "--q", "inf"], "finite exponent"),
        (["phi", "--set", "SET", "--q", "4"], "diam/measure"),
    ])
    def test_domain_error_exit_1(self, capsys, tmp_path, argv, message):
        # the set is [0, 1] and [1e9, 1e9 + 1]: refused for its mesh size, not run
        path = tmp_path / "far.json"
        path.write_text(set_to_json(IntervalSet([(0.0, 1.0), (1e9, 1e9 + 1.0)])))
        start = time.perf_counter()
        code = dispatch([str(path) if a == "SET" else a for a in argv])
        err = capsys.readouterr().err
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_tol_accepted_where_used(self, capsys, ball_file):
        code = dispatch(["--quiet", "--tol", "1e-9", "phi", "--set", ball_file, "--q", "4"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["phi"] == pytest.approx((2 / 3) ** 0.25,
                                                                          abs=1e-7)


# --- fuzzing: any command line and any set document keeps the exit contract

# finite numbers stay in [-10, 10]: a finite interval of length 1e200 is
# valid input, but Phi of it runs for minutes (the panel width is 0.5/diam)
NUMBERS = st.one_of(st.integers(-10, 10), st.floats(-10, 10),
                    st.sampled_from([math.nan, math.inf, -math.inf]))
NUMBER_LISTS = st.lists(NUMBERS, max_size=3)
SET_DOCS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("intervals"),
                           "intervals": st.lists(NUMBER_LISTS, max_size=3)}),
    st.fixed_dictionaries(
        {"kind": st.just("star"),
         "fourier": st.fixed_dictionaries(
             {"c0": NUMBERS},
             optional={"a": NUMBER_LISTS | NUMBERS | st.lists(NUMBER_LISTS, max_size=2),
                       "b": NUMBER_LISTS})},
        optional={"center": NUMBER_LISTS,
                  "affine": st.fixed_dictionaries({"matrix": st.lists(NUMBER_LISTS, max_size=3),
                                                   "translation": NUMBER_LISTS})}),
    st.none() | NUMBERS | NUMBER_LISTS | st.text(max_size=4)
    | st.dictionaries(st.sampled_from(["kind", "dimension", "intervals", "fourier"]),
                      NUMBERS | st.text(max_size=4) | NUMBER_LISTS, max_size=3),
)
SET_TEXTS = SET_DOCS.map(json.dumps) | st.text(max_size=12)

# each command with its required and its optional flags; a draw gives values
# to the required ones and adds up to two optional ones
FLAGS = {
    "kernel": (["--kind", "--d", "--q"], ["--r-max", "--samples"]),
    "gamma": (["--d", "--q"], []),
    "first-variation": (["--d", "--q"], ["--grid-n", "--r-max"]),
    "phi": (["--set", "--q"], ["--oracle"]),
    "expand": (["--set", "--q"], []),
    "expand-sweep": (["--family", "--q", "--eps"], []),
    "spectrum": (["--d", "--q", "--modes"], []),
    "balance": (["--set"], ["--max-iter", "--bal-tol"]),
    "dist": (["--set"], []),
    "search": (["--d", "--q"], ["--family", "--restarts", "--budget"]),
    "q-sweep": (["--d", "--q-list"], ["--family", "--restarts", "--budget"]),
    "verify": ([], ["--criteria"]),
    "frobnicate": ([], []),
}
# defaults that would run for seconds to minutes, put ahead of the drawn flags
# (the last occurrence of a flag wins, and drawn counts are at most 10)
CAPS = {
    "kernel": ["--samples", "8"],
    "first-variation": ["--grid-n", "8"],
    "search": ["--restarts", "1", "--budget", "2"],
    "q-sweep": ["--restarts", "1", "--budget", "2"],
    "verify": ["--criteria", "99"],
}
COUNTS = st.integers(-10, 10).map(str)
REALS = NUMBERS.map(str)
# expansions build kernel profiles for seconds per exponent, and criteria
# other than 6 run for seconds to minutes: those flags draw from safe values
VALUES = {
    "--tol": REALS, "--seed": COUNTS, "--threads": COUNTS,
    "--set": st.just("SET"),
    "--kind": st.sampled_from(["K", "L"]),
    "--d": st.integers(0, 4).map(str),
    "--q": REALS, "--r-max": REALS, "--bal-tol": REALS,
    "--samples": COUNTS, "--grid-n": COUNTS, "--modes": COUNTS, "--max-iter": COUNTS,
    "--restarts": COUNTS, "--budget": COUNTS,
    "--family": st.sampled_from(["sliver", "star", "star:3", "star:x", "intervals",
                                 "intervals:2", "disc"]),
    "--eps": st.lists(NUMBERS, min_size=1, max_size=3).map(lambda v: ",".join(map(str, v))),
    "--q-list": st.lists(NUMBERS, min_size=1, max_size=2).map(
        lambda v: ",".join(map(str, v))),
    "--criteria": st.sampled_from(["6", "99", "0", "a", "1,x", "-3"]),
}
EXPAND_Q = st.sampled_from(["x", "nan", "inf", "-1", "2"])
# what a garbled argument turns into: a bad value, an unknown flag, or a
# flag that takes the next argument as its value
TOKENS = REALS | st.sampled_from(["K", "x", "", "1,x", "--bogus", "--q"])


@st.composite
def command_lines(draw):
    argv = []
    for flag in draw(st.lists(st.sampled_from(["--quiet", "--tol", "--seed", "--threads"]),
                              max_size=2, unique=True)):
        argv += [flag] if flag == "--quiet" else [flag, draw(VALUES[flag])]
    command = draw(st.sampled_from(sorted(FLAGS)))
    required, optional = FLAGS[command]
    argv += [command] + CAPS.get(command, [])
    extra = draw(st.lists(st.sampled_from(optional), max_size=2)) if optional else []
    for flag in required + extra:
        if flag == "--oracle":
            argv.append(flag)
        else:
            expand_q = command.startswith("expand") and flag == "--q"
            argv += [flag, draw(EXPAND_Q if expand_q else VALUES[flag])]
    # one argument garbled or dropped; not for verify, whose criteria
    # would then run in full
    if command != "verify" and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(0, len(argv) - 1))
        argv[k:k + 1] = draw(st.lists(TOKENS, max_size=1))
    return argv


# a NaN or an overflow reaching an engine fails the test, not only a bad exit
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=500)
@given(argv=command_lines(), set_text=SET_TEXTS)
def test_fuzz_exit_contract(argv, set_text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "set.json")
        with open(path, "w") as fh:
            fh.write(set_text)
        argv = [path if a == "SET" else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    assert code in (0, 1, 2, 3), (argv, set_text)
    assert "Traceback" not in err.getvalue(), (argv, set_text)
