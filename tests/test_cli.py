import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qclt.chain import dump_document, make_chain
from qclt.group_walk import build_group_walk
from qclt.cli import main
from tests.test_startup import child_env


@pytest.fixture
def chain_file(tmp_path):
    chain = make_chain(["0", "1"], [[0.75, 0.25], [0.25, 0.75]])
    path = tmp_path / "chain.json"
    path.write_text(dump_document(chain, {"f": [1.0, -1.0]}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_report(capsys, chain_file):
    code, out, _ = run(capsys, "analyze", chain_file, "--observable", "f")
    assert code == 0
    assert "sigma_sq = 3" in out
    assert "reversible = true" in out
    assert "atom_0 = 0.5 1" in out
    assert "seed" not in out  # analyze has no randomness to echo


def test_analyze_reruns_byte_identical(capsys, chain_file):
    _, first, _ = run(capsys, "analyze", chain_file, "--observable", "f")
    _, second, _ = run(capsys, "analyze", chain_file, "--observable", "f")
    assert first == second


def test_analyze_unknown_observable_exits_2(capsys, chain_file):
    code, _, err = run(capsys, "analyze", chain_file, "--observable", "nope")
    assert code == 2
    assert "error:" in err


def test_analyze_nan_observable_exits_2(capsys, tmp_path):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"Q": [[0.75, 0.25], [0.25, 0.75]],
                                "observables": {"f": [1.0, float("nan")]}}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "[spectral]" not in out


def test_unknown_flag_exits_2(chain_file):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", chain_file, "--bogus"])
    assert exc.value.code == 2


def test_approx_table(capsys, chain_file):
    code, out, _ = run(capsys, "approx", chain_file, "--observable", "f",
                       "--n", "1,2,4", "--start", "0")
    assert code == 0
    lines = out.splitlines()
    header = lines[lines.index("[diagnostics]") + 1]
    assert header == "n,x,cond_mean,residual_msq,residual_over_n,asdl_sup"
    rows = lines[lines.index("[diagnostics]") + 2:]
    assert len(rows) == 3
    assert rows[0].startswith("1,0,0.5,")


def test_approx_rows_follow_the_given_horizons(capsys, chain_file):
    # unsorted and repeated horizons print as given, every start within each
    code, out, _ = run(capsys, "approx", chain_file, "--observable", "f", "--n", "4,1,4")
    assert code == 0
    lines = out.splitlines()
    rows = lines[lines.index("[diagnostics]") + 2:]
    assert [row.split(",")[:2] for row in rows] == [
        ["4", "0"], ["4", "1"], ["1", "0"], ["1", "1"], ["4", "0"], ["4", "1"]]
    assert rows[4:] == rows[:2]


def test_simulate_reruns_byte_identical(capsys, chain_file):
    args = ("simulate", chain_file, "--observable", "f", "--start", "0",
            "--n", "128", "--paths", "500", "--seed", "7", "--threads", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "seed = 7" in first


def test_simulate_threads_do_not_change_numbers(capsys, chain_file):
    outs = {}
    for threads in ("1", "3"):
        _, text, _ = run(capsys, "simulate", chain_file, "--observable", "f",
                         "--start", "0", "--n", "128", "--paths", "500",
                         "--seed", "7", "--threads", threads)
        outs[threads] = text[text.index("[report]"):]
    assert outs["1"] == outs["3"]


def test_group_document_pipes_into_analyze(capsys, tmp_path):
    out_path = tmp_path / "z5.json"
    code, out, _ = run(capsys, "group", "--moduli", "5", "--step", "1:0.5,4:0.5",
                       "--harmonic", "1", "--output", str(out_path))
    assert code == 0
    assert "SR_sum = 1.4472135955" in out
    doc = json.loads(out_path.read_text())
    assert len(doc["Q"]) == 5
    code, out, _ = run(capsys, "analyze", str(out_path))
    assert code == 0
    assert "reversible = true" in out


def test_group_single_modulus_steps_are_one_tuples(capsys):
    # --step 1:0.5 reaches build_group_walk as the element (1,), which it
    # reduces as it does the int 1
    code, out, _ = run(capsys, "group", "--moduli", "5", "--step", "1:0.5,4:0.5")
    assert code == 0
    assert out == dump_document(build_group_walk([5], {1: 0.5, 4: 0.5}).chain, {}) + "\n"


def test_group_document_to_stdout(capsys):
    code, out, _ = run(capsys, "group", "--moduli", "3", "--step", "1:1.0")
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["pi"], [1 / 3] * 3)


def test_torus_series_schema(capsys):
    code, out, _ = run(capsys, "torus", "--alpha", "golden", "--cutoff", "100")
    assert code == 0
    lines = out.splitlines()
    assert "n,dist,one_minus_nuhat,ratio,partial_sum" in lines
    assert any(line.startswith("1,0.38196601125") for line in lines)
    assert "8/13" in lines[lines.index("[convergents]") + 1]


def test_torus_rational_alpha_exits_2(capsys):
    code, _, err = run(capsys, "torus", "--alpha", "0.5", "--cutoff", "100")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("freq", [2 ** 60, 10 ** 380])
def test_torus_unresolved_frequency_exits_2(capsys, tmp_path, freq):
    # 2^60 * alpha is an integer in float64 and 10^380 has no float at all
    path = tmp_path / "coeffs.json"
    path.write_text(json.dumps({str(freq): 0.5}))
    code, out, err = run(capsys, "torus", "--coeffs", str(path), "--cutoff", str(freq))
    _assert_clean_exit_2(code, out, err)
    assert "integer in float64" in err


def test_verify_quick_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert "result = 12/12 passed" in out


# -- malformed input exits 2 before anything is printed ------------------------

def _assert_clean_exit_2(code, out, err):
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("text", ['{"Q": [[1, 0], [0', "[1, 2]",
                                  '{"Q": [[0.5, 0.5], [1]]}',
                                  '{"Q": [["a", "b"], ["c", "d"]]}',
                                  '{"Q": [[0.5, 0.5], [0.5, 0.5]], "states": 3}',
                                  '{"Q": [[0.5, 0.5], [0.5, 0.5]], "observables": [1]}',
                                  '{"Q": 5}',
                                  # strings and booleans are not numbers
                                  '{"Q": [["0.75", "0.25"], ["0.25", "0.75"]], '
                                  '"observables": {"f": [1, -1]}}',
                                  '{"Q": [[0.75, 0.25], [0.25, 0.75]], "pi": ["0.5", 0.5], '
                                  '"observables": {"f": [1, -1]}}',
                                  '{"Q": [[0.75, 0.25], [0.25, 0.75]], '
                                  '"observables": {"f": [true, false]}}'])
def test_analyze_malformed_document_exits_2(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _assert_clean_exit_2(*run(capsys, "analyze", str(path)))


def test_analyze_missing_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
    _assert_clean_exit_2(code, out, err)
    assert "neither an existing file nor JSON text" in err


def test_analyze_duplicate_labels_exit_2(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"states": ["a", "a"], "Q": [[0.75, 0.25], [0.25, 0.75]],
                                "observables": {"f": [1.0, -1.0]}}))
    code, out, err = run(capsys, "analyze", str(path))
    _assert_clean_exit_2(code, out, err)
    assert "'a'" in err


def test_analyze_non_reversible_exits_2_before_output(capsys, tmp_path):
    # the 3-cycle rotation has uniform pi but is not reversible
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"Q": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
                                "observables": {"f": [1, -1, 0]}}))
    code, out, err = run(capsys, "analyze", str(path))
    _assert_clean_exit_2(code, out, err)
    assert "reversible" in err


@pytest.mark.parametrize("text", ['{"1": [0.5', '{"x": 1}', "[[1]]", "[3]",
                                  # frequencies are JSON integers; a value is a
                                  # number, [re] or [re, im]
                                  '{"1": "05"}', '{"1": true}', '{"1": [0.5, 0.1, 99]}',
                                  "[[1.7, 0.5]]", "[[true, 0.5]]", '{"01": 0.5}'])
def test_torus_malformed_coeffs_exit_2(capsys, tmp_path, text):
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    _assert_clean_exit_2(*run(capsys, "torus", "--coeffs", str(path), "--cutoff", "100"))


@pytest.mark.parametrize("argv, text", [
    (["analyze"], '{"Q": [[0.75, 0.25], [0.25, 0.75]], "observables": {"f": [HUGE, -1]}}'),
    (["torus", "--cutoff", "100", "--coeffs"], '{"1": HUGE}'),
], ids=["analyze-observable", "torus-coeff"])
def test_integer_beyond_float_range_exits_2(capsys, tmp_path, argv, text):
    # json reads 10^400 as an int, which no float holds
    path = tmp_path / "input.json"
    path.write_text(text.replace("HUGE", "1" + "0" * 400))
    _assert_clean_exit_2(*run(capsys, *argv, str(path)))


def test_torus_missing_coeffs_exit_2(capsys, tmp_path):
    # a missing file is read as JSON text, as a chain document is
    code, out, err = run(capsys, "torus", "--coeffs", str(tmp_path / "absent.json"))
    _assert_clean_exit_2(code, out, err)
    assert "neither an existing file nor JSON text" in err


def test_torus_coeffs_as_json_text_match_a_file(capsys, tmp_path):
    text = '{"1": 0.5, "3": [0.25, -0.125]}'
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    argv = ["--cutoff", "100", "--paths", "200", "--n", "16"]
    code, from_file, _ = run(capsys, "torus", "--coeffs", str(path), *argv)
    assert code == 0
    code, from_text, _ = run(capsys, "torus", "--coeffs", text, *argv)
    assert code == 0
    # the config echoes the --coeffs argument itself; every other line agrees
    assert from_text.replace(text, str(path)) == from_file
    assert "[series]" in from_file and "[report]" in from_file


def test_simulate_bad_dump_path_fails_before_the_run(capsys, chain_file, tmp_path,
                                                     monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the simulation ran before the dump path was checked")
    monkeypatch.setattr("qclt.kernels.run_chain_paths", no_run)
    dump = tmp_path / "no" / "such" / "dir" / "x.csv"
    code, out, err = run(capsys, "simulate", chain_file, "--observable", "f",
                         "--start", "0", "--paths", "500", "--dump", str(dump))
    _assert_clean_exit_2(code, out, err)
    assert "cannot write" in err


def test_group_bad_output_path_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "group", "--moduli", "5", "--step", "1:0.5,4:0.5",
                         "--output", str(tmp_path / "no" / "z5.json"))
    _assert_clean_exit_2(code, out, err)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_bad_threads_exit_2(capsys, chain_file, threads):
    code, out, err = run(capsys, "simulate", chain_file, "--observable", "f", "--start", "0",
                         "--paths", "200", "--n", "8", "--threads", threads)
    _assert_clean_exit_2(code, out, err)
    assert "--threads" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_torus_bad_threads_exit_2(capsys, threads):
    code, out, err = run(capsys, "torus", "--cutoff", "100", "--paths", "200", "--n", "8",
                         "--threads", threads)
    _assert_clean_exit_2(code, out, err)
    assert "--threads" in err


@pytest.mark.parametrize("argv", [("--n", "0"), ("--n", "1,x"), ("--n", "4,-2"),
                                  ("--n", ","), ("--start", "9"),
                                  ("--n", "1000000000000000")])  # a 14 PiB power table
def test_approx_validates_before_printing(capsys, chain_file, argv):
    _assert_clean_exit_2(*run(capsys, "approx", chain_file, "--observable", "f", *argv))


@pytest.mark.parametrize("option, argv", [
    ("--moduli", ["group", "--moduli", "5,x", "--step", "1:1.0"]),
    ("--harmonic", ["group", "--moduli", "5", "--step", "1:1.0", "--harmonic", "y"]),
    ("--step", ["group", "--moduli", "5", "--step", "1:x"]),
    ("--step", ["group", "--moduli", "5", "--step", "a:1.0"]),
    ("--alpha", ["torus", "--alpha", "x", "--cutoff", "100"]),
])
def test_malformed_numbers_exit_2(capsys, option, argv):
    code, out, err = run(capsys, *argv)
    _assert_clean_exit_2(code, out, err)
    assert option in err


def test_group_non_finite_probability_exits_2(capsys, tmp_path):
    out_path = tmp_path / "x.json"
    code, out, err = run(capsys, "group", "--moduli", "5", "--step", "1:0.5,2:nan,4:0.5",
                         "--harmonic", "1", "--output", str(out_path))
    _assert_clean_exit_2(code, out, err)
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["--alpha", "nan"], ["--alpha", "inf"],
                                  ["--coeffs", "NAN_COEFFS", "--paths", "200", "--n", "8"],
                                  ["--start", "nan", "--paths", "200", "--n", "8"],
                                  ["--start", "inf", "--paths", "200", "--n", "8"],
                                  ["--coeffs", "HUGE_COEFFS"]])
def test_torus_non_finite_input_exits_2(capsys, tmp_path, argv):
    files = {"NAN_COEFFS": '{"1": [NaN, 0]}', "HUGE_COEFFS": '{"1": [1e308, 1e308]}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    _assert_clean_exit_2(*run(capsys, "torus", *argv))


def _two_state_file(tmp_path, c):
    path = tmp_path / "huge.json"
    path.write_text(dump_document(make_chain(["0", "1"], [[0.75, 0.25], [0.25, 0.75]]),
                                  {"f": [c, -c]}))
    return str(path)


def test_simulate_huge_observable_variance_is_finite(capsys, tmp_path):
    code, out, err = run(capsys, "simulate", _two_state_file(tmp_path, 1e153), "--start", "0",
                         "--paths", "200", "--n", "8")
    assert code == 0 and err == ""
    assert "sample_var = 2.4808919598e+306" in out


@pytest.mark.parametrize("argv", [["simulate", "--start", "0", "--paths", "200", "--n", "8"],
                                  ["approx", "--n", "1,2"], ["analyze"]])
def test_non_finite_sigma_sq_exits_2(capsys, tmp_path, argv):
    code, out, err = run(capsys, argv[0], _two_state_file(tmp_path, 1e154), *argv[1:])
    _assert_clean_exit_2(code, out, err)
    assert "not finite" in err


def test_torus_too_few_paths_exits_2(capsys):
    code, out, err = run(capsys, "torus", "--paths", "50", "--n", "8")
    _assert_clean_exit_2(code, out, err)
    assert "100 paths" in err


def test_torus_zero_observable_exits_2(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text("{}")
    code, out, err = run(capsys, "torus", "--coeffs", str(path), "--paths", "200", "--n", "8")
    _assert_clean_exit_2(code, out, err)
    assert "numerically zero" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_bad_tolerance_exits_2(capsys, tmp_path, tol):
    # not reversible: an infinite tolerance used to classify it as reversible
    path = tmp_path / "nonrev.json"
    path.write_text(json.dumps({"Q": [[0.2, 0.5, 0.3], [0.1, 0.3, 0.6], [0.5, 0.2, 0.3]],
                                "observables": {"f": [1, -1, 0.5]}}))
    code, out, err = run(capsys, "analyze", str(path), "--tol", tol)
    _assert_clean_exit_2(code, out, err)
    assert "tolerance" in err


@pytest.mark.parametrize("argv", [["analyze"], ["approx"],
                                  ["simulate", "--start", "0", "--paths", "200", "--n", "8"]])
def test_overflowing_observable_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"Q": [[0.75, 0.25], [0.25, 0.75]],
                                "observables": {"f": [1e200, -1e200]}}))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    _assert_clean_exit_2(code, out, err)
    assert "overflows" in err


# -- the exit contract: every command against every failure class ------------------
#
# Each case runs the real process.  A bad input or option and an unwritable
# path print nothing on stdout; a full device or a closed pipe takes the
# report itself.  Each exits 2 with one line of error on stderr (argparse's
# usage line before it for an option), and never with a traceback.  verify
# reads no input and writes no file, and only simulate and group write one,
# so those cells are absent.

DEV_FULL = Path("/dev/full")
ARGV = {
    "analyze": ["analyze", "DOC"],
    "approx": ["approx", "DOC", "--n", "1,4"],
    "simulate": ["simulate", "DOC", "--start", "0", "--n", "8", "--paths", "200"],
    "group": ["group", "--moduli", "5", "--step", "1:0.5,4:0.5", "--harmonic", "1"],
    "torus": ["torus", "--cutoff", "100"],
    "verify": ["verify", "--quick"],
}
BAD_INPUT = {
    "analyze": ["analyze", "BAD_DOC"],
    "approx": ["approx", "BAD_DOC"],
    "simulate": ["simulate", "BAD_DOC", "--start", "0"],
    "group": ["group", "--moduli", "5", "--step", "1:x"],
    "torus": ["torus", "--coeffs", "BAD_COEFFS"],
}
UNWRITABLE = {"simulate": "--dump", "group": "--output"}
CANNOT_WRITE = "error: cannot write '<stdout>': "
CASES = (
    [(cmd, "bad-input", argv, "pipe", "error: ") for cmd, argv in BAD_INPUT.items()]
    + [("torus", "bad-cutoff", ["torus", "--coeffs", "{}", "--cutoff", "-5"], "pipe",
        "error: cutoff -5 is below 1")]
    + [(cmd, "bad-option", argv + ["--bogus"], "pipe",
        "qclt: error: unrecognized arguments: --bogus") for cmd, argv in ARGV.items()]
    + [(cmd, "unwritable-path", ARGV[cmd] + [opt, "NO_DIR"], "pipe", "error: cannot write '")
       for cmd, opt in UNWRITABLE.items()]
    + [(cmd, "full-device", argv, "full", CANNOT_WRITE + "No space left on device")
       for cmd, argv in ARGV.items()]
    + [("group", "full-device-report", ARGV["group"] + ["--output", "OUT"], "full",
        CANNOT_WRITE + "No space left on device")]
    + [(cmd, "full-device-file", ARGV[cmd] + [opt, str(DEV_FULL)], "pipe",
        f"error: cannot write '{DEV_FULL}': No space left on device")
       for cmd, opt in UNWRITABLE.items()]
    + [(cmd, "closed-pipe", argv, "closed", CANNOT_WRITE + "Broken pipe")
       for cmd, argv in ARGV.items()]
)


def _run_child(argv, stdout):
    cmd = [sys.executable, "-m", "qclt.cli", *argv]
    if stdout == "full":
        with open(DEV_FULL, "w") as full:
            return subprocess.run(cmd, env=child_env(), stdout=full, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
    if stdout == "closed":
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            return subprocess.run(cmd, env=child_env(), stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write_end)
    return subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command, failure, argv, stdout, error", CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_exit_contract(chain_file, tmp_path, command, failure, argv, stdout, error):
    if "full" in failure and not DEV_FULL.exists():
        pytest.skip("no /dev/full here")
    (tmp_path / "bad.json").write_text('{"Q": [[1, 0], [0')
    (tmp_path / "coeffs.json").write_text('{"1": [0.5')
    paths = {"DOC": chain_file, "BAD_DOC": str(tmp_path / "bad.json"),
             "BAD_COEFFS": str(tmp_path / "coeffs.json"),
             "NO_DIR": str(tmp_path / "no" / "such" / "out"), "OUT": str(tmp_path / "out")}
    proc = _run_child([paths.get(a, a) for a in argv], stdout)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and lines[-1].startswith(error) and proc.stderr.endswith("\n")
    if failure == "bad-option":
        assert len(lines) == 2 and lines[0].startswith("usage: qclt ")
    else:
        assert len(lines) == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    if stdout == "pipe":
        assert proc.stdout == ""
