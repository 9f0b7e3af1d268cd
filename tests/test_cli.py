import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclt import cli, kernels
from qclt.chain import dump_document, make_chain
from qclt.group_walk import MAX_GROUP_ORDER, TORUS_MAX_STEPS, build_group_walk
from qclt.cli import main
from qclt.simulate import SimulationReport
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


# below verify's 1e-13 roundoff floor the telescoping defect's digits follow
# the BLAS kernels, so the report prints 0 there; torus reports have no line
@pytest.mark.parametrize("residual, line", [(9.99e-14, "residual_max = 0"),
                                            (1e-13, "residual_max = 1e-13"),
                                            (3.25e-12, "residual_max = 3.25e-12"),
                                            (None, None)],
                         ids=["below-floor", "at-floor", "above-floor", "no-scheme"])
def test_report_prints_residual_max_as_0_below_the_roundoff_floor(capsys, residual, line):
    report = SimulationReport(start_state=0, n=4, num_paths=100, seed=1, sample_mean=0.5,
                              sample_var=2.0, ks_distance=0.25, residual_max=residual,
                              sigma_sq_used=3.0)
    cli._emit_report(("start_state", 0), report)
    lines = [x for x in capsys.readouterr().out.splitlines() if x.startswith("residual_max")]
    assert lines == ([line] if line else [])


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


# -- malformed input exits 2 before anything is printed ------------------------

def _assert_clean_exit_2(code, out, err):
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""


NOT_A_MAPPING = [f'{{"Q": [[0.75, 0.25], [0.25, 0.75]], "observables": {named}}}'
                 for named in ("false", "0", '""', "[]")]


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
                                  '"observables": {"f": [true, false]}}',
                                  # labels only where the key is absent, and only strings
                                  *(f'{{"Q": [[0.75, 0.25], [0.25, 0.75]], "states": {states}, '
                                    '"observables": {"f": [1, -1]}}'
                                    for states in ("[]", "false", "0", "[true, null]",
                                                   '[["a"], "b"]')),
                                  # no observables only where the key is absent
                                  *NOT_A_MAPPING])
def test_analyze_malformed_document_exits_2(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    _assert_clean_exit_2(code, out, err)
    if text in NOT_A_MAPPING:
        assert "the field 'observables' must map names to vectors" in err


@pytest.mark.parametrize("argv", [["analyze"], ["torus", "--cutoff", "100", "--coeffs"]],
                         ids=["analyze", "torus-coeffs"])
@pytest.mark.parametrize("source", ["file", "text"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, argv, source):
    # json's decoder recurses once per level: 10^5 levels pass Python's limit
    text = "[" * 10 ** 5 + "]" * 10 ** 5
    if source == "file":
        path = tmp_path / "deep.json"
        path.write_text(text)
        text = str(path)
    code, out, err = run(capsys, *argv, text)
    _assert_clean_exit_2(code, out, err)
    assert "nests its JSON too deeply" in err


@pytest.mark.parametrize("moduli", ["1000000", "4097", "64,65", "1," * 32 + "1"],
                         ids=["order 10^6", "order 4097", "order 4160", "33 factors"])
def test_group_beyond_its_order_bound_exits_2_before_any_allocation(capsys, moduli):
    # refused before the step grid or the kernel exists: a 10^6-element
    # group's kernel alone would be 7.3 TiB
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "group", "--moduli", moduli, "--step", "1:1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_clean_exit_2(code, out, err)
    assert f"{MAX_GROUP_ORDER} elements" in err
    assert peak < 1 << 20


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


def test_refused_simulate_run_keeps_an_earlier_dump(capsys, chain_file, tmp_path):
    dump = tmp_path / "x.csv"
    sim = ["simulate", chain_file, "--observable", "f", "--start", "0", "--n", "4",
           "--dump", str(dump)]
    code, _, _ = run(capsys, *sim, "--paths", "200")
    assert code == 0
    before = dump.read_bytes()
    assert before.startswith(b"path_index,s_scaled,m_scaled\n")
    code, out, err = run(capsys, *sim, "--paths", str(2 ** 62))
    _assert_clean_exit_2(code, out, err)
    assert "no room for" in err
    assert dump.read_bytes() == before


def test_refused_simulate_run_leaves_no_new_dump(capsys, chain_file, tmp_path):
    dump = tmp_path / "fresh.csv"
    code, out, err = run(capsys, "simulate", chain_file, "--observable", "f", "--start", "0",
                         "--n", "4", "--paths", str(2 ** 62), "--dump", str(dump))
    _assert_clean_exit_2(code, out, err)
    assert "no room for" in err
    assert not dump.exists()


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


def test_unknown_start_on_a_1600_state_walk_is_one_short_line(capsys, tmp_path):
    # the error names the label count and the first labels, not all 1600
    doc = str(tmp_path / "z40x40.json")
    assert run(capsys, "group", "--moduli", "40,40", "--step",
               "1.0:0.25,39.0:0.25,0.1:0.25,0.39:0.25", "--harmonic", "1,0", "--output", doc)[0] == 0
    for command in ("approx", "simulate"):
        code, out, err = run(capsys, command, doc, "--start", "nope")
        _assert_clean_exit_2(code, out, err)
        assert "1600 labels" in err and len(err) < 200, (command, len(err))


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


def test_torus_series_that_is_not_finite_exits_2(capsys):
    # the series is computed before the first line is printed
    code, out, err = run(capsys, "torus", "--coeffs", '{"1": 1e153, "2": 1e153}',
                         "--lazy", "0.9999999", "--cutoff", "10")
    _assert_clean_exit_2(code, out, err)
    assert "not finite" in err


def test_torus_too_few_paths_exits_2(capsys):
    code, out, err = run(capsys, "torus", "--paths", "50", "--n", "8")
    _assert_clean_exit_2(code, out, err)
    assert "100 paths" in err


@pytest.mark.parametrize("size, message", [(("--paths", str(2 ** 62), "--n", "4"), "no room"),
                                           (("--paths", "100", "--n", str(2 ** 61)), "need n <="),
                                           (("--paths", "100", "--n", str(2 ** 63)), "need n <=")],
                         ids=["2^62 paths", "2^61 steps", "2^63 steps"])
@pytest.mark.parametrize("walk", ["simulate", "torus"])
def test_oversized_run_exits_2_before_the_kernel(capsys, chain_file, monkeypatch, walk, size,
                                                 message):
    # sizes beyond the address space, so nothing is allocated
    def no_kernel(*args):
        raise AssertionError("a path kernel ran")
    for module in kernels.available_backends().values():
        monkeypatch.setattr(module, "chain_paths", no_kernel)
        monkeypatch.setattr(module, "torus_paths", no_kernel)
    lead = ([walk, chain_file, "--observable", "f", "--start", "0"] if walk == "simulate"
            else [walk, "--cutoff", "100"])
    code, out, err = run(capsys, *lead, *size)
    _assert_clean_exit_2(code, out, err)
    assert message in err


def test_torus_beyond_its_table_bound_exits_2_before_any_allocation(capsys, monkeypatch):
    # n within MAX_STEPS, but each chunk's table of 2 n + 1 values would be 14.6 TiB
    argv = ["torus", "--paths", "100", "--n", str(10 ** 12)]
    for module in kernels.available_backends().values():
        monkeypatch.setattr(kernels, "_impl", module)
        run(capsys, *argv)          # imports what the command needs, untraced
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _assert_clean_exit_2(code, out, err)
        assert f"need n <= {TORUS_MAX_STEPS}" in err
        assert peak < 1 << 20, module.BACKEND_NAME


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


# -- hostile input: argv drawn from a grammar of bad tokens -----------------------
#
# Every command, in process, on argv drawn from tokens that are non-finite,
# huge, negative, empty, nested, wrong-typed or not UTF-8 ("\udcff" is how
# Python hands over the byte 0xff of an argv), mixed with good ones so that
# some runs get far.  Each must exit 0 or 2, print one error line exactly
# when it exits 2, and raise nothing.  A size is drawn only where it is
# refused before any work or is small, and no case asks for many threads.
# A token "@name" is the file or directory "name" in the test's directory.

BAD = ["nan", "inf", "-inf", "1e400", "-1", "0", "", " ", "x", "\udcff", str(10 ** 400),
       "9" * 4000]
DEEP = "[" * 10 ** 4 + "]" * 10 ** 4
HOSTILE_FILES = {               # token: the bytes of the file it names
    "@doc": json.dumps({"Q": [[0.75, 0.25], [0.25, 0.75]],
                        "observables": {"f": [1.0, -1.0], "g": [1e200, -1e200]}}).encode(),
    "@nonrev": json.dumps({"Q": [[0.2, 0.5, 0.3], [0.1, 0.3, 0.6], [0.5, 0.2, 0.3]],
                           "observables": {"f": [1, -1, 0.5]}}).encode(),
    "@deep": DEEP.encode(),
    "@nested": ('{"Q": ' + "[" * 40 + "]" * 40 + ', "observables": {"f": [[[1]]]}}').encode(),
    "@typed": b'{"Q": [[true, "0.5"], [null, {}]], "states": [1, 2], "observables": []}',
    "@dup": b'{"Q": [[1, 0], [0, 1]], "Q": [[0.5, 0.5], [0.5, 0.5]], '
            b'"observables": {"f": [1, -1], "f": [NaN, 1]}}',
    "@huge": ('{"Q": [[1e308, 1e308], [0.5, 0.5]], "pi": [Infinity, 0.5], '
              '"observables": {"f": [1' + "0" * 400 + ", -1]}}").encode(),
    "@empty": b"",
    "@bytes": b'\xff\xfe{"Q": [[1]]}',
}
BAD_DOCS = [*HOSTILE_FILES, "@missing", "@dir", "{}", "[]", "1", DEEP, "\udcff",
            '{"Q": [[1]], "observables": {"f": [0]}}']
BAD_OUTS = ["@dir", "@missing/x", ""]
BAD_COEFFS = ['{"1": NaN}', '{"1": 1e400}', '{"-3": 0.5}', '{"99999999999999999999": 0.5}',
              '{"1": [[0.5]]}', "[[]]", *BAD_DOCS]


def _pick(good, bad):
    return st.one_of(st.sampled_from(good), st.sampled_from(bad))


def _opt(name, good, bad=BAD):
    # the option with a good or a bad value, or no option
    return st.one_of(st.just([]), _pick(good, bad).map(lambda v: [name, v]))


def _sized(name, good, refused):
    # always given, so no default size runs: a small one or one refused before any work
    return _pick(good, refused + BAD).map(lambda v: [name, v])


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [tok for p in ps for tok in p])


_common = (_pick(["@doc", "@nonrev"], BAD_DOCS).map(lambda d: [d]),
           _opt("--observable", ["f", "g"], ["h", "", "\udcff"]), _opt("--tol", ["1e-10", "0.5"]))
_seed = _opt("--seed", ["0", "7"], BAD + [str(2 ** 64)])
_threads = _opt("--threads", ["1", "2"], ["0", "-3", "x", "", "nan"])
HOSTILE_ARGV = st.one_of(
    _argv("analyze", *_common),
    _argv("approx", *_common, _opt("--n", ["1,4", "4,1,4"], ["1,,2", ",", str(10 ** 15)] + BAD),
          _opt("--start", ["0", "1"], ["9", "", "\udcff"])),
    _argv("simulate", *_common,
          _pick(["0", "1"], ["9", "", "\udcff"]).map(lambda v: ["--start", v]),
          _sized("--n", ["1", "8"], [str(2 ** 61), str(2 ** 63)]),
          _sized("--paths", ["200", "100"], ["50", str(2 ** 62), str(2 ** 64)]),
          _seed, _threads, _opt("--dump", ["@out", "@\udcff"], BAD_OUTS)),
    _argv("group",
          _opt("--moduli", ["5", "4,3", "2,3,2", "1," * 20 + "1"],
               ["1," * 40 + "1", "6,6,6,6,6", "1000000", "0,5", "-5", "9" * 4000 + ",9"]
               + BAD),
          _opt("--step", ["1:1", "1:0.5,4:0.5", "1.1:1", "1:0.5,1:0.5"],
               ["1.0.2:1", "1:nan", "1:inf", "1:-1", "1:1e400", f"{10 ** 400}:1", "1", ":",
                "x:1", "\udcff:1", ""]),
          _opt("--harmonic", ["1", "1,1", "1,0,1", "-1"]),
          _opt("--output", ["@out", "@\udcff"], BAD_OUTS)),
    _argv("torus", _opt("--alpha", ["golden", "0.3"], ["0.5", "1e-300"] + BAD),
          _opt("--lazy", ["0", "0.5", "0.999"]),
          _opt("--coeffs", ['{"1": 0.5}', "[[1, 0.5, 0.1]]", '{"1": 0.5, "1": [0.25, 0.5]}'],
               ["{}", *BAD_COEFFS]),
          _sized("--cutoff", ["1", "100"], [str(2 ** 64)]),
          _sized("--paths", ["0", "200"], ["50", str(2 ** 62)]),
          _sized("--n", ["8"], [str(2 ** 61), str(10 ** 12)]),
          _opt("--start", ["0.3", "1e308"]),
          _seed, _threads),
    # verify reads no input: always a bad option, so the suite itself never runs
    _argv("verify", st.sampled_from([[], ["--quick"]]),
          st.sampled_from(["--bogus", "x", "\udcff", "--quick=1"]).map(lambda v: [v])),
)


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    for token, data in HOSTILE_FILES.items():
        (root / token[1:]).write_bytes(data)
    (root / "dir").mkdir()
    return root


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=HOSTILE_ARGV)
def test_hostile_argv_exits_0_or_2_with_one_error_line(hostile_dir, argv):
    argv = [str(hostile_dir / tok[1:]) if tok.startswith("@") else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse refused an option
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    assert code in (0, 2), (argv, err.getvalue())
    assert len(errors) == (code == 2), (argv, err.getvalue())
