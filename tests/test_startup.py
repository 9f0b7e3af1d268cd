"""Start-up and exit of the command-line process.

``import qclt.cli`` loads only the modules every command needs; each
command imports the rest itself, and the package re-exports its public
names on first access.  The console entry point runs ``main`` and then
freezes the garbage collector, so the tests below run the real
``python -m qclt.cli`` process and compare what it writes with an
in-process ``main`` run.  A report that cannot be written exits 2 with one
error line and no traceback (``tests/test_cli.py::test_exit_contract``);
here stdout and stderr share one closed pipe, so only the exit code tells.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qclt
from qclt.cli import main

REPO = Path(__file__).resolve().parents[1]
COMMAND_MODULES = ("verify", "inequalities", "group_walk", "martingale", "simulate",
                   "spectral")
WALK = ["group", "--moduli", "4,3", "--step",
        "0.0:0.5,1.0:0.125,3.0:0.125,0.1:0.125,0.2:0.125", "--harmonic", "1,1"]


def child_env():
    # block-buffered stdout, as a shell gives it, so that a failed write
    # also leaves output for the interpreter's last flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def python(*args, timeout=120):
    return subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True, timeout=timeout)


def cli(*argv):
    return python("-m", "qclt.cli", *argv)


def in_process(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- imports -----------------------------------------------------------------------

def loaded_by(module):
    proc = python("-c", f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_loads_no_command_module():
    loaded = loaded_by("qclt.cli")
    assert "qclt.kernels" in loaded
    assert not loaded & {f"qclt.{name}" for name in COMMAND_MODULES}
    assert "concurrent.futures" not in loaded


def test_group_walk_import_loads_neither_simulate_nor_martingale():
    loaded = loaded_by("qclt.group_walk")
    assert "qclt.spectral" in loaded
    assert not loaded & {"qclt.simulate", "qclt.martingale"}


def test_simulate_import_does_not_load_martingale():
    loaded = loaded_by("qclt.simulate")
    assert "qclt.kernels" in loaded
    assert "qclt.martingale" not in loaded


def test_exports_resolve_in_fresh_interpreter():
    proc = python("-c", "import json, sys, qclt; listed = dir(qclt); print(json.dumps("
                        "[listed, {n: getattr(qclt, n) is getattr(sys.modules["
                        "getattr(qclt, n).__module__], n) for n in qclt.__all__}]))")
    assert proc.returncode == 0, proc.stderr
    listed, defining = json.loads(proc.stdout)
    assert len(qclt.__all__) == 22
    assert set(qclt.__all__) <= set(listed)
    assert set(defining) == set(qclt.__all__) and all(defining.values())
    assert qclt.chain.make_chain is qclt.make_chain
    assert qclt.spectral.spectral_measure is qclt.spectral_measure


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        qclt.no_such_name
    assert not hasattr(qclt, "jacobi_eigh") and not hasattr(qclt, "sample_path")
    assert not hasattr(qclt, "load_chain")
    with pytest.raises(ImportError):
        from qclt import no_such_name  # noqa: F401


# -- the exit path -------------------------------------------------------------------

def test_console_script_uses_the_entry_point():
    text = (REPO / "pyproject.toml").read_text()
    assert '[project.scripts]\nqclt = "qclt.cli:entry"\n' in text


def test_group_output_matches_in_process(capsys, tmp_path):
    proc = cli(*WALK, "--output", str(tmp_path / "child.json"))
    code, out, _ = in_process(capsys, *WALK, "--output", str(tmp_path / "parent.json"))
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout.replace("child.json", "parent.json") == out
    assert (tmp_path / "child.json").read_bytes() == (tmp_path / "parent.json").read_bytes()


def test_group_document_on_stdout_matches_in_process(capsys):
    proc = cli(*WALK)
    code, out, _ = in_process(capsys, *WALK)
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out


def test_simulate_dump_matches_in_process(capsys, tmp_path):
    doc = tmp_path / "walk.json"
    assert main([*WALK, "--output", str(doc)]) == 0
    capsys.readouterr()
    sim = ["simulate", str(doc), "--start", "1,2", "--n", "64", "--paths", "300",
           "--seed", "11", "--threads", "2"]
    proc = cli(*sim, "--dump", str(tmp_path / "child.csv"))
    code, out, _ = in_process(capsys, *sim, "--dump", str(tmp_path / "parent.csv"))
    assert proc.returncode == code == 0, proc.stderr
    assert proc.stdout == out
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "parent.csv").read_bytes()


def test_malformed_document_exits_2_with_one_error_line(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"Q": [[0.5, 0.5], [0.5, ')
    proc = cli("analyze", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_quick_verify_exits_0():
    proc = cli("verify", "--quick")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "result = 12/12 passed"


# -- a closed pipe on both streams still exits 2 --------------------------------

@pytest.mark.parametrize("argv", [
    ["group", "--moduli", "200", "--step", "1:0.5,199:0.5"],    # the report fails first
    ["analyze", "no-such-document.json"],                       # only the error line
    ["analyze", "--bogus"]], ids=["report", "bad-input", "bad-option"])
def test_stdout_and_stderr_on_one_closed_pipe_exit_2(argv):
    # as in `qclt ... 2>&1 | true`: the error line meets a closed stderr too,
    # and no traceback can be shown, so the exit code alone tells
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qclt.cli", *argv], env=child_env(),
                              stdout=write_end, stderr=write_end, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
