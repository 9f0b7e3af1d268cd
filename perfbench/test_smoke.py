"""Smoke test of the benchmark at tiny input sizes (well under a minute).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ALL_END_TO_END = {**run.END_TO_END, "fail_ratio": "ratio", **workloads.COMMAND_METRICS}


def bench(*args, cwd=None, script=run.HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_the_runner_reports():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.BY_NAME)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.BY_NAME))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--size", "tiny")
    assert out.returncode == 0, out.stderr
    result = last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        for name, unit in ALL_END_TO_END.items():
            assert re.search(rf"^ +{re.escape(name)} +\S+ {re.escape(unit)}$",
                             out.stdout, re.M), name


def _tamper(label: str, text: str) -> str:
    """Change one checked number (or verdict) in a command's report."""
    if label == "verify":
        return text.replace("PASS", "FAIL", 1)
    if label == "approx":
        lines = text.splitlines()
        parts = lines[-1].split(",")
        parts[-4] = repr(float(parts[-4]) + 0.5)
        return "\n".join(lines[:-1] + [",".join(parts)]) + "\n"
    key = {"analyze": "sigma_sq", "group": "SR_sum"}.get(label, "sample_var")
    return re.sub(rf"^{key} = (\S+)$", lambda m: f"{key} = {float(m[1]) * 1.5 + 1.0!r}",
                  text, count=1, flags=re.M)


@pytest.mark.parametrize("workload", list(workloads.BY_NAME))
def test_checks_pass_real_output_and_catch_tampering(workload, tmp_path):
    lib, _ = run.build_program()
    env = run.child_env(lib)
    wl = workloads.build(workload, 3, str(tmp_path), "tiny")
    for i, cmd in enumerate(wl.commands):
        res = run.run_command(cmd.argv, env, tmp_path, tmp_path / f"cmd{i}.out")
        assert run.judge(cmd, res["exit"], res["stdout"], res["stderr"]) == [], cmd.label
        tampered = _tamper(cmd.label, res["stdout"])
        assert tampered != res["stdout"], cmd.label
        assert run.judge(cmd, 0, tampered, ""), f"tampered {cmd.label} passed"
        assert run.judge(cmd, 2, res["stdout"], "error: boom"), "exit 2 passed"


@pytest.mark.parametrize("trace", [0, 1])
def test_failing_command_counts_in_fail_ratio(trace, monkeypatch, capsys):
    def broken(name, seed, workdir, size="full"):
        wl = workloads.BY_NAME[name](seed, workdir, workloads.SIZES[size][name])
        argv = wl.commands[0].argv
        argv[argv.index("--start") + 1] = "no-such-state"   # exits 2
        return wl

    monkeypatch.setattr(workloads, "build", broken)
    assert run.main(["--workload", "mc-desk", "--seed", "1", "--seconds", "0",
                     "--size", "tiny", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    if not trace:
        ratio = float(re.search(r"^ +fail_ratio +(\S+) ratio$", out, re.M)[1])
        assert ratio == pytest.approx(result["failed"] / result["attempted"]) and ratio > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench("--workload", "mc-desk", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
