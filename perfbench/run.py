#!/usr/bin/env python3
"""qclt benchmark: seeded CLI workloads, measured end to end or traced per layer.

    python3 perfbench/run.py --workload mc-desk --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the package is built from the
checkout's ``src/`` into ``.bench_build/`` (``setup.py build``, so a
compiled backend is used whenever the checkout can build one) and every
command runs as its own ``python -m qclt.cli`` child.

``--trace 0`` repeats the workload's commands as a closed loop for about
``--seconds`` seconds and reports end-to-end metrics from the children's
``os.wait4`` resource usage.  ``--trace 1`` runs the same commands in one
traced child (see ``tracer.py``) and reports per-layer metrics.  Every
command's output is checked against references the benchmark computes
itself; failures count in ``failed`` and make ``correct`` false.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

# Children get single-threaded BLAS so that BLAS threads never compete with
# ``--threads 2`` on a two-core machine.
BLAS_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
             "NUMEXPR_NUM_THREADS": "1"}
SETUP_FIRST = 3       # set-up samples before the first iteration
SETUP_EACH = 2        # and after each iteration
MIN_ITERATIONS = 2
COMMAND_TIMEOUT_S = 150.0

END_TO_END = {               # name -> unit; every workload reports these
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}
# name -> unit, reported by every workload.  Times of functions that some
# workload never calls (verify checks, inequalities, ...) would read 0 on
# every run there, so they are printed and recorded but not listed here;
# call counts are listed because a 0 count is a measurement.
PER_LAYER = {
    "kernels.run_chain_paths.ns_per_step": "ns",
    "kernels.python.chain_ns_per_step": "ns",
    "kernels.thread_efficiency": "ratio",
    "kernels.chunk_imbalance": "ratio",
    "rng.stream_keys.self_s": "s",
    "simulate.simulate_quenched.self_s": "s",
    "simulate.ks_distance.self_s": "s",
    "simulate.standard_normal_cdf.self_s": "s",
    "spectral.jacobi_eigh.self_s": "s",
    "spectral.jacobi_eigh.calls": "count",
    "spectral.jacobi_eigh.sweeps": "count",
    "martingale.poisson_solve.self_s": "s",
    "chain.make_chain.calls": "count",
    "chain.classify_chain.self_s": "s",
    "spectral.kernel_gap_msq_spectral.calls": "count",
    "martingale.kernel_gap_msq.calls": "count",
    "martingale.quenched_diagnostics.calls": "count",
    "inequalities.chaining_maximal_check.calls": "count",
    "layer.kernels.self_s": "s",
    "layer.rng.self_s": "s",
    "layer.simulate.self_s": "s",
    "layer.spectral.self_s": "s",
    "layer.martingale.self_s": "s",
    "layer.chain.self_s": "s",
    "layer.group_walk.self_s": "s",
    "layer.cli.self_s": "s",
    "trace.uncovered_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

SELF_TIMES = [
    "rng.stream_keys", "simulate.simulate_quenched", "simulate.ks_distance",
    "simulate.standard_normal_cdf", "spectral.jacobi_eigh", "spectral.spectral_measure",
    "spectral.kernel_gap_msq_spectral", "spectral.variance_growth",
    "martingale.poisson_solve", "martingale.quenched_diagnostics",
    "martingale.kernel_gap_msq", "chain.load_document", "chain.classify_chain",
    "group_walk.build_group_walk", "group_walk.walk_fourier", "group_walk.condition_sums",
    "group_walk.torus_condition", "group_walk.make_torus_walk",
    "inequalities.chaining_maximal_check", "inequalities.dyadic_block_maxsum",
    "inequalities.dyadic_domination_check", "inequalities.log_envelope_ratio",
    "verify.random_dyadic_family",
] + [f"cli.{c}" for c in ("analyze", "approx", "simulate", "group", "torus", "verify")]
CALLS = ["spectral.jacobi_eigh", "spectral.kernel_gap_msq_spectral",
         "martingale.quenched_diagnostics", "martingale.kernel_gap_msq",
         "chain.make_chain", "inequalities.chaining_maximal_check"]
MODULE_LAYERS = ["kernels", "rng", "simulate", "spectral", "martingale", "chain",
                 "group_walk", "inequalities", "verify", "cli"]
VERIFY_CHECKS = [
    "check_chaining_deterministic", "check_chaining_randomized",
    "check_domination_equality", "check_domination_violation",
    "check_dyadic_block_bound", "check_log_envelope", "check_gap_equivalence",
    "check_sigma_triangulation", "check_martingale_property", "check_telescoping",
    "check_group_identities", "check_torus_identities",
]


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, build failure, ...)."""


# -- build and environment -----------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    files = [ROOT / "setup.py", ROOT / "pyproject.toml"]
    files += sorted(p for p in (ROOT / "src").rglob("*") if p.is_file()
                    and "__pycache__" not in p.parts
                    and not any(part.endswith(".egg-info") for part in p.parts))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def build_program() -> tuple:
    """Build ``qclt`` from the checkout once per source digest; returns
    ``(library directory, source digest)``."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "qclt" / "cli.py").is_file():
        raise BenchError(f"no qclt source tree (setup.py, src/qclt) under {ROOT}")
    digest = source_digest()
    lib = BUILD / "py" / digest[:16]
    if (lib / "qclt" / "cli.py").is_file():
        return lib, digest
    tmp = BUILD / "py" / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    proc = subprocess.run([sys.executable, "setup.py", "-q", "build", "--build-base", str(tmp)],
                          cwd=ROOT, capture_output=True, text=True, timeout=800)
    built = sorted(tmp.glob("lib*/qclt/cli.py"))
    if proc.returncode != 0 or not built:
        raise BenchError(f"setup.py build failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    try:
        built[0].parent.parent.rename(lib)
    except OSError:          # a concurrent run finished the same build first
        if not (lib / "qclt" / "cli.py").is_file():
            raise
    shutil.rmtree(tmp, ignore_errors=True)
    return lib, digest


def child_env(lib: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "QCLT_KERNELS", "PYTHONDONTWRITEBYTECODE")}
    env.update(BLAS_PINS)
    env["PYTHONPATH"] = str(lib)
    return env


ENV_PROBE = """
import json, numpy
from qclt import kernels
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"backend": kernels.BACKEND,
                  "backends": list(kernels.available_backends()),
                  "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""


def environment(env: dict, cwd: Path, digest: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"qclt does not import:\n{out.stderr[-2000:]}")
    info = json.loads(out.stdout)
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    info.update({"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(), "machine": platform.machine(),
                 "blas_pins": BLAS_PINS, "git_commit": commit,
                 "source_sha256": digest, "seed": seed})
    return info


SETUP_PROBE = ("import sys, qclt.cli; "
               "sys.stdout.write(qclt.cli.kernels.BACKEND + '\\n'); sys.stdout.flush()")


def time_setup(env: dict, cwd: Path, reps: int) -> list:
    """Seconds from spawning the interpreter to ``qclt.cli`` imported with
    its backend selected, ``reps`` times."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], env=env, cwd=cwd,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line.strip():
            raise BenchError("importing qclt.cli failed")
    return samples


# -- running commands ------------------------------------------------------------

def run_command(argv, env: dict, cwd: Path, log: Path) -> dict:
    """Run ``python -m qclt.cli ARGV``; wall time from spawn to reap, CPU and
    peak RSS from ``os.wait4``."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "qclt.cli", *argv], env=env,
                                cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": log.read_text(), "stderr": log.with_suffix(".err").read_text()[-2000:]}


def judge(command, exit_code: int, stdout: str, stderr: str) -> list:
    """Failure messages for one command run: a non-zero exit or failed checks."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {stderr.strip()[-300:]}"]
    try:
        return command.check(stdout)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return [f"output check could not run: {exc!r}"]


def measure(workload, env: dict, workdir: Path, seconds: float) -> tuple:
    """Closed loop over the workload's commands; iterations continue while
    another one fits in ``seconds`` (at least ``MIN_ITERATIONS`` run).
    Set-up time is sampled before the first iteration and after each one,
    so that its median sees the same machine state as the commands.
    Returns ``(iterations, setup samples)``."""
    time_setup(env, workdir, 1)      # fills the bytecode cache
    setup = time_setup(env, workdir, SETUP_FIRST)
    iterations = []
    t_start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        runs = []
        for i, cmd in enumerate(workload.commands):
            res = run_command(cmd.argv, env, workdir, workdir / f"cmd{i}.out")
            res["failures"] = judge(cmd, res["exit"], res["stdout"], res["stderr"])
            res["digest"] = checks.result_digest(res.pop("stdout"))
            runs.append(res)
        iterations.append(runs)
        setup += time_setup(env, workdir, SETUP_EACH)
        now = time.perf_counter()
        if len(iterations) >= MIN_ITERATIONS and now - t_start + (now - t_iter) > seconds:
            return iterations, setup


# -- metrics ---------------------------------------------------------------------

def end_to_end(workload, iterations, setup) -> dict:
    """Times are per-command medians over the iterations, summed over the
    workload's commands; a burst of machine noise in one command of one
    iteration then moves no metric."""
    med = statistics.median

    def per_command(key):
        return [med(it[i][key] for it in iterations) for i in range(len(workload.commands))]

    metrics = {
        "wall_s": sum(per_command("wall_s")),
        "setup_s": med(setup),
        "peak_rss_mb": max(r["rss_mb"] for it in iterations for r in it),
        "cpu_s": sum(per_command("cpu_s")),
    }
    runs = [r for it in iterations for r in it]
    metrics["fail_ratio"] = sum(bool(r["failures"]) for r in runs) / len(runs)
    for cmd, wall in zip(workload.commands, per_command("wall_s")):
        if cmd.metric:
            metrics[cmd.metric] = cmd.steps / wall if cmd.steps else wall
    return metrics


def per_layer(summary: dict) -> dict:
    stats, probe = summary["stats"], summary["probe"]

    def stat(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}
    for kernel in ("run_chain_paths", "run_torus_paths"):
        name = f"kernels.{kernel}"
        work = stat(name, "work")
        out[f"{name}.ns_per_step"] = (stat(name, "total_s") / work * 1e9 if work else 0.0, "ns")
    chain = probe["chain"]
    out["kernels.thread_efficiency"] = (chain["thread_efficiency"], "ratio")
    out["kernels.chunk_imbalance"] = (chain["chunk_imbalance"], "ratio")
    for key, ns in chain["ns_per_step"].items():
        backend, workers = key.split("/")
        if workers == "1":
            out[f"kernels.{backend}.chain_ns_per_step"] = (ns, "ns")
    for backend, res in probe.get("torus", {}).items():
        out[f"kernels.{backend}.torus_ns_per_step"] = (res["ns_per_step"], "ns")
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = (stat(name, "self_s"), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (stat(name, "calls"), "count")
    checks_run = stat("spectral._off_diag_norm", "calls")
    out["spectral.jacobi_eigh.sweeps"] = (
        checks_run - stat("spectral.jacobi_eigh", "calls") if checks_run else 0, "count")
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = (stat(f"verify.{check}", "total_s"), "s")
    for name, st in sorted(stats.items()):
        if "p50_s" in st:
            out[f"{name}.p50_us"] = (st["p50_s"] * 1e6, "us")
            out[f"{name}.p99_us"] = (st["p99_s"] * 1e6, "us")
        if st["errors"]:
            out[f"{name}.errors"] = (st["errors"], "count")
    for module in MODULE_LAYERS:
        out[f"layer.{module}.self_s"] = (sum(st["self_s"] for name, st in stats.items()
                                             if name.split(".")[0] == module), "s")
    out["trace.errors"] = (sum(st["errors"] for st in stats.values()), "count")
    out["trace.uncovered_share"] = (summary["uncovered_share"], "ratio")
    out["trace.overhead_ratio"] = (summary["overhead_ratio"], "ratio")
    return out


def probe_failures(workload, summary: dict) -> list:
    fails = list(summary["probe"]["chain"]["mismatches"])
    torus = summary["probe"].get("torus", {})
    if torus:
        spec = workload.probe["torus"]
        coeffs = {nu: complex(re, im) for nu, re, im in spec["coeffs"]}
        sigma_sq = checks.torus_sigma_sq(coeffs, workloads.GOLDEN_ALPHA, spec["lazy"])
        mean_n, var_n = checks.torus_moments(coeffs, workloads.GOLDEN_ALPHA, spec["lazy"],
                                             spec["x0"], spec["n"])
        for backend, res in torus.items():
            fails += [f"torus kernel on {backend}: {msg}" for msg in
                      checks.sample_checks(res, mean_n, var_n, sigma_sq,
                                           spec["paths"], spec["n"])]
    return fails


def traced(workload, env: dict, workdir: Path, stem: str) -> tuple:
    spec_path, out_path = workdir / "trace-spec.json", workdir / "trace-out.json"
    spec = {"commands": [{"label": c.label, "argv": c.argv} for c in workload.commands],
            "probe": workload.probe,
            "spans_path": str(BUILD / "results" / f"{stem}.spans.json.gz")}
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spec_path),
                           str(out_path)], env=env, cwd=workdir, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"traced run failed:\n{proc.stderr[-3000:]}")
    summary = json.loads(out_path.read_text())
    failures, failed = [], 0
    for phase in ("untraced", "traced"):
        for cmd, res in zip(workload.commands, summary[phase]):
            msgs = judge(cmd, res["exit"], res["stdout"], res["stderr"])
            failures += [f"{phase} {cmd.label}: {msg}" for msg in msgs]
            failed += bool(msgs)
            res["digest"] = checks.result_digest(res.pop("stdout"))
    probe_fails = probe_failures(workload, summary)
    # attempted: every command in both passes, plus the kernel probe
    attempted = 2 * len(workload.commands) + 1
    return summary, failures + probe_fails, attempted, failed + bool(probe_fails)


# -- reporting -------------------------------------------------------------------

def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_end_to_end(workload, iterations, metrics, setup):
    print(f"iterations: {len(iterations)}; setup samples: "
          + " ".join(f"{s:.4f}" for s in setup))
    print(f"{'command':<14}{'wall_s':>10}{'cpu_s':>10}{'rss_mb':>10}  result digest")
    for i, cmd in enumerate(workload.commands):
        runs = [it[i] for it in iterations]
        print(f"{cmd.label:<14}{statistics.median(r['wall_s'] for r in runs):>10.4f}"
              f"{statistics.median(r['cpu_s'] for r in runs):>10.4f}"
              f"{max(r['rss_mb'] for r in runs):>10.1f}  {runs[-1]['digest'][:16]}")
    print("end-to-end metrics (n/a: the workload has no such command):")
    units = {**END_TO_END, "fail_ratio": "ratio", **workloads.COMMAND_METRICS}
    for name, unit in units.items():
        print(f"  {name:<22}{fmt(metrics.get(name)):>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input shapes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    try:
        lib, digest = build_program()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    workdir = BUILD / "work" / f"{stem}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (BUILD / "results").mkdir(exist_ok=True)
    try:
        env = child_env(lib)
        info = environment(env, workdir, digest, args.seed)
        workload = workloads.build(args.workload, args.seed, str(workdir), args.size)
        print(f"workload {args.workload} seed {args.seed} size {args.size} "
              f"trace {args.trace}")
        print("environment: " + json.dumps(info, sort_keys=True))
        record = {"workload": args.workload, "seed": args.seed, "size": args.size,
                  "environment": info,
                  "commands": [{"label": c.label, "argv": c.argv} for c in workload.commands]}
        if args.trace:
            summary, failures, attempted, failed = traced(workload, env, workdir, stem)
            layer = per_layer(summary)
            print(f"traced run: {summary['span_count']} spans, "
                  f"{summary['bindings_wrapped']} bindings wrapped")
            for name, (value, unit) in layer.items():
                print(f"  {name:<52}{fmt(value):>14} {unit}")
            metrics = {k: {"value": layer[k][0], "unit": u} for k, u in PER_LAYER.items()}
            record.update(per_layer={k: v[0] for k, v in layer.items()},
                          stats=summary["stats"],
                          digests={r["label"]: r["digest"] for r in summary["traced"]})
        else:
            iterations, setup = measure(workload, env, workdir, args.seconds)
            e2e = end_to_end(workload, iterations, setup)
            print_end_to_end(workload, iterations, e2e, setup)
            runs = [r for it in iterations for r in it]
            failures = [f"{cmd.label}: {msg}" for it in iterations
                        for cmd, r in zip(workload.commands, it) for msg in r["failures"]]
            attempted, failed = len(runs), sum(bool(r["failures"]) for r in runs)
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
            record.update(end_to_end=e2e, setup_samples=setup, iterations=iterations)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in failures:
        print(f"FAILED {msg}")
    record.update(failures=failures, attempted=attempted, failed=failed)
    (BUILD / "results" / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0 and not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
