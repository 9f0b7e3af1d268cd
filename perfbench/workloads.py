"""Seeded inputs, CLI command lists and output checks for each workload.

A workload is a closed loop of ``qclt`` CLI commands run one after another
from one process.  ``build(name, seed, workdir, size)`` writes the inputs
for ``seed`` into ``workdir`` and returns a :class:`Workload`.  Only values
change with the seed (step weights, observables, start states, Monte Carlo
seeds); shapes are fixed by ``SIZES`` so timings compare across seeds.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

GOLDEN_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0
README_KERNEL = [[0.75, 0.25], [0.25, 0.75]]
TORUS_LAZY = 0.5
# group-wide's step measure: 1/2 at the identity, the rest on +-g pairs.  It
# is fixed rather than seeded because the Jacobi sweep count (10 to 13 on
# order 110) depends on the weights and moved the workload's time by up to
# 20% between seeds; the seed picks the observable, start and MC seed.
GROUP_STEP = [((1, 0), 0.16), ((0, 1), 0.12), ((3, 2), 0.12), ((5, 7), 0.10)]

# Input shapes.  "full" is what the benchmark measures; "tiny" is for the
# smoke test and finishes in seconds.
SIZES = {
    "full": {
        "mc-desk": {"paths": 4000, "n": 4096},
        "group-wide": {"moduli": (11, 10), "paths": 1000, "n": 1024,
                       "horizons": [2 ** k for k in range(11)]},
        "verify-full": {"quick": False},
    },
    "tiny": {
        "mc-desk": {"paths": 200, "n": 64},
        "group-wide": {"moduli": (4, 3), "paths": 200, "n": 32,
                       "horizons": [1, 2, 4]},
        "verify-full": {"quick": True},
    },
}

# End-to-end metrics fed by one command's wall time, with their unit.
COMMAND_METRICS = {
    "sim_steps_per_s": "steps/s",
    "sim_steps_per_s_2t": "steps/s",
    "torus_steps_per_s": "steps/s",
    "group_s": "s",
    "analyze_s": "s",
    "approx_s": "s",
}


@dataclass
class Command:
    label: str
    argv: list
    # report text -> failure messages (exit codes are checked by the runner)
    check: Callable[[str], list]
    steps: int = 0                # paths x n for path-sampling commands
    metric: str | None = None     # key of COMMAND_METRICS fed by this command


@dataclass
class Workload:
    name: str
    commands: list
    # kernel shapes the traced run replays on every backend and worker count
    probe: dict


def _report(stdout: str, section: str = "report") -> dict:
    return checks.key_values(checks.sections(stdout).get(section, []))


def _write_json(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return str(path)


def _simulate_check(q, pi, f_raw, start, n, paths, dump, twin_dump=None):
    """Checks for ``simulate``: telescoping, exact moments, the dump, and
    (for the threads-2 twin) byte identity with the threads-1 run."""
    f = np.asarray(f_raw, dtype=float) - float(pi @ np.asarray(f_raw, dtype=float))
    mean_n, var_n = checks.chain_moments(q, f, start, n)

    def check(stdout):
        rep = _report(stdout)
        try:
            fails = []
            if checks.number(rep, "residual_max") > checks.TELESCOPING_TOL:
                fails.append(f"residual_max {rep['residual_max']} > {checks.TELESCOPING_TOL}")
            fails += checks.sample_checks(rep, mean_n, var_n,
                                          checks.number(rep, "sigma_sq_used"), paths, n)
            fails += checks.dump_checks(dump, rep, paths)
        except (KeyError, ValueError, OSError) as exc:
            return [f"unreadable simulate output: {exc!r}"]
        if twin_dump is not None:
            with open(dump, "rb") as a, open(twin_dump, "rb") as b:
                if a.read() != b.read():
                    fails.append("threads-1 and threads-2 dumps differ")
        return fails
    return check


def mc_desk(seed: int, workdir: str, size: dict) -> Workload:
    rng = np.random.default_rng([seed, 1])
    paths, n = size["paths"], size["n"]
    a = float(rng.uniform(-2.0, 2.0))
    f_raw = [a, a - float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))]
    start = int(rng.integers(0, 2))
    mc_seed = int(rng.integers(0, 2 ** 31))
    doc = _write_json(os.path.join(workdir, "desk.json"),
                      {"states": ["0", "1"], "Q": README_KERNEL,
                       "observables": {"f": f_raw}})
    q = np.array(README_KERNEL)
    pi = checks.stationary(q)
    coeffs = {1: complex(*rng.uniform(-0.6, 0.6, size=2)),
              2: complex(*rng.uniform(-0.3, 0.3, size=2))}
    coeff_path = _write_json(os.path.join(workdir, "coeffs.json"),
                             [[nu, c.real, c.imag] for nu, c in coeffs.items()])
    x0 = float(rng.uniform(0.0, 1.0))
    torus_seed = int(rng.integers(0, 2 ** 31))

    dumps = [os.path.join(workdir, f"desk-t{t}.csv") for t in (1, 2)]
    sim = ["simulate", doc, "--observable", "f", "--start", str(start),
           "--n", str(n), "--paths", str(paths), "--seed", str(mc_seed)]
    commands = [
        Command("simulate-t1", sim + ["--threads", "1", "--dump", dumps[0]],
                _simulate_check(q, pi, f_raw, start, n, paths, dumps[0]),
                steps=paths * n, metric="sim_steps_per_s"),
        Command("simulate-t2", sim + ["--threads", "2", "--dump", dumps[1]],
                _simulate_check(q, pi, f_raw, start, n, paths, dumps[1], dumps[0]),
                steps=paths * n, metric="sim_steps_per_s_2t"),
        Command("torus", ["torus", "--lazy", str(TORUS_LAZY), "--coeffs", coeff_path,
                          "--paths", str(paths), "--n", str(n), "--start", repr(x0),
                          "--seed", str(torus_seed), "--threads", "2"],
                _torus_check(coeffs, x0, n, paths),
                steps=paths * n, metric="torus_steps_per_s"),
    ]
    probe = {"chain": {"doc": doc, "observable": "f", "start": str(start), "n": n,
                       "paths": paths, "seed": mc_seed},
             "torus": {"coeffs": [[nu, c.real, c.imag] for nu, c in coeffs.items()],
                       "lazy": TORUS_LAZY, "x0": x0, "n": n, "paths": paths,
                       "seed": torus_seed}}
    return Workload("mc-desk", commands, probe)


def _torus_check(coeffs, x0, n, paths):
    sigma_sq = checks.torus_sigma_sq(coeffs, GOLDEN_ALPHA, TORUS_LAZY)
    mean_n, var_n = checks.torus_moments(coeffs, GOLDEN_ALPHA, TORUS_LAZY, x0, n)

    def check(stdout):
        rep = _report(stdout)
        series = checks.sections(stdout).get("series", [])
        try:
            fails = []
            if not checks.close(checks.number(rep, "sigma_sq_used"), sigma_sq,
                                checks.REPORT_RTOL):
                fails.append(f"sigma_sq_used {rep['sigma_sq_used']} vs reference {sigma_sq:.12g}")
            if len(series) != 1 + len(coeffs):
                fails.append(f"series table has {len(series) - 1} rows, expected {len(coeffs)}")
            fails += checks.sample_checks(rep, mean_n, var_n, sigma_sq, paths, n)
        except (KeyError, ValueError) as exc:
            return [f"unreadable torus output: {exc!r}"]
        return fails
    return check


def _neg(e, moduli):
    return tuple((-c) % m for c, m in zip(e, moduli))


def group_wide(seed: int, workdir: str, size: dict) -> Workload:
    rng = np.random.default_rng([seed, 2])
    moduli = tuple(size["moduli"])
    paths, n = size["paths"], size["n"]
    step = {(0, 0): 0.5}
    for g, w in GROUP_STEP:
        for e in (g, _neg(g, moduli)):
            e = tuple(c % m for c, m in zip(e, moduli))
            step[e] = step.get(e, 0.0) + w / 2.0
    step_text = ",".join(f"{e[0]}.{e[1]}:{p!r}" for e, p in step.items())
    freqs = (0, 0)
    while freqs == (0, 0):
        freqs = (int(rng.integers(0, moduli[0])), int(rng.integers(0, moduli[1])))
    elements = [(i, j) for i in range(moduli[0]) for j in range(moduli[1])]
    start = elements[int(rng.integers(0, len(elements)))]
    start_label = f"{start[0]},{start[1]}"
    mc_seed = int(rng.integers(0, 2 ** 31))

    # reference kernel and observable, built here from the step measure
    index = {e: i for i, e in enumerate(elements)}
    q = np.zeros((len(elements), len(elements)))
    for e in elements:
        for g, p in step.items():
            q[index[e], index[tuple((a + b) % m for a, b, m in zip(e, g, moduli))]] += p
    pi = np.full(len(elements), 1.0 / len(elements))
    ang = sum(2.0 * math.pi * k / m * np.array([e[d] for e in elements], dtype=float)
              for d, (k, m) in enumerate(zip(freqs, moduli)))
    f_raw = math.sqrt(2.0) * np.cos(ang)
    f = f_raw - float(pi @ f_raw)
    total_ref, sigma_ref = checks.spectral_reference(q, pi, f)
    obs = f"harmonic{freqs[0]}_{freqs[1]}"
    doc = os.path.join(workdir, "group.json")
    dumps = [os.path.join(workdir, f"group-t{t}.csv") for t in (1, 2)]
    labels = [f"{e[0]},{e[1]}" for e in elements]

    def check_group(stdout):
        try:
            walk, cond = _report(stdout, "walk"), _report(stdout, "conditions")
            fails = []
            if (walk.get("order"), walk.get("symmetric"), walk.get("ergodic")) != \
                    (str(len(elements)), "true", "true"):
                fails.append(f"walk section {walk} is not an ergodic symmetric walk of "
                             f"order {len(elements)}")
            if not checks.close(checks.number(cond, "SR_sum"),
                                checks.number(cond, "SR_spectral"), checks.REPORT_RTOL):
                fails.append(f"SR_sum {cond['SR_sum']} != SR_spectral {cond['SR_spectral']}")
            with open(doc) as fh:
                emitted = json.load(fh)
            order = [emitted["states"].index(lab) for lab in labels]
            q_doc = np.array(emitted["Q"])[np.ix_(order, order)]
            f_doc = np.array(emitted["observables"][obs])[order]
            if np.max(np.abs(q_doc - q)) > 1e-12 or np.max(np.abs(f_doc - f_raw)) > 1e-12:
                fails.append("emitted document differs from the step measure's kernel")
        except (KeyError, ValueError, OSError) as exc:
            return [f"unreadable group output: {exc!r}"]
        return fails

    def check_analyze(stdout):
        rep = _report(stdout, "spectral")
        try:
            fails = []
            for key, ref in (("total_mass", total_ref), ("sigma_sq", sigma_ref)):
                if not checks.close(checks.number(rep, key), ref, 1e-8):
                    fails.append(f"{key} {rep[key]} vs eigh reference {ref:.12g}")
        except (KeyError, ValueError) as exc:
            return [f"unreadable analyze output: {exc!r}"]
        return fails

    xi = index[start]
    cond_ref = {h: float(checks.power_sum_rows(q, f, h)[xi]) for h in size["horizons"]}

    def check_approx(stdout):
        rows = checks.sections(stdout).get("diagnostics", [])[1:]
        if len(rows) != len(cond_ref):
            return [f"approx printed {len(rows)} rows, expected {len(cond_ref)}"]
        fails = []
        for row in rows:
            parts = row.split(",")      # state labels contain commas
            h, x, cond = parts[0], ",".join(parts[1:-4]), parts[-4]
            ref = cond_ref[int(h)]
            if x != start_label or not checks.close(float(cond), ref, 1e-8, 1e-10 * int(h)):
                fails.append(f"cond_mean at n={h}, x={x}: {cond} vs matrix powers {ref:.12g}")
        return fails

    sim = ["simulate", doc, "--observable", obs, "--start", start_label,
           "--n", str(n), "--paths", str(paths), "--seed", str(mc_seed)]
    commands = [
        Command("group", ["group", "--moduli", f"{moduli[0]},{moduli[1]}",
                          "--step", step_text, "--harmonic", f"{freqs[0]},{freqs[1]}",
                          "--output", doc], check_group, metric="group_s"),
        Command("analyze", ["analyze", doc, "--observable", obs], check_analyze,
                metric="analyze_s"),
        Command("approx", ["approx", doc, "--observable", obs, "--start", start_label,
                           "--n", ",".join(str(h) for h in size["horizons"])],
                check_approx, metric="approx_s"),
        Command("simulate-t1", sim + ["--threads", "1", "--dump", dumps[0]],
                _simulate_check(q, pi, f_raw, xi, n, paths, dumps[0]),
                steps=paths * n, metric="sim_steps_per_s"),
        Command("simulate-t2", sim + ["--threads", "2", "--dump", dumps[1]],
                _simulate_check(q, pi, f_raw, xi, n, paths, dumps[1], dumps[0]),
                steps=paths * n, metric="sim_steps_per_s_2t"),
    ]
    probe = {"chain": {"doc": doc, "observable": obs, "start": start_label, "n": n,
                       "paths": paths, "seed": mc_seed}}
    return Workload("group-wide", commands, probe)


def verify_full(seed: int, workdir: str, size: dict) -> Workload:
    # the suite's inputs are built in; the seed only varies the kernel probe
    argv = ["verify"] + (["--quick"] if size["quick"] else [])

    def check(stdout):
        lines = stdout.strip().splitlines()
        fails = [line for line in lines if line.startswith("FAIL")]
        if not lines or lines[-1] != "result = 12/12 passed":
            fails.append(f"last line {lines[-1] if lines else ''!r} is not 'result = 12/12 passed'")
        return fails

    # the kernel shape of the suite's telescoping check (two-state chain,
    # 1000 paths of 256 steps)
    doc = _write_json(os.path.join(workdir, "telescoping.json"),
                      {"states": ["0", "1"], "Q": README_KERNEL,
                       "observables": {"sign": [1.0, -1.0]}})
    probe = {"chain": {"doc": doc, "observable": "sign", "start": "0", "n": 256,
                       "paths": 1000, "seed": int(np.random.default_rng([seed, 3])
                                                  .integers(0, 2 ** 31))}}
    return Workload("verify-full", [Command("verify", argv, check)], probe)


BY_NAME = {"mc-desk": mc_desk, "group-wide": group_wide, "verify-full": verify_full}


def build(name: str, seed: int, workdir: str, size: str = "full") -> Workload:
    return BY_NAME[name](seed, workdir, SIZES[size][name])
