"""Report parsing, independent references and output checks.

Every reference here is computed by the benchmark from the inputs it
generated, without calling into ``qclt``: spectra come from
``np.linalg.eigh``, conditional means from matrix powers, and the exact law
of ``S_n`` from backward moment recursions (chains) or closed-form
characteristic sums (torus).  A check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

# Monte Carlo checks use z-scores this large: a correct program fails one of
# them with probability below 1e-8 per check, so a failure is a real defect.
Z = 6.0
# KS false-alarm level; sqrt(log(2 / p) / 2) / sqrt(N) is the Kolmogorov
# (Dvoretzky-Kiefer-Wolfowitz) bound on the sampling part of the distance.
KS_P = 1e-8
# The pathwise telescoping tolerance used by ``qclt verify``.
TELESCOPING_TOL = 1e-9
# Reports carry 12 significant digits.
REPORT_RTOL = 1e-9


# -- parsing -------------------------------------------------------------------

def sections(text: str) -> dict:
    """Split a report into ``{section: [lines]}``."""
    out: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            out[current] = []
        elif current is not None:
            out[current].append(line)
    return out


def key_values(lines) -> dict:
    out = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def number(fields: dict, key: str) -> float:
    return float(fields[key])


def result_digest(text: str) -> str:
    """sha256 of a report without its ``[config]`` section (which echoes paths)."""
    kept = [f"[{name}]\n" + "\n".join(lines)
            for name, lines in sections(text).items() if name != "config"]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


# -- chain references ----------------------------------------------------------

def stationary(q: np.ndarray) -> np.ndarray:
    s = q.shape[0]
    a = np.vstack([q.T - np.eye(s), np.ones(s)])
    b = np.zeros(s + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(a, b, rcond=None)[0]


def spectral_reference(q: np.ndarray, pi: np.ndarray, f: np.ndarray):
    """``(total_mass, sigma_sq)`` of centered ``f`` from ``np.linalg.eigh``."""
    rt = np.sqrt(pi)
    sym = rt[:, None] * q / rt[None, :]
    t, v = np.linalg.eigh(0.5 * (sym + sym.T))
    masses = (v.T @ (rt * f)) ** 2
    total = float(masses.sum())
    keep = np.abs(1.0 - t) > 1e-9
    sigma_sq = float(np.sum(masses[keep] * (1.0 + t[keep]) / (1.0 - t[keep])))
    return total, sigma_sq


def power_sum_rows(q: np.ndarray, f: np.ndarray, n: int) -> np.ndarray:
    """``sum_{k=1}^n Q^k f`` by binary powering (independent of a k-loop)."""
    s = q.shape[0]
    acc_sum = np.zeros((s, s))       # sum_{k=1}^{done} Q^k
    acc_pow = np.eye(s)              # Q^{done}
    block_sum, block_pow = q.copy(), q.copy()   # sum_{k=1}^{2^i} Q^k, Q^{2^i}
    m = n
    while m:
        if m & 1:
            acc_sum = acc_sum + acc_pow @ block_sum
            acc_pow = acc_pow @ block_pow
        m >>= 1
        if m:
            block_sum = block_sum + block_pow @ block_sum
            block_pow = block_pow @ block_pow
    return acc_sum @ f


def chain_moments(q: np.ndarray, f: np.ndarray, start: int, n: int):
    """Exact mean and variance of ``S_n / sqrt(n)``, ``S_n = sum_{k=1}^n f(xi_k)``."""
    a = np.zeros(q.shape[0])   # a_k(y) = E_y S_k
    b = np.zeros(q.shape[0])   # b_k(y) = E_y S_k^2
    for _ in range(n):
        a, b = q @ (f + a), q @ (f * f + 2.0 * f * a + b)
    mean = a[start] / math.sqrt(n)
    var = (b[start] - a[start] ** 2) / n
    return float(mean), float(var)


# -- torus reference -----------------------------------------------------------

def torus_multiplier(nu, alpha: float, lazy: float):
    return lazy + (1.0 - lazy) * np.cos(2.0 * np.pi * np.asarray(nu, dtype=float) * alpha)


def torus_sigma_sq(coeffs: dict, alpha: float, lazy: float) -> float:
    acc = 0.0
    for nu, c in coeffs.items():
        phi = float(torus_multiplier(nu, alpha, lazy))
        acc += 2.0 * abs(c) ** 2 * (1.0 + phi) / (1.0 - phi)
    return acc


def torus_moments(coeffs: dict, alpha: float, lazy: float, x0: float, n: int):
    """Exact mean and variance of ``S_n / sqrt(n)`` for the rotation walk.

    With ``f(x) = sum_nu a_nu e(nu x)`` over both signs of each frequency,
    ``E e(nu x_k) = e(nu x0) phi_nu^k`` and, for ``j <= k``,
    ``E e(nu x_j + mu x_k) = e((nu + mu) x0) phi_{nu+mu}^j phi_mu^{k-j}``.
    """
    amp = {}
    for nu, c in coeffs.items():
        amp[nu], amp[-nu] = complex(c), complex(c).conjugate()
    ks = np.arange(1, n + 1, dtype=float)

    def geo(phi):           # sum_{k=1}^{m} phi^k for m = 0..n
        return np.concatenate([[0.0], np.cumsum(phi ** ks)])

    def e(x):
        return complex(math.cos(2.0 * math.pi * x), math.sin(2.0 * math.pi * x))

    mean = sum(a * e(nu * x0) * geo(torus_multiplier(nu, alpha, lazy))[n]
               for nu, a in amp.items())
    second = 0j
    for nu, a in amp.items():
        for mu, b in amp.items():
            ps = torus_multiplier(nu + mu, alpha, lazy) ** ks          # phi_s^j
            tail_mu = geo(torus_multiplier(mu, alpha, lazy))[n - ks.astype(int)]
            tail_nu = geo(torus_multiplier(nu, alpha, lazy))[n - ks.astype(int)]
            pairs = np.sum(ps) + np.sum(ps * tail_mu) + np.sum(ps * tail_nu)
            second += a * b * e((nu + mu) * x0) * pairs
    mean_r, second_r = mean.real, second.real
    return mean_r / math.sqrt(n), (second_r - mean_r ** 2) / n


# -- Monte Carlo checks ----------------------------------------------------------

def sample_checks(report: dict, mean_n: float, var_n: float, sigma_sq: float,
                  paths: int, n: int) -> list:
    """Check ``sample_mean``, ``sample_var`` and ``ks_distance`` of a report.

    ``mean_n``/``var_n`` are the exact finite-n mean and variance of
    ``S_n / sqrt(n)``.  ``sample_var`` may differ from ``sigma_sq`` by the
    exact finite-n bias ``|var_n - sigma_sq|`` plus ``Z`` standard errors of
    a sample variance (``var_n sqrt(2 / (N - 1))``).  ``ks_distance`` may
    exceed 0 by the DKW sampling bound, plus the sup-distance between
    N(mean_n, var_n) and N(0, sigma_sq) (``|m| / sqrt(2 pi)`` for the shift,
    ``|s - 1| / sqrt(2 pi e)`` for the scale), plus ``1 / sqrt(n)`` for the
    non-Gaussian shape of a finite-n sum.
    """
    fails = []
    mean, var, ks = (number(report, k) for k in ("sample_mean", "sample_var",
                                                  "ks_distance"))
    if abs(mean - mean_n) > Z * math.sqrt(var_n / paths):
        fails.append(f"sample_mean {mean:.6g} vs exact {mean_n:.6g} "
                     f"(tolerance {Z * math.sqrt(var_n / paths):.3g})")
    var_tol = abs(var_n - sigma_sq) + Z * var_n * math.sqrt(2.0 / (paths - 1))
    if abs(var - sigma_sq) > var_tol:
        fails.append(f"sample_var {var:.6g} vs sigma_sq {sigma_sq:.6g} "
                     f"(tolerance {var_tol:.3g})")
    sigma = math.sqrt(sigma_sq)
    ks_tol = (math.sqrt(math.log(2.0 / KS_P) / 2.0) / math.sqrt(paths)
              + abs(mean_n) / (sigma * math.sqrt(2.0 * math.pi))
              + abs(math.sqrt(var_n) / sigma - 1.0) / math.sqrt(2.0 * math.pi * math.e)
              + 1.0 / math.sqrt(n))
    if not 0.0 <= ks <= ks_tol:
        fails.append(f"ks_distance {ks:.6g} outside [0, {ks_tol:.3g}]")
    return fails


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def ks_statistic(sample, sigma: float) -> float:
    xs = sorted(float(v) / sigma for v in sample)
    n = len(xs)
    worst = 0.0
    for i, x in enumerate(xs, start=1):
        fx = normal_cdf(x)
        worst = max(worst, i / n - fx, fx - (i - 1) / n)
    return worst


def dump_checks(path, report: dict, paths: int) -> list:
    """Recompute the report's statistics from a ``--dump`` file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["path_index", "s_scaled", "m_scaled"]] or len(rows) != paths + 1:
        return [f"dump {path} has a bad header or {len(rows) - 1} rows, expected {paths}"]
    s = np.array([float(r[1]) for r in rows[1:]])
    if [int(r[0]) for r in rows[1:]] != list(range(paths)):
        return [f"dump {path} path indices are not 0..{paths - 1}"]
    fails = []
    atol = 1e-9 * (1.0 + float(np.max(np.abs(s))))
    mean = float(np.mean(s))
    var = float(np.sum((s - mean) ** 2) / (paths - 1))
    for key, value in (("sample_mean", mean), ("sample_var", var)):
        if not close(number(report, key), value, REPORT_RTOL, atol):
            fails.append(f"{key} {report[key]} disagrees with the dump ({value:.12g})")
    ks = ks_statistic(s, math.sqrt(number(report, "sigma_sq_used")))
    if not close(number(report, "ks_distance"), ks, 1e-8, 1e-9):
        fails.append(f"ks_distance {report['ks_distance']} disagrees with the dump ({ks:.12g})")
    return fails
