"""Monte Carlo tests of the fixed-start central limit theorem.

Paths are sampled under the law started at one state; the empirical law of
``S_n / sqrt(n)`` is compared against the centered normal with the scheme's
limit variance via the one-sample Kolmogorov-Smirnov statistic.  The
telescoping identity ``S_n - M_n = (Qg)(xi_0) - (Qg)(xi_n)`` is re-checked
pathwise on every run.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .chain import FiniteChain, guarded_writes, open_output
from .errors import BadIndexOrder, DegenerateSigma, EmptySample, NonFiniteValue

if TYPE_CHECKING:
    from .martingale import MartingaleScheme

SIGMA_FLOOR = 1e-12
MIN_PATHS = 100
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SimulationReport:
    """Empirical fixed-start CLT statistics for one (start state, horizon)."""

    start_state: int
    n: int
    num_paths: int
    seed: int
    sample_mean: float          # mean of S_n / sqrt(n)
    sample_var: float           # unbiased variance of S_n / sqrt(n)
    ks_distance: float          # against N(0, sigma_sq_used)
    residual_max: float | None  # max pathwise telescoping defect (None: no scheme)
    sigma_sq_used: float


def standard_normal_cdf(x):
    """Standard normal CDF via the error function (|abs error| well below 1e-9)."""
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.reshape(-1)
    out = np.array([0.5 * math.erfc(-v / SQRT2) for v in flat])
    return out.reshape(arr.shape) if arr.shape else float(out[0])


def ks_distance(sample, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic of a sorted sample against a CDF.

    Returns ``max_i max(i/N - F(x_i), F(x_i) - (i-1)/N)`` for the ascending
    sample ``x_1 <= ... <= x_N``.
    """
    xs = np.asarray(sample, dtype=np.float64)
    n = xs.shape[0]
    if n == 0:
        raise EmptySample("KS statistic of an empty sample")
    fx = np.asarray(cdf(xs), dtype=np.float64)
    grid = np.arange(1, n + 1, dtype=np.float64) / n
    return float(max(np.max(grid - fx), np.max(fx - (grid - 1.0 / n))))


def check_run(n: int, num_paths: int, sigma_sq: float) -> None:
    """Refuse a fixed-start run, before its kernel, with fewer than ``MIN_PATHS``
    paths, ``n`` outside ``[1, kernels.MAX_STEPS]``, or a limit variance that
    is not finite or is at most ``SIGMA_FLOOR`` (the scaled sums collapse; a
    KS comparison is meaningless)."""
    if num_paths < MIN_PATHS:
        raise EmptySample(f"need at least {MIN_PATHS} paths, got {num_paths}")
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    if n > kernels.MAX_STEPS:
        raise BadIndexOrder(f"need n <= {kernels.MAX_STEPS}, got n={n}")
    if not math.isfinite(sigma_sq):
        raise NonFiniteValue(f"limit variance {sigma_sq!r} is not finite")
    if sigma_sq <= SIGMA_FLOOR:
        raise DegenerateSigma(f"limit variance {sigma_sq!r} is numerically zero")


def sample_report(sums: np.ndarray, start_state: int, n: int, seed: int,
                  sigma_sq: float, residual_max: float | None = None) -> SimulationReport:
    """Mean, unbiased variance and KS distance from ``N(0, sigma_sq)`` of the
    scaled sums ``S_n / sqrt(n)``.  The squared deviations are summed in units
    of a power of two near the largest, exactly, so the variance is the plain
    two-pass one bit for bit, and finite wherever the answer is."""
    scaled = sums / math.sqrt(n)
    mean = float(np.mean(scaled))
    dev = scaled - mean
    s = math.ldexp(1.0, math.frexp(float(np.max(np.abs(dev))))[1] - 1)
    var = float(np.sum((dev / s) ** 2)) / max(len(scaled) - 1, 1) * s * s
    kd = ks_distance(np.sort(scaled / math.sqrt(sigma_sq)), standard_normal_cdf)
    return SimulationReport(
        start_state=start_state, n=n, num_paths=len(scaled), seed=seed,
        sample_mean=mean, sample_var=var, ks_distance=kd,
        residual_max=residual_max, sigma_sq_used=sigma_sq)


def cumulative_rows(chain: FiniteChain) -> np.ndarray:
    """Per-row cumulative kernel sums with the last column pinned to 1.0."""
    cum = np.cumsum(chain.kernel, axis=1)
    cum[:, -1] = 1.0
    return np.ascontiguousarray(cum)


def simulate_quenched(chain: FiniteChain, scheme: MartingaleScheme, x,
                      n: int, num_paths: int, seed: int,
                      workers: int = 1, dump_path=None) -> SimulationReport:
    """Monte Carlo law of ``S_n / sqrt(n)`` started at ``x``.

    Results are bit-identical for any ``workers`` value: per-path streams
    are counter-based in the path index and aggregation is an ordered
    two-pass mean/variance over the path-indexed array.  The run policy is
    :func:`check_run`'s.
    """
    check_run(n, num_paths, scheme.sigma_sq)
    start = chain.index_of(x)
    created = False
    if dump_path is not None:
        # a bad path fails before the run.  Appending truncates nothing, so a
        # refused run leaves an earlier dump as it was; a file that did not
        # exist ("x" creates it) is removed again if the run fails
        with guarded_writes(dump_path):
            try:
                with open(dump_path, "x"):
                    created = True
            except FileExistsError:
                with open(dump_path, "a"):
                    pass
    try:
        sums, mart_sums, last = kernels.run_chain_paths(
            cumulative_rows(chain), scheme.g - scheme.qg, scheme.diff_kernel, start, n,
            num_paths, seed, workers=workers)
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(dump_path)
        raise
    jump = scheme.qg[start] - scheme.qg[last]
    residual_max = float(np.max(np.abs(sums - mart_sums - jump)))
    if dump_path is not None:
        with open_output(dump_path) as dump:
            _dump_samples(dump, sums / math.sqrt(n), mart_sums / math.sqrt(n))
    return sample_report(sums, start, n, seed, scheme.sigma_sq, residual_max)


def _dump_samples(fh, s_scaled: np.ndarray, m_scaled: np.ndarray) -> None:
    rows = map("{},{:.12g},{:.12g}\n".format, range(s_scaled.shape[0]),
               s_scaled.tolist(), m_scaled.tolist())
    fh.write("".join(["path_index,s_scaled,m_scaled\n", *rows]))
