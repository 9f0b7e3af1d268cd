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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import kernels
from .chain import FiniteChain, open_output
from .errors import BadIndexOrder, DegenerateSigma, EmptySample
from .rng import PathStream

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
    backend: str


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


def scaled_sum_stats(sums: np.ndarray, n: int, sigma_sq: float):
    """Scaled sums ``S_n / sqrt(n)`` with their mean, unbiased variance and
    KS distance from ``N(0, sigma_sq)``, as ``(scaled, mean, var, ks)``."""
    scaled = sums / math.sqrt(n)
    mean = float(np.mean(scaled))
    var = float(np.sum((scaled - mean) ** 2) / max(len(scaled) - 1, 1))
    kd = ks_distance(np.sort(scaled / math.sqrt(sigma_sq)), standard_normal_cdf)
    return scaled, mean, var, kd


def cumulative_rows(chain: FiniteChain) -> np.ndarray:
    """Per-row cumulative kernel sums with the last column pinned to 1.0."""
    cum = np.cumsum(chain.kernel, axis=1)
    cum[:, -1] = 1.0
    return np.ascontiguousarray(cum)


def sample_path(chain: FiniteChain, x, n: int, stream: PathStream) -> np.ndarray:
    """One path ``xi_0 = x, xi_1, ..., xi_n`` by inverse-CDF lookup.

    Replays exactly the transitions the batch kernels draw for the stream's
    ``(seed, path_index)``.
    """
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    cum = cumulative_rows(chain)
    state = chain.index_of(x)
    out = np.empty(n + 1, dtype=np.int64)
    out[0] = state
    for k in range(1, n + 1):
        u = stream.uniform()
        state = int(np.searchsorted(cum[state], u, side="right"))
        out[k] = state
    return out


def simulate_quenched(chain: FiniteChain, scheme: MartingaleScheme, x,
                      n: int, num_paths: int, seed: int,
                      workers: int = 1, dump_path=None) -> SimulationReport:
    """Monte Carlo law of ``S_n / sqrt(n)`` started at ``x``.

    Results are bit-identical for any ``workers`` value: per-path streams
    are counter-based in the path index and aggregation is an ordered
    two-pass mean/variance over the path-indexed array.

    Raises
    ------
    DegenerateSigma
        If the scheme's limit variance is at most 1e-12 (the scaled sums
        collapse; a KS comparison is meaningless).
    """
    if num_paths < MIN_PATHS:
        raise EmptySample(f"need at least {MIN_PATHS} paths, got {num_paths}")
    if n < 1:
        raise BadIndexOrder(f"need n >= 1, got n={n}")
    if scheme.sigma_sq <= SIGMA_FLOOR:
        raise DegenerateSigma(
            f"limit variance {scheme.sigma_sq!r} is numerically zero; "
            "only residual checks are meaningful for this observable"
        )
    start = chain.index_of(x)
    fvals = np.ascontiguousarray(scheme.g - scheme.qg)
    hmat = np.ascontiguousarray(scheme.diff_kernel)
    # the dump file is opened before the run, so a bad path fails at once
    with (contextlib.nullcontext() if dump_path is None
          else open_output(dump_path)) as dump:
        sums, mart_sums, last = kernels.run_chain_paths(
            cumulative_rows(chain), fvals, hmat, start, n, num_paths, seed,
            workers=workers)

        jump = scheme.qg[start] - scheme.qg[last]
        residual_max = float(np.max(np.abs(sums - mart_sums - jump)))
        scaled, mean, var, kd = scaled_sum_stats(sums, n, scheme.sigma_sq)
        if dump is not None:
            _dump_samples(dump, scaled, mart_sums / math.sqrt(n))

    return SimulationReport(
        start_state=start, n=n, num_paths=num_paths, seed=seed,
        sample_mean=mean, sample_var=var, ks_distance=kd,
        residual_max=residual_max, sigma_sq_used=scheme.sigma_sq,
        backend=kernels.BACKEND)


def _dump_samples(fh, s_scaled: np.ndarray, m_scaled: np.ndarray) -> None:
    rows = map("{},{:.12g},{:.12g}\n".format, range(s_scaled.shape[0]),
               s_scaled.tolist(), m_scaled.tolist())
    fh.write("".join(["path_index,s_scaled,m_scaled\n", *rows]))
