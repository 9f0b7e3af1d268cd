"""Quenched CLT diagnostics for finite reversible Markov chains.

Subpackages cover chain validation and L2(pi) geometry (:mod:`qclt.chain`),
spectral measures and condition integrals (:mod:`qclt.spectral`), the
martingale approximation and its exact residual diagnostics
(:mod:`qclt.martingale`), reproducible Monte Carlo CLT tests
(:mod:`qclt.simulate`), random walks on abelian groups and the torus
(:mod:`qclt.group_walk`), and maximal-inequality verification
(:mod:`qclt.inequalities`).
"""

from .chain import (
    FiniteChain,
    Observable,
    adjoint_kernel,
    as_observable,
    center_observable,
    classify_chain,
    inner_product,
    load_chain,
    load_document,
    make_chain,
)
from .martingale import (
    MartingaleScheme,
    poisson_solve,
    projection_series,
    quenched_diagnostics,
    tail_sup_deviation,
    truncated_scheme,
)
from .simulate import SimulationReport, ks_distance, sample_path, simulate_quenched
from .spectral import (
    SpectralMeasure,
    spectral_integral,
    spectral_measure,
    variance_growth,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteChain", "Observable", "MartingaleScheme", "SimulationReport",
    "SpectralMeasure", "adjoint_kernel", "as_observable", "center_observable",
    "classify_chain", "inner_product", "ks_distance", "load_chain",
    "load_document", "make_chain", "poisson_solve", "projection_series",
    "quenched_diagnostics", "sample_path", "simulate_quenched",
    "spectral_integral", "spectral_measure", "tail_sup_deviation",
    "truncated_scheme", "variance_growth",
]
