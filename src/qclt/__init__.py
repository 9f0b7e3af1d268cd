"""Quenched CLT diagnostics for finite reversible Markov chains.

Subpackages cover chain validation and L2(pi) geometry (:mod:`qclt.chain`),
spectral measures and condition integrals (:mod:`qclt.spectral`), the
martingale approximation and its exact residual diagnostics
(:mod:`qclt.martingale`), reproducible Monte Carlo CLT tests
(:mod:`qclt.simulate`), random walks on abelian groups and the torus
(:mod:`qclt.group_walk`), and maximal-inequality verification
(:mod:`qclt.inequalities`).
"""

import importlib

# Public names and the submodule that defines each.  They are imported on
# first access (PEP 562), so ``import qclt`` and ``import qclt.cli`` load
# only what is used.
_EXPORTS = {
    "chain": ("FiniteChain", "Observable", "adjoint_kernel", "as_observable",
              "center_observable", "classify_chain", "inner_product", "load_document",
              "make_chain"),
    "martingale": ("MartingaleScheme", "poisson_solve", "projection_series",
                   "quenched_diagnostics", "tail_sup_deviation", "truncated_scheme"),
    "simulate": ("SimulationReport", "ks_distance", "simulate_quenched"),
    "spectral": ("SpectralMeasure", "spectral_integral", "spectral_measure",
                 "variance_growth"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:        # submodules such as ``qclt.chain``
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
