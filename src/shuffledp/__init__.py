"""Exact and asymptotic privacy accounting for shuffled binary-input channels.

The package computes, for a local channel W applied by n users and observed
only through the shuffled message histogram: the exact likelihood-ratio
atomization and its (eps, delta) / trade-off / divergence consequences, the
Fisher-constant Gaussian (GDP) limit with its convergence diagnostics,
closed-form Chernoff-style bounds, the unbundled multi-message extension,
and deterministic Monte Carlo fallbacks.

`import shuffledp` loads neither numpy nor any engine module: each public
name is looked up in the submodule that defines it on first access (PEP 562
module `__getattr__`), so a job loads only the engines it calls.  The value
is not cached here, so `shuffledp.f` is always what `shuffledp.<module>.f`
holds at that moment.

Importing the package before numpy caps numpy's bundled OpenBLAS at one
thread (`OPENBLAS_NUM_THREADS=1`, unless the caller set a value).  The
package makes no BLAS or LAPACK call, so a pool gains nothing, but importing
numpy starts one whose idle workers spin and burn CPU in every short job.
Child processes inherit the variable.
"""

import importlib
import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import EnumerationCapError, InternalInvariantError, ValidationError

# Public names by the submodule that defines them.
_EXPORTS = {
    "channels": (
        "Channel",
        "ScoreStats",
        "Support",
        "validate_channel",
        "rr_channel",
        "score_stats",
        "channel_to_json",
        "channel_from_json",
    ),
    "simplex_linalg": (
        "FisherReport",
        "one_hot_cov",
        "sigma_pi",
        "fisher_constant",
    ),
    "records": (
        "Composition",
        "PrivacyCurve",
        "Sidedness",
        "parse_csv",
    ),
    "exact_dist": (
        "LrAtomization",
        "lr_atoms",
        "binomial_lr_atoms",
        "binomial_curve",
        "privacy_curve",
    ),
    "fold": (
        "HistogramLaw",
        "histogram_law",
        "mean_histogram",
        "law_to_csv",
    ),
    "diagnostics": (
        "TradeoffCurve",
        "DivergenceReport",
        "ResidualSummary",
        "reverse_atomization",
        "tradeoff_curve",
        "divergences",
        "conditional_score",
        "linearization_residual",
    ),
    "asymptotics": (
        "ExpansionReport",
        "GdpParams",
        "GdpSource",
        "gdp_mu",
        "gdp_delta",
        "gaussian_tradeoff",
        "jsd_canonical_asymptotic",
        "leading_divergence",
        "MmComparison",
        "mm_gdp_compare",
        "Regime",
        "RrBoundary",
        "rr_boundary",
    ),
    "bounds": (
        "ChernoffEvaluation",
        "chernoff_curve",
        "chernoff_delta",
        "unbundled_hoeffding_delta",
    ),
    "multimessage": (
        "unbundled_lr",
        "unbundled_lr_atoms",
    ),
    "montecarlo": (
        "FrequencyMseReport",
        "Hypothesis",
        "SimConfig",
        "sample_privacy_loss",
        "kolmogorov_to_gaussian",
        "dkw_radius",
        "rate_exponent",
        "frequency_mse",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "__version__",
    "ValidationError",
    "EnumerationCapError",
    "InternalInvariantError",
    *_OWNER,
]


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
