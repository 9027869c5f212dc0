"""Complex-valued partner potentials with prescribed real spectra.

Lazy attribute loading keeps `import darboux_lab` free of numpy so the
command line front end can pin BLAS thread pools first.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # fields
    "RealField": "fields",
    "ComplexField": "fields",
    "EigenState": "fields",
    "interior_grid": "fields",
    "grid_step": "fields",
    "is_symmetric_grid": "fields",
    # quadrature
    "simpson_samples": "quadrature",
    "adaptive_simpson": "quadrature",
    # specfun
    "log_gamma": "specfun",
    # potentials
    "PotentialSpec": "potentials",
    "make_morse": "potentials",
    "make_pt": "potentials",
    "make_oscillator": "potentials",
    "energy": "potentials",
    "bound_state": "potentials",
    # seeds
    "SeedPair": "seeds",
    "SeedBackendError": "seeds",
    "analytic_pair": "seeds",
    "numeric_pair": "seeds",
    "wronskian_drift": "seeds",
    "q_integral": "seeds",
    # ermakov
    "ErmakovCoeffs": "ermakov",
    "AlphaFunction": "ermakov",
    "make_coeffs": "ermakov",
    "invariant_j_scan": "ermakov",
    # darboux
    "SpectrumPrediction": "darboux",
    "predict_spectrum": "darboux",
    "complex_potential": "darboux",
    "transform_bound_state": "darboux",
    "missing_state": "darboux",
    "real_family_lambda0": "darboux",
    "zero_total_area": "darboux",
    "pt_symmetry_check": "darboux",
    # oracle
    "FdHamiltonian": "oracle",
    "InterlacingReport": "oracle",
    "build_fd": "oracle",
    "dense_eigenvalues": "oracle",
    "eig_complex": "oracle",
    "charpoly_roots": "oracle",
    "schrodinger_residual": "oracle",
    "interlacing_check": "oracle",
    "binorm": "oracle",
    # pipeline
    "Construction": "pipeline",
    "build_construction": "pipeline",
    "spectrum_check": "pipeline",
    "richardson_spectrum": "pipeline",
    "verification_suite": "pipeline",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
