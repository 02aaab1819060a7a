"""The package's public names: one list per module, re-exported whole."""

import importlib

import pytest

import rlspec

PUBLIC = {
    "RealLinearOperator", "identity", "conjugation", "scalar_operator", "apply",
    "parts_from_action", "add", "scale", "compose", "adjoint", "complexify", "realify",
    "operator_norm", "min_modulus", "schatten_norm", "poly_apply", "rotate",
    "CoeffMatrix", "SosDecomposition", "EmptinessCertificates", "charpoly_eval", "coeff_matrix",
    "coeff_poly_eval", "sos_decompose", "cholesky_sos", "sos_eval", "emptiness_certificates",
    "SpectralPoint", "SpectrumCloud", "ray_spectrum", "spectrum_sweep", "eigenvector",
    "NoEigenvalueCertificate", "no_eigenvalue_certificate", "InvariantLines",
    "common_invariant_1d", "KrylovSpan", "krylov_cspan",
    "NumFunReport", "numfun_eval", "convex_weights", "ray_extrema", "range_and_coverage",
    "DecaySpec", "SymbolSeries", "symbol_scale", "tail_weight", "hankel_truncation",
    "disk_truncation", "charfun_eval", "CharFunTable", "charfun_convergence", "trace_norm",
    "det_continuity_check",
    "ValidationError", "DimensionMismatch", "NumericalFailure", "NotPositiveDefinite",
    "__version__",
}

MODULES = ("operators", "charpoly", "spectrum", "numfun", "traceclass", "errors")


def test_public_names_are_unchanged_and_resolve():
    assert len(PUBLIC) == 59
    assert len(rlspec.__all__) == len(set(rlspec.__all__)) and set(rlspec.__all__) == PUBLIC
    for name in rlspec.__all__:
        assert getattr(rlspec, name) is not None, name


@pytest.mark.parametrize("module", MODULES)
def test_every_module_name_is_re_exported_as_itself(module):
    mod = importlib.import_module(f"rlspec.{module}")
    for name in mod.__all__:
        assert name in rlspec.__all__ and getattr(rlspec, name) is getattr(mod, name), name
