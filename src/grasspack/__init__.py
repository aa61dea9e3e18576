"""Mixed-rank subspace packings from mutually unbiased bases and block
designs, embedded isometrically on a real sphere and certified against the
simplex and orthoplex bounds.

Public names are imported on first access (PEP 562) and then cached here, so
``import grasspack`` and ``grasspack --help`` load no NumPy."""

from importlib import import_module

__version__ = "0.1.0"

# The submodule that defines each public name.
_EXPORTS = {
    "designs": ("BlockDesign", "DesignReport", "HadamardMatrix", "cohesion",
                "complement_design", "complementary_halves", "design_from_json",
                "design_rebase", "design_to_json", "gen_hadamard", "hadamard_from_json",
                "hadamard_to_3design", "hadamard_to_json", "is_cohesive", "resolvability",
                "verify_design"),
    "embedding": ("EmbeddedVector", "EmbeddingSpace", "build_space", "embed",
                  "embedded_code_to_json", "embedding_dim", "sphere_radius_sq"),
    "errors": ("ConsistencyError", "DegenerateRankError", "DimensionMismatchError",
               "GrasspackError", "HypothesisError", "ParameterError", "StructuralError",
               "UnsupportedError"),
    "fields": ("FieldTable", "PrimePower", "build_field", "enumerate_affine_hyperplanes",
               "enumerate_projective_plane", "factor_prime_power", "is_prime"),
    "mubs": ("MubFamily", "MubReport", "gen_mubs", "gen_mubs_prime", "gen_mubs_prime_power",
             "gen_mubs_small", "mub_capacity", "mubs_from_json", "mubs_to_json",
             "verify_mubs"),
    "numerics": ("COMPLEX", "DEFAULT_TOL", "REAL", "Tolerance", "is_projection",
                 "matrix_from_json", "matrix_rank", "matrix_to_json"),
    "packing": ("Certificate", "CertStatus", "CoherenceReport", "HypothesisRecord",
                "OrthoplexReport", "Packing", "Projection", "build_mixed_packing",
                "build_orthoplex_packing", "certificate_to_json", "certify",
                "check_tightness", "coherence", "coordinate_projection", "extract_hadamard",
                "packing_from_json", "packing_to_json", "span_of_achievers",
                "spatial_complement", "verify_orthoplex_geometry"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
