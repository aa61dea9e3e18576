"""The public names of ``grasspack``, pinned: adding or removing one changes
this list, so the change shows in review."""

import pytest

import grasspack

PUBLIC = [
    "BlockDesign", "COMPLEX", "CertStatus", "Certificate", "CoherenceReport",
    "ConsistencyError", "DEFAULT_TOL", "DegenerateRankError", "DesignReport",
    "DimensionMismatchError", "EmbeddedVector", "EmbeddingSpace", "FieldTable",
    "GrasspackError", "HadamardMatrix", "HypothesisError", "HypothesisRecord", "MubFamily",
    "MubReport", "OrthoplexReport", "Packing", "ParameterError", "PrimePower", "Projection",
    "REAL", "StructuralError", "Tolerance", "UnsupportedError", "build_field",
    "build_mixed_packing", "build_orthoplex_packing", "build_space", "certificate_to_json",
    "certify", "check_tightness", "coherence", "cohesion", "complement_design",
    "complementary_halves", "coordinate_projection", "design_from_json", "design_rebase",
    "design_to_json", "designs", "embed", "embedded_code_to_json", "embedding",
    "embedding_dim", "enumerate_affine_hyperplanes", "enumerate_projective_plane", "errors",
    "extract_hadamard", "factor_prime_power", "fields", "gen_hadamard", "gen_mubs",
    "gen_mubs_prime", "gen_mubs_prime_power", "gen_mubs_small", "hadamard_from_json",
    "hadamard_to_3design", "hadamard_to_json", "is_cohesive", "is_prime", "is_projection",
    "matrix_from_json", "matrix_rank", "matrix_to_json", "mub_capacity", "mubs",
    "mubs_from_json", "mubs_to_json", "numerics", "packing", "packing_from_json",
    "packing_to_json", "resolvability", "span_of_achievers", "spatial_complement",
    "sphere_radius_sq", "verify_design", "verify_mubs", "verify_orthoplex_geometry",
]


def test_public_names_are_pinned():
    assert sorted(grasspack.__all__) == PUBLIC


def test_test_only_references_are_not_public():
    """The Hilbert-Schmidt product and the one-pair trace identity are test
    references (``tests/conftest.py``), not package API."""
    for name in ("hs_inner", "embedded_inner"):
        assert not hasattr(grasspack, name)
        assert not hasattr(grasspack.numerics, name)
        assert not hasattr(grasspack.embedding, name)


def written(name: str) -> tuple:
    """(reader, what the reader calls the object, the object its writer writes)."""
    from grasspack import (coordinate_projection, design_to_json, gen_hadamard, gen_mubs,
                           gen_mubs_prime, hadamard_to_json)
    family = gen_mubs_prime(3)
    packing = grasspack.Packing(3, "C", tuple(coordinate_projection(family, a, (x,))
                                              for a in range(3) for x in range(3)))
    return {
        "packing": (grasspack.packing_from_json, "packing", grasspack.packing_to_json(packing)),
        "mub-v3": (grasspack.mubs_from_json, "MUB family", grasspack.mubs_to_json(family)),
        "mub-floats": (grasspack.mubs_from_json, "MUB family",
                       grasspack.mubs_to_json(gen_mubs(2, "C"))),
        "design": (grasspack.design_from_json, "design",
                   design_to_json(grasspack.BlockDesign(3, [[0], [1], [2]]))),
        "hadamard": (grasspack.hadamard_from_json, "Hadamard matrix",
                     hadamard_to_json(gen_hadamard(4))),
    }[name]


# every key each writer writes; a packing's "version" is not here: a file
# without one is version 1, which is refused by its version
WRITTEN_KEYS = [
    ("packing", ["m", "field", "mode", "hypotheses", "family", "blocks", "elements"]),
    ("mub-v3", ["m", "field", "construction"]),
    ("mub-floats", ["m", "field", "bases"]),
    ("design", ["m", "blocks"]),
    ("hadamard", ["order", "rows"]),
]


@pytest.mark.parametrize("name, key", [(name, key) for name, keys in WRITTEN_KEYS
                                       for key in keys])
def test_a_missing_key_is_an_input_error_naming_it(name, key):
    """Each JSON reader (packing, MUB family, design and Hadamard matrix)
    raises ParameterError naming the key and the object, not a KeyError."""
    reader, what, obj = written(name)
    assert reader(obj) is not None
    del obj[key]
    with pytest.raises(grasspack.ParameterError, match=f"^{what} has no '{key}' key$"):
        reader(obj)


# each scalar argument of the library, as a call of one value and an integer it accepts
SCALAR_ARGUMENTS = {
    "verify_design-t": (lambda x: grasspack.verify_design(FANO, x), 2),
    "embedding_dim-m": (lambda x: grasspack.embedding_dim(x, "C"), 3),
    "gen_hadamard-order": (grasspack.gen_hadamard, 4),
    "gen_mubs-m": (lambda x: grasspack.gen_mubs(x, "C"), 7),
    "gen_mubs_small-m": (lambda x: grasspack.gen_mubs_small(x, "C"), 4),
    "gen_mubs_prime-p": (grasspack.gen_mubs_prime, 7),
    "gen_mubs_prime_power-q": (grasspack.gen_mubs_prime_power, 9),
    "factor_prime_power-q": (grasspack.factor_prime_power, 9),
    "build_field-q": (grasspack.build_field, 9),
    "enumerate_affine_hyperplanes-p": (lambda x: grasspack.enumerate_affine_hyperplanes(x, 2),
                                       3),
    "enumerate_affine_hyperplanes-t1": (lambda x: grasspack.enumerate_affine_hyperplanes(3, x),
                                        2),
    "enumerate_projective_plane-q": (grasspack.enumerate_projective_plane, 2),
}
FANO = grasspack.BlockDesign(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                                 (2, 3, 6), (2, 4, 5)])


@pytest.mark.parametrize("name", sorted(SCALAR_ARGUMENTS))
def test_a_scalar_argument_must_be_an_integer(name):
    """A bool or a float raises ParameterError, as it does in a JSON field,
    where the integer it stands for is accepted."""
    call, value = SCALAR_ARGUMENTS[name]
    call(value)
    with pytest.raises(grasspack.ParameterError, match="is a bool, not an integer"):
        call(True)
    with pytest.raises(grasspack.ParameterError, match="is not an integer"):
        call(float(value))
