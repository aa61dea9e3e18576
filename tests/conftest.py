import json

import numpy as np
import pytest

from grasspack.embedding import build_space, embed, embedded_code_to_json
from grasspack.errors import ParameterError
from grasspack.numerics import DEFAULT_TOL
from grasspack.packing import Packing, Projection, packing_to_json


def random_orthonormal(rng, m, k, field="C"):
    """k orthonormal columns in F^m via QR of a random Gaussian matrix."""
    if field == "C":
        a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    else:
        a = rng.standard_normal((m, k)).astype(complex)
    q, r = np.linalg.qr(a)
    # fix phases so the factorization is unambiguous
    q = q * np.where(np.diagonal(r) == 0, 1.0, np.sign(np.diagonal(r).real + 1e-300))
    return q


def random_projection(rng, m, rank, field="C"):
    v = random_orthonormal(rng, m, rank, field)
    p = v @ v.conj().T
    if field == "R":
        p = p.real.astype(complex)
    return p


def field_trace(ft, x: int) -> int:
    """The reference trace of the element ``x`` of GF(q), refusing any ``x``
    outside 0..q-1 before ``FieldTable.trace`` reads its table."""
    if not 0 <= x < ft.q:
        raise ParameterError(f"element {x} outside GF({ft.q})")
    return ft.trace(x)


def check_image_disjointness(p, q, space, tol=DEFAULT_TOL) -> bool:
    """Whether projections of distinct ranks embed to distinct points (always
    expected true); equal ranks raise ParameterError."""
    vp = embed(p, space, tol=tol)
    vq = embed(q, space, tol=tol)
    if vp.source_rank == vq.source_rank:
        raise ParameterError("ranks must differ for the disjointness check")
    return float(np.linalg.norm(vp.coords - vq.coords)) > tol.eps_abs


def dense_copy(pk):
    """The same matrices, provenance, hypotheses and mode with no basis
    attached, so the Gram takes the dense path and coherence the numeric pass."""
    return Packing(pk.m, pk.field, tuple(Projection(p.matrix, provenance=p.provenance)
                                         for p in pk.elements), pk.hypotheses, pk.mode)


def v1_json(pk) -> dict:
    """The version-1 packing JSON of ``pk``: the family-null version-2 object
    of its dense copy, without the ``"version"`` and ``"family"`` keys."""
    obj = packing_to_json(dense_copy(pk))
    del obj["version"], obj["family"]
    return obj


def code_json_text(space, vectors) -> str:
    """The reference text of an embedded code, which the streamed writer of
    ``grasspack embed`` must match byte for byte."""
    return json.dumps(embedded_code_to_json(space, vectors), indent=2, sort_keys=True) + "\n"


def packing_code_text(pk) -> str:
    """The reference text of the embedded code of the packing ``pk``."""
    space = build_space(pk.m, pk.field)
    return code_json_text(space, [embed(p.matrix, space) for p in pk.elements])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
