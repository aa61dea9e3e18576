import json

import numpy as np
import pytest

from grasspack import mubs
from grasspack.embedding import _checked_rank, build_space, embed, embedded_code_to_json
from grasspack.errors import DimensionMismatchError, ParameterError
from grasspack.fields import build_field
from grasspack.numerics import DEFAULT_TOL, as_matrix
from grasspack.packing import Packing, Projection, _embedded_gram, _report_from_gram


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


def hs_inner(a, b) -> complex:
    """The reference Hilbert-Schmidt inner product trace(A @ B*), B* the
    conjugate transpose: the Frobenius inner product sum_ij A_ij conj(B_ij),
    real for Hermitian arguments up to rounding."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(a * b.conj()))


def embedded_inner(p, q, space, tol=DEFAULT_TOL) -> float:
    """The reference inner product of the embedded vectors of the projections
    ``p`` and ``q``, from traces alone (the identity in the ``embedding``
    docstring), not coordinates; rank 0 or m raises DegenerateRankError."""
    p, q = as_matrix(p), as_matrix(q)
    m = space.m
    if p.shape != (m, m) or q.shape != (m, m):
        raise DimensionMismatchError(f"expected {m}x{m} matrices")
    lp, lq = _checked_rank(p, m, tol), _checked_rank(q, m, tol)
    scale = np.sqrt(m * m / (lp * lq * (m - lp) * (m - lq)))
    return float(scale * (hs_inner(p, q).real - lp * lq / m))


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
    """The same matrices, hypotheses and mode as unlabelled dense elements,
    so the Gram takes the dense path and coherence the numeric pass."""
    return Packing(pk.m, pk.field, tuple(Projection(p.matrix) for p in pk.elements),
                   pk.hypotheses, pk.mode)


def numeric_report(pk):
    """The numeric pass on ``pk`` itself, whose coordinate projections keep
    their basis labels: the reference pair classes of the exact pass."""
    return _report_from_gram(pk, _embedded_gram(pk), DEFAULT_TOL, None)


def reference_exponents(q) -> np.ndarray:
    """E[a, x, b] = tr(a x^2 + b x) over GF(q) as int64, through the field's
    ``add``, ``mul`` and ``trace`` lookups on q x q x q operands: the
    reference for the generator's uint8 sum tr(a x^2) + tr(x b) mod p."""
    ft = build_field(q)
    x = np.arange(q)
    return ft.trace(ft.add(ft.mul(x[:, None, None], ft.mul(x, x)[:, None]),
                           ft.mul(x[:, None], x)))


@pytest.fixture
def fresh_phase_caches():
    """Empty the per-order caches of the exponent table and its verdict
    before and after the test, so a table the test patches in cannot leave
    a false verdict behind; the cached functions are held here, since a
    patch may replace their module names."""
    caches = (mubs._phase_exponents, mubs._phases_are_mubs)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


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
