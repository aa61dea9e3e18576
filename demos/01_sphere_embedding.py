"""Projections on a sphere
=========================

A rank-l orthogonal projection P on F^m, shifted by -(l/m) I, lands on a
sphere of squared radius l(m-l)/m inside the traceless Hermitian matrices.
Normalizing gives a unit vector in R^d whose inner products with other
embedded projections are computable from traces alone. This demo walks
through the basic identities on random data.
"""

import numpy as np

import grasspack as gp

rng = np.random.default_rng(7)


def random_projection(m, rank):
    a = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
    q, _ = np.linalg.qr(a)
    return q @ q.conj().T


m = 5
space = gp.build_space(m, gp.COMPLEX)
print(f"ambient dimension m = {m}, embedding dimension d = {space.d} (= m^2 - 1)")

# Every rank lands on its own sphere: check the radius formula.
print("\nsquared radii of the traceless images, rank by rank:")
for rank in range(1, m):
    p = random_projection(m, rank)
    traceless = p - (rank / m) * np.eye(m)
    r2 = np.vdot(traceless, traceless).real  # |A|^2 = tr(A A*) = sum |A_ij|^2
    print(f"  rank {rank}: |P - (l/m)I|^2 = {r2:.6f}   l(m-l)/m = {rank*(m-rank)/m:.6f}")

# The normalized image is a unit vector, and inner products of embedded
# vectors come straight out of tr(PQ):
#   <v_P, v_Q> = sqrt(m^2 / (lp lq (m-lp)(m-lq))) (tr(PQ) - lp lq / m).
lp, lq = 2, 3
p = random_projection(m, lp)
q = random_projection(m, lq)
vp = gp.embed(p, space)
vq = gp.embed(q, space)
print(f"\n|v_P| = {np.linalg.norm(vp.coords):.12f}")
tr_pq = np.vdot(q, p).real  # tr(PQ) for Hermitian P and Q
via_trace = np.sqrt(m * m / (lp * lq * (m - lp) * (m - lq))) * (tr_pq - lp * lq / m)
via_coords = float(vp.coords @ vq.coords)
print(f"<v_P, v_Q> from traces:      {via_trace:.12f}")
print(f"<v_P, v_Q> from coordinates: {via_coords:.12f}")

# A subspace and its orthogonal complement embed to antipodal points.
v_comp = gp.embed(np.eye(m) - p, space)
print(f"\nmax |v_(I-P) + v_P| = {np.abs(v_comp.coords + vp.coords).max():.2e}  (antipodal)")

# Images of different ranks never collide.
print("\ndistinct ranks always embed to distinct points:")
for _ in range(3):
    a = gp.embed(random_projection(m, 1), space)
    b = gp.embed(random_projection(m, 4), space)
    print(f"  |v_A - v_B| = {np.linalg.norm(a.coords - b.coords):.6f}")
