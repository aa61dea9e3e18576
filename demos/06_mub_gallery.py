"""Mutually unbiased bases, generated and verified
=================================================

Maximal complex families in odd prime (power) dimensions from quadratic
phases over GF(q), the hardcoded small families for m = 2 and 4, and the
verification report that backs every downstream construction.
"""

import numpy as np

import grasspack as gp

# prime dimensions: m + 1 bases from j -> w^(a j^2 + b j)
for p in (3, 5, 7, 11, 13):
    fam = gp.gen_mubs_prime(p)
    rep = gp.verify_mubs(fam)
    print(f"C^{p:3d}: {fam.k:3d} bases (capacity {rep.capacity}), "
          f"worst deviation {rep.worst_dev:.2e}")

# prime-power dimensions: the field trace supplies the phase
for q in (9, 25, 27, 49, 81):
    fam = gp.gen_mubs_prime_power(q)
    rep = gp.verify_mubs(fam)
    print(f"C^{q:3d}: {fam.k:3d} bases (capacity {rep.capacity}), "
          f"worst deviation {rep.worst_dev:.2e}")

# the hardcoded families
print()
fam = gp.gen_mubs_small(2, gp.COMPLEX)
print("C^2 triple: second basis =")
print(np.round(fam.bases[1], 4))

fam = gp.gen_mubs_small(4, gp.REAL)
print(f"\nR^4 real family: {fam.k} bases = the real capacity m/2 + 1 = 3")
print("third basis (columns):")
print(fam.bases[2].real)

# cross moduli: every inner product between different bases has |.|^2 = 1/m
a, b = fam.bases[1], fam.bases[2]
print("\n|<x, y>|^2 across the two nontrivial real bases:")
print(np.abs(a.conj().T @ b) ** 2)

# verification is report-based: broken families are described, not rejected
bad = gp.MubFamily(3, gp.COMPLEX, (np.eye(3), np.eye(3)))
rep = gp.verify_mubs(bad)
print(f"\nduplicated identity 'family': ok = {rep.ok}")
for failure in rep.failures:
    print("  ", failure)
