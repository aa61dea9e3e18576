"""The octahedron hiding in a qubit
==================================

Three mutually unbiased bases of C^2 give six rank-1 projections (each basis
vector and its orthogonal partner). Embedded in R^3 they are exactly the six
vertices of a regular octahedron: the smallest maximal orthoplectic fusion
frame, and the familiar +-x, +-y, +-z axes of the Bloch sphere.
"""

import grasspack as gp

mubs = gp.gen_mubs_small(2, gp.COMPLEX)
print(f"{mubs.k} mutually unbiased bases of C^2 (the maximum m+1 = 3)")

# The single block {0} plus its complement {1} in all three bases.
packing = gp.build_orthoplex_packing(mubs, gp.BlockDesign(2, [(0,)]))
print(f"packing: {packing.n} rank-1 projections, candidate maximal:",
      packing.hypotheses.candidate_maximal)

space = gp.build_space(2, gp.COMPLEX)
print("\nembedded coordinates (rows):")
for i, element in enumerate(packing.elements):
    coords = gp.embed(element.matrix, space).coords
    print(f"  v_{i} = [{coords[0]:+.4f} {coords[1]:+.4f} {coords[2]:+.4f}]")

geometry = gp.verify_orthoplex_geometry(packing)
print("\northoplex geometry:", "pass" if geometry.passes else geometry.reason)
print("antipodal pairs:", geometry.antipodal_pairs)

cert = gp.certify(packing)
print(f"certificate: {cert.status.value}, n = {cert.n} = 2d = {2 * cert.d}, "
      f"tight constant {cert.tight_constant:g}")
