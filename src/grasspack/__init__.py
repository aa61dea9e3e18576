"""Mixed-rank subspace packings from mutually unbiased bases and block
designs, embedded isometrically on a real sphere and certified against the
simplex and orthoplex bounds."""

from .designs import (BlockDesign, DesignReport, HadamardMatrix, cohesion,
                      complement_design, complementary_halves, design_from_json,
                      design_rebase, design_to_json, gen_hadamard,
                      hadamard_from_json, hadamard_to_3design, hadamard_to_json,
                      is_cohesive, resolvability, verify_design)
from .embedding import (EmbeddedVector, EmbeddingSpace, build_space,
                        check_image_disjointness, embed, embedded_code_to_json,
                        embedded_inner, embedding_dim, sphere_radius_sq)
from .errors import (ConsistencyError, DegenerateRankError,
                     DimensionMismatchError, GrasspackError, HypothesisError,
                     ParameterError, RankDeficiencyError, StructuralError,
                     UnsupportedError)
from .fields import (FieldTable, PrimePower, build_field,
                     enumerate_affine_hyperplanes, enumerate_projective_plane,
                     factor_prime_power, field_trace, is_prime)
from .mubs import (Basis, MubFamily, MubReport, gen_mubs, gen_mubs_prime,
                   gen_mubs_prime_power, gen_mubs_small, mub_capacity,
                   mubs_from_json, mubs_to_json, verify_mubs)
from .numerics import (COMPLEX, DEFAULT_TOL, REAL, Tolerance, gram_schmidt,
                       hs_inner, is_projection, matrix_from_json, matrix_rank,
                       matrix_to_json)
from .packing import (Certificate, CertStatus, CoherenceReport, HypothesisRecord,
                      OrthoplexReport, Packing, Projection, build_mixed_packing,
                      build_orthoplex_packing, certificate_to_json, certify,
                      check_tightness, coherence, coordinate_projection,
                      extract_hadamard, packing_from_json, packing_to_json,
                      span_of_achievers, spatial_complement,
                      verify_orthoplex_geometry)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
