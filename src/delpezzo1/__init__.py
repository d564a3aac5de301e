"""Exact branch-curve models for blown-up octic seeds, with verification.

From a normalized degree-8 rational polynomial the package constructs, in
exact arithmetic, the degree-9 plane model of the associated genus-4
branch curve, decides general position of the eight base points, certifies
large Galois groups from Frobenius cycle types, and checks the E8-lattice
and mod-2 facts the construction rests on.
"""

from .curve import (
    CurveBundle,
    SeedError,
    SeedPoly,
    U_FORM,
    amap,
    build_bundle,
    build_q,
    build_v,
    build_w,
    cubic_space,
    genus_of_model,
    multiplicity_report,
    perfect_power_dichotomy,
    sextic_space,
    validate_seed,
    verify_bundle,
)
from .finitefield import PrimeSkip, ddf_degree_multiset
from .galois import GaloisCertificate, certify_galois, galois_check
from .lattice import (
    IntLattice,
    build_hyperbolic,
    enumerate_short_vectors,
    f8s_iso_check,
    lattice_checks,
    linalg_lemma_check,
    mod2_quadratic_census,
    orth_complement,
    picard_model_check,
)
from .linalg import frac_is_square, int_is_square
from .position import (
    check_singular_cubic,
    check_six_conic,
    check_three_collinear,
    position_checks,
)
from .quotient import qr_reduce, tri_eval_param
from .serialize import Check
from .tripoly import TriPoly
from .unipoly import UniPoly, from_power_sums, power_sums, root_sum_poly

__version__ = "0.1.0"
