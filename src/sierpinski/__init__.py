"""Sierpinski/Riesel numbers in arbitrary bases: covering systems,
cyclotomic polynomials, compositeness certificates, and minimum search."""

from .arith import (
    BudgetExceeded,
    Congruence,
    Factorization,
    FactorBudget,
    FactorBudgetExceeded,
    ModuliNotCoprime,
    NotCoprime,
    crt_solve,
    factorize,
    is_prime,
    mod_inverse,
    multiplicative_order,
    prime_verdict,
)
from .covering import (
    CoveringSystem,
    ModulusMismatch,
    ResidueClass,
    affine_orbit,
    affine_transform,
    enumerate_covers,
    split_class,
    swap_equal_moduli,
    verify_cover,
)
from .construct import (
    BASE2_COVER,
    GENERIC_COVER,
    MERSENNE_COVER,
    MULTIPLE_OF_M_MINUS_1,
    NONTRIVIAL,
    RIESEL,
    SIERPINSKI,
    NoQualifyingPrime,
    SierpinskiCertificate,
    build_congruences,
    construct,
    is_mersenne_like,
    select_cover_prime,
    verify_certificate,
)
from .cyclotomic import (
    IntPolynomial,
    cyclotomic_poly,
    divisors,
    eval_cyclotomic,
    product_identity_holds,
    substitution_identity_holds,
)
from .search import (
    EliminationRecord,
    InsufficientPrimes,
    PrimePool,
    SearchConfig,
    SearchReport,
    assignments_for_cover,
    discover_prime_pool,
    eliminate_small_k,
    k_for,
    search_min,
)

__version__ = "0.1.0"
