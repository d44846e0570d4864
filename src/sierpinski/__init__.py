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
    multiplicative_order,
    prime_verdict,
)
from .covering import (
    CoveringSystem,
    ResidueClass,
    affine_orbit,
    enumerate_covers,
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
    select_cover_prime,
    verify_certificate,
)
from .cyclotomic import cyclotomic_poly, eval_cyclotomic
from .search import (
    EliminationRecord,
    PrimePool,
    SearchConfig,
    SearchReport,
    assignments_for_cover,
    discover_prime_pool,
    eliminate_small_k,
    search_min,
)

__version__ = "0.1.0"
