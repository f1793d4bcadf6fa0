"""Exact local densities of hermitian forms over an unramified quadratic
p-adic extension: direct evaluation, inter-density relations with a
reduction engine, a brute-force counting oracle over finite quotient rings,
and the derived-density / intersection-number applications."""

from .qalgebra import (
    IntPoly,
    NotLaurentError,
    PoleError,
    Q,
    RatFunc,
    arith,
    as_laurent,
    evaluate_at,
    gauss_binomial,
    neg_q_power,
)
from .partitions import (
    check_partition,
    conj_inner_product,
    conjugate,
    conjugate_part,
    d_coefficients,
    format_partition,
    mu_lk,
    parse_partition,
    stats,
    xi_plus,
)
from .hironaka import (
    HironakaEngine,
    I_j,
    NotTabulated,
    alpha,
    normalized,
    self_density_closed,
)
from .relations import (
    GenericAlphaReducer,
    ReductionEngine,
    ReductionTrace,
    Relation,
    alpha_via_generic_reduction,
    reduce_normalized,
    theorem_terms,
    verify_relation,
)
from .oracle import (
    BudgetExceededError,
    GaloisRingParams,
    count_representations,
    density_oracle,
    stabilization_check,
)
from .geometry import (
    conjecture_check,
    derivative_0000,
    difference_identity_check,
    sankaran_intersection,
)

__version__ = "0.1.0"
