"""Numerical toolkit for Tchebycheff (T-) systems.

Certifies T/ET/ECT structure, builds nonnegative sparse generalized
polynomials with prescribed zeros, computes Karlin's decompositions
f = f_* + f^*, solves snake/best-approximation problems, and decides sparse
truncated moment feasibility with atomic measure recovery.
"""

from .family import (
    Domain,
    FamilySpec,
    custom_family,
    eval_basis,
    exponential_family,
    halfline,
    interval,
    monomial_family,
    power_family,
    rational_family,
    real_line,
    validate,
)
from .colloc import (
    NodeSet,
    SystemCertificate,
    certify,
    confluent_matrix,
    det,
    ect_canonical_weights,
    krein_matrix,
    reduced_system,
    wronskian,
)
from .zeros import (
    SparsePoly,
    ZeroConfig,
    count_zeros,
    index_of,
    poly_from_zeros,
)
from .extremal import extremal_test_polys
from .karlin import (
    KarlinDecomposition,
    LukacsDecomposition,
    decompose_halfline,
    decompose_nonneg_ab,
    decompose_pos_ab,
    decompose_realline,
    lukacs_decompose,
)
from .snake import (
    BestApproximation,
    SnakeSolution,
    best_approx,
    optimize_ratio,
    snake,
)
from .moments import (
    AtomicMeasure,
    FeasibilityVerdict,
    MomentFunctional,
    hankel_check,
    recover_atoms,
    sparse_feasibility,
)
from .smooth import KernelSpec, gaussian_smooth, kernel_tp_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
