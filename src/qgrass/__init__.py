"""Exact combinatorics of partitions, q-binomial identities, and Hilbert series
of filtered Grassmannian and Lagrangian-Grassmannian cohomology rings."""

from .partitions import (
    Partition,
    bounded_from_core,
    candidate_partitions,
    core_from_bounded,
    dominance_leq,
    is_core,
    k_bounded_partitions,
    k_conjugate,
    partitions_in_box,
    partitions_in_box_of_size,
    shifted_compose,
    shifted_decompose,
    strict_partitions_in_triangle,
    strict_partitions_of_size,
    vacancy,
    vacant_compose,
    vacant_decompose,
    vacant_partitions,
)
from .qseries import (
    QPoly,
    gen_sum,
    grass_hilbert_series,
    grass_subalgebra_formula,
    lg_hilbert_series,
    lg_subalgebra_formula,
    q_binomial,
    q_binomial_double_prime,
    q_binomial_prime,
)
from .schur import SymVector, h_to_schur, omega, pieri_h
from .kschur import k_schur, weak_pieri_targets
from .echelon import DegreeSlice
from .grassmann import (
    BasisReport,
    h_basis_report,
    kschur_basis_report,
    project,
    subalgebra_hilbert,
    subalgebra_slices,
)
from .lagrangian import (
    lg_subalgebra_hilbert,
    lg_top_power,
    multiply,
    normal_form,
)
from .harness import Report, sweep

__version__ = "0.1.0"
