"""Exact combinatorics of partitions, q-binomial identities, and Hilbert series
of filtered Grassmannian and Lagrangian-Grassmannian cohomology rings.

Names are exported lazily (PEP 562): `import qgrass` loads no submodule, and
the first read of a name below imports the submodule that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "Partition",
            "bounded_from_core",
            "candidate_partitions",
            "core_from_bounded",
            "k_bounded_partitions",
            "k_conjugate",
            "partitions_in_box",
            "partitions_in_box_of_size",
            "shifted_compose",
            "shifted_decompose",
            "strict_partitions_in_triangle",
            "strict_partitions_of_size",
            "vacancy",
            "vacant_compose",
            "vacant_decompose",
            "vacant_partitions",
        ),
        "partitions",
    ),
    **dict.fromkeys(
        (
            "QPoly",
            "gen_sum",
            "grass_hilbert_series",
            "grass_subalgebra_formula",
            "lg_hilbert_series",
            "lg_subalgebra_formula",
            "q_binomial",
            "q_binomial_double_prime",
            "q_binomial_prime",
        ),
        "qseries",
    ),
    **dict.fromkeys(("SymVector", "h_to_schur", "pieri_h"), "schur"),
    "k_schur": "kschur",
    "DegreeSlice": "echelon",
    **dict.fromkeys(
        (
            "BasisReport",
            "h_basis_report",
            "kschur_basis_report",
            "project",
            "subalgebra_hilbert",
            "subalgebra_slices",
        ),
        "grassmann",
    ),
    **dict.fromkeys(("lg_subalgebra_hilbert", "lg_top_power", "multiply", "normal_form"), "lagrangian"),
    **dict.fromkeys(("Report", "sweep"), "harness"),
}

# The engine submodules, which `from qgrass import *` binds as well.
_SUBMODULES = ("partitions", "qseries", "schur", "kschur", "echelon", "grassmann", "lagrangian", "harness")

__all__ = [*_EXPORTS, *_SUBMODULES]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
