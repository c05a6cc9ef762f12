"""ghilb-kit: exact-arithmetic toolkit for cluster data of finite abelian diagonal group actions.

Everything is computed over Q or over cyclotomic fields Q(zeta_m); no
floating point is used anywhere.  The public surface re-exports the main
types and operations of the submodules.
"""

from ghilb_kit.group_rep import (
    ActionData,
    Character,
    DomainError,
    FiniteAbelianGroup,
    weight_of_monomial,
)
from ghilb_kit.exact_linalg import RationalMatrix, kernel_basis, rank, solve
from ghilb_kit.cyclotomic import (
    CyclotomicNumber,
    embed_to_conductor,
    parse_cyclotomic,
)
from ghilb_kit.monomial_algebra import (
    CoinvariantAlgebra,
    Monomial,
    MonomialIdeal,
    coinvariant_algebra,
    invariant_generators,
    parse_monomial,
    quotient_staircase,
    taylor_syzygies,
)
from ghilb_kit.cluster import (
    ClusterReport,
    FreenessReport,
    GCluster,
    IntegrityError,
    QuotientPoint,
    enumerate_torus_fixed_clusters,
    evaluation_kernel,
    is_ideal_subspace,
    monomial_cluster,
    orbit_cluster,
    subspace_cluster,
    tau_support,
    verify_cluster,
)
from ghilb_kit.tangent import (
    Eq8Report,
    EquivariantHomSpace,
    McKayTable,
    StratRep,
    eq8_map,
    mckay_table,
    relative_tangent_space,
    stratification_rep,
    tangent_space,
)

__version__ = "0.1.0"

__all__ = [
    "ActionData",
    "Character",
    "ClusterReport",
    "CoinvariantAlgebra",
    "CyclotomicNumber",
    "DomainError",
    "Eq8Report",
    "EquivariantHomSpace",
    "FiniteAbelianGroup",
    "FreenessReport",
    "GCluster",
    "IntegrityError",
    "McKayTable",
    "Monomial",
    "MonomialIdeal",
    "QuotientPoint",
    "RationalMatrix",
    "StratRep",
    "coinvariant_algebra",
    "embed_to_conductor",
    "enumerate_torus_fixed_clusters",
    "eq8_map",
    "evaluation_kernel",
    "invariant_generators",
    "is_ideal_subspace",
    "kernel_basis",
    "mckay_table",
    "monomial_cluster",
    "orbit_cluster",
    "parse_cyclotomic",
    "parse_monomial",
    "quotient_staircase",
    "rank",
    "relative_tangent_space",
    "solve",
    "stratification_rep",
    "subspace_cluster",
    "tangent_space",
    "tau_support",
    "taylor_syzygies",
    "verify_cluster",
    "weight_of_monomial",
]
