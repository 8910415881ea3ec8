"""Perfect codes and total perfect codes in Cayley graphs of finite groups.

The library works with dense multiplication tables at desk scale: the CLI
accepts groups of order up to 64 for classify, 24 for enumerate and
automorphisms, and 2048 for check and construct (`cli.ORDER_BOUNDS`).  It
decides whether a vertex subset C is a (total) perfect code in Cay(G, S)
by one tiling test -- T C = G with every product distinct, T = S u {e} or
T = S -- under three names: the ball check, the group-ring check and (for
subgroups) the transversal check.  It also provides criteria and explicit
connection-set constructions for normal, cyclic, abelian and dihedral
subgroups, exact cyclotomic Fourier tests for tilings of abelian groups,
and an analysis of (total-)perfect-code-preserving automorphisms that
settles rows by theorem or checked witness where it can and sweeps
connection sets for the rest.
"""

from .errors import BoundExceededError, CayleyCodesError, GroupTableError
from .groups import (
    FiniteGroup,
    all_automorphisms,
    all_subgroups,
    centre,
    coset_labels,
    direct_product,
    from_table,
    inner_automorphism,
    is_normal,
    is_power_automorphism,
    make_abelian,
    make_cyclic,
    make_dihedral,
    subgroup_generated,
)
from .cayley import (
    CayleyGraph,
    ConnectionSet,
    build_cayley,
    enumerate_perfect_codes,
    group_ring_check_perfect,
    group_ring_check_total,
    is_perfect_code,
    is_total_perfect_code,
    subgroup_code_transversal_check,
)
from .criteria import (
    abelian_criterion,
    construct_connection_set,
    construct_connection_set_normal,
    cyclic_criterion,
    decide_subgroup_code,
    dihedral_construct_sets,
    dihedral_criterion,
    generic_subgroup_code_decision,
    normal_subgroup_code,
    parity_criterion,
    property_one_holds,
)
from .spectral import characters, spectral_tiling_check
from .pcp import (
    all_power_automorphisms,
    power_witness,
    preservation_sweep,
)

__version__ = "0.1.0"
