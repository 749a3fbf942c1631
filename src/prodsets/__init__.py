"""Exact-arithmetic experiments on integer sequences in product sets B.B."""

from .arith import (
    DeskScaleError,
    Factorization,
    crt_solve,
    factorize,
    is_perfect_square,
    is_prime,
    primes_in_range,
)
from .auxgraph import (
    ONE_CLASS,
    TWO_CLASS,
    AuxGraph,
    build_aux_graph,
    edge_bound_report,
    find_cycle,
)
from .coverlemma import Bipartite, cover_sequence, verify_cover
from .extremal import fib_core, fib_subsets, lucas_count_check, max_fib_count, sharp_example
from .polyseq import (
    ABOVE_R,
    MID_RANGE,
    PolynomialZ,
    admissible_residue,
    content_d,
    discriminant,
    window_stats,
    window_witness,
)
from .productset import BaseSet, ProductSet, build_product_set, sequence_members
from .sequences import (
    FIBONACCI,
    LUCAS_V,
    LucasSpec,
    fib,
    is_fibonacci,
    is_lucas_number,
    lucas_u,
    lucas_v,
    primitive_divisor,
)

__version__ = "0.1.0"
