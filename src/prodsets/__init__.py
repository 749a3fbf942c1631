"""Exact-arithmetic experiments on integer sequences in product sets B.B."""

from .arith import (
    DeskScaleError,
    Factorization,
    crt_solve,
    factorize,
    is_perfect_square,
    is_prime,
    largest_prime_factor,
    primes_in_range,
    smooth_part,
)
from .auxgraph import (
    ONE_CLASS,
    TWO_CLASS,
    AuxGraph,
    build_aux_graph,
    count_self_loops,
    edge_bound_report,
    find_cycle,
)
from .coverlemma import Bipartite, cover_sequence, verify_cover
from .extremal import fib_subsets, lucas_count_check, max_fib_count, sharp_example
from .polyseq import (
    ABOVE_R,
    MID_RANGE,
    PolynomialZ,
    PolyWindowSetup,
    admissible_residue,
    content_d,
    discriminant,
    positivity_shift,
    root_count_mod_p,
    window_setup,
    window_stats,
    window_witness,
)
from .productset import BaseSet, ProductSet, build_product_set, sequence_members
from .sequences import (
    FIBONACCI,
    FIBONACCI_SPEC,
    LUCAS_V,
    LucasSpec,
    fib,
    is_fibonacci,
    is_lucas_number,
    lucas_u,
    lucas_v,
    primitive_divisor,
    square_fibonacci_indices,
)

__version__ = "0.1.0"
