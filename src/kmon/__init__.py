"""kmon: symbolic algebra for commutative monoids with infinite summation.

Extended-cardinal arithmetic, constraint-defined monoids with universal
extension along the cardinal chain, braiding certificates with verification
and search, and realizability deciders for two-generated monoids.
"""

from .cardinals import (
    ALEPH0,
    DEFAULT_BOUND,
    CardBoundMode,
    ExtCard,
    ZERO,
    aleph,
    at_most,
    below,
    card_mul,
    card_sum,
    fin,
    render_card,
)
from .core import (
    CyclicExtensionMonoid,
    CyclicMonoid,
    Family,
    KappaMonoid,
    absorb_big,
    flatten,
    is_reduced_witness,
    order_unit_check,
    size_of,
)
from .laws import LawReport, check_axioms
from .free_vectors import CardVec, VecMonoid, free_extend_hom, vec_ksum
from .diophantine import (
    Aleph0Extension,
    ConstraintSystem,
    DioMonoid,
    aleph0_extend_finite,
    decompose,
    enumerate_solutions,
    recombine,
    universal_extend,
)
from .braiding import (
    BraidBlock,
    LayeredCertificate,
    OmegaCertificate,
    braid_find,
    compose,
    flip,
    verify,
)
from .presentations import (
    Form,
    TwoGenMonoid,
    TwoGenPresentation,
    corollary_checks,
    forms_equal,
    in_add,
    realizable_two_gen,
    replay_chain,
)
from .gallery import (
    DedekindVMonoid,
    HNPPredicate,
    QPoint,
    RationalLineMonoid,
    TrivialExtensionMonoid,
)
from .dsl import parse_card, parse_dsl, render_dsl
from .tribool import TriBool, no, unknown, yes

__version__ = "0.1.0"
