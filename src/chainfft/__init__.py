"""Bratteli diagrams, diagram algebras, and exact Fourier transforms on chains."""

from .combinat import (
    BratteliDiagram,
    ChainKind,
    Partition,
    QuiverShape,
    algebra_dim,
    branch,
    build_bratteli,
    catalan,
    double_factorial,
    hom_count_brute,
    hom_count_closed,
    mult_M,
    paper_bounds,
)
from .diagrams import (
    Diagram,
    GeneratorWord,
    LoopProduct,
    all_diagrams,
    check_relations,
    diagram_mul,
    evaluate,
    factor_set,
    generator,
    identity_diagram,
)
from .reps import (
    DEFAULT_Q,
    AdaptedRep,
    adapted_rep,
    local_blocks,
)
from .transform import (
    AlgebraElement,
    FourierImage,
    OpCounter,
    SovPlan,
    fft_naive,
    fft_sov,
    inverse_ft,
    random_element,
    sov_plan,
)

__version__ = "0.1.0"
