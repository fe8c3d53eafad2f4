"""Fully commutative elements, non-crossing diagrams, and exact
Temperley-Lieb monomial arithmetic for the type-A Coxeter group."""

from .bijection import (
    BijectionTrace,
    block_pairs,
    diagram_of,
    diagram_to_fc,
    dplus_condition,
    fc_to_diagram,
    fc_to_diagram_reference,
    reference_drawings,
    trace_candidates,
)
from .counting import (
    StartEndCount,
    appendix_binomial_identity_check,
    catalan,
    count_first_block,
    count_last_block,
    count_size_end,
    count_start_end,
    count_start_size,
    narayana,
    narayana_row,
    triangle_end,
    triangle_row,
    triangle_start,
)
from .diagram import (
    Components,
    Diagram,
    concatenate,
    diagram_from_json,
    enumerate_diagrams,
    generator_action,
    parse_diagram,
)
from .errors import (
    CrossingError,
    FCDiagramError,
    IdentityHasNoDescentsError,
    IndexOutOfRangeError,
    InvalidBallotError,
    InvalidPathError,
    NotMatchingError,
    NotNormalizedError,
    NotStandardError,
    NotThickError,
    ParseError,
    RankMismatchError,
    RankOutOfRangeError,
    StringMismatchError,
    UnexpectedLoopError,
)
from .fc import (
    Classification,
    FCElement,
    enumerate_fc,
    fc_from_json,
    inversions,
    is_321_avoiding,
    is_saturated_in,
    parse_fc,
    perm_left_descents,
    perm_right_descents,
    permutation_of_word,
)
from .lattice import (
    Ballot,
    DyckPath,
    ballot_to_dyck,
    diagram_to_ballot,
    dyck_to_ballot,
    dyck_to_fc,
    fc_to_ballot,
    fc_to_dyck,
    parse_ballot,
    parse_dyck,
    peaks,
)
from .svg import diagram_to_svg
from .tl import (
    DeltaPoly,
    TLElement,
    census,
    descents_from_diagram,
    equivalence_key,
    expected_class_size,
    key_to_text,
    monomial_product,
    multiply,
)

__version__ = "0.1.0"
