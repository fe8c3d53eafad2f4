"""Fully commutative elements, non-crossing diagrams, and exact
Temperley-Lieb monomial arithmetic for the type-A Coxeter group.

``import fcdiag`` loads no submodule.  Each exported name, and each
submodule, is imported on its first use (PEP 562 ``__getattr__``) and then
bound here, so later lookups are plain attribute reads.  A one-shot
``fcdiag count`` thus never compiles the drawing, product or verify code.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names it exports from the package.
_EXPORTS = {
    "bijection": (
        "BijectionTrace",
        "block_pairs",
        "diagram_of",
        "diagram_to_fc",
        "dplus_condition",
        "fc_to_diagram",
        "fc_to_diagram_reference",
        "reference_drawings",
        "trace_candidates",
    ),
    "cli": (),
    "counting": (
        "StartEndCount",
        "appendix_binomial_identity_check",
        "catalan",
        "catalan_row",
        "count_first_block",
        "count_last_block",
        "count_size_end",
        "count_start_end",
        "count_start_size",
        "narayana",
        "narayana_row",
        "triangle_end",
        "triangle_row",
        "triangle_start",
    ),
    "diagram": (
        "Components",
        "Diagram",
        "concatenate",
        "diagram_from_json",
        "enumerate_diagrams",
        "parse_diagram",
    ),
    "errors": (
        "CrossingError",
        "FCDiagramError",
        "IdentityHasNoDescentsError",
        "IndexOutOfRangeError",
        "InvalidBallotError",
        "InvalidPathError",
        "NotMatchingError",
        "NotNormalizedError",
        "NotStandardError",
        "NotThickError",
        "ParseError",
        "RankMismatchError",
        "RankOutOfRangeError",
        "StringMismatchError",
        "UnexpectedLoopError",
    ),
    "fc": (
        "Classification",
        "FCElement",
        "enumerate_fc",
        "fc_from_json",
        "inversions",
        "is_321_avoiding",
        "is_saturated_in",
        "parse_fc",
        "perm_left_descents",
        "perm_right_descents",
        "permutation_of_word",
    ),
    "lattice": (
        "Ballot",
        "DyckPath",
        "ballot_to_dyck",
        "diagram_to_ballot",
        "dyck_to_ballot",
        "dyck_to_fc",
        "fc_to_ballot",
        "fc_to_dyck",
        "parse_ballot",
        "parse_dyck",
        "peaks",
    ),
    "svg": ("diagram_to_svg",),
    "tl": (
        "DeltaPoly",
        "TLElement",
        "census",
        "descents_from_diagram",
        "equivalence_key",
        "expected_class_size",
        "key_to_text",
        "monomial_product",
        "multiply",
    ),
    "verify": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # binds itself here, as every imported submodule does
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
