"""Acceptance suite.

One test per acceptance criterion, each exact (no tolerances anywhere) and
each printing its own pass line; run with ``pytest -s tests/test_acceptance.py``
to see them.  Criteria with a stated time budget assert it.  Criteria that a
``verify`` catalogue check states run that check at the criterion's ranks.
"""

import time
from math import comb

from fcdiag import (
    catalan,
    count_first_block,
    count_last_block,
    count_start_end,
    diagram_to_ballot,
    dyck_to_ballot,
    enumerate_diagrams,
    equivalence_key,
    expected_class_size,
    fc_to_ballot,
    fc_to_diagram,
    fc_to_dyck,
    monomial_product,
    narayana,
    parse_fc,
    peaks,
    triangle_start,
)
from helpers import assert_holds, fc_list


def report(number, text):
    print(f"ACCEPTANCE {number:2d}: PASS  {text}")


def test_01_catalan_counts():
    start = time.monotonic()
    assert_holds("fc.catalan-count", range(0, 11))
    assert [catalan(m) for m in range(5)] == [1, 1, 2, 5, 14]
    assert len(fc_list(2)) == 5 and len(fc_list(3)) == 14
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"|enumerate_fc(n)| = catalan(n+1) for n <= 10 ({elapsed:.1f}s)")


def test_02_narayana_vs_brute_force():
    start = time.monotonic()
    assert_holds("counting.formulas-vs-enumeration", range(0, 11))
    assert all(narayana(n, -1) == narayana(n, n + 1) == 0 for n in range(0, 11))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, f"narayana(n,p) equals brute-force size counts for n <= 10 ({elapsed:.1f}s)")


def test_03_triangle_and_two_parameter_formulas():
    assert_holds("counting.formulas-vs-enumeration", range(0, 11))
    assert_holds("counting.triangle-recurrence", range(1, 11))
    assert_holds("counting.mixed-recurrence", range(1, 11))
    for n in range(0, 11):
        assert triangle_start(n, 0) == 1
        for i in range(1, n + 1):
            for j in range(1, i):  # no block has i > j
                assert count_first_block(n, i, j) == count_last_block(n, i, j) == 0
            if i >= 2:
                assert count_start_end(n, i, i - 1).value == comb(n, i - 1) - 1
    report(3, "Catalan triangle and all two-parameter formulas match brute force, n <= 10")


def test_04_duality():
    start = time.monotonic()
    assert_holds("fc.dual-involution", range(0, 11))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(4, f"duality is a size/length-reversing involution for n <= 10 ({elapsed:.1f}s)")


def test_05_bijection_correctness():
    assert_holds("bijection.oracle-equivalence", range(0, 9))
    assert len(fc_list(8)) == 4862
    assert_holds("bijection.roundtrips", range(0, 10))
    report(5, "direct algorithm == concatenation oracle (n <= 8); roundtrips (n <= 9)")


def test_06_multiplication_compatibility():
    start = time.monotonic()
    assert_holds("bijection.multiplication-compatible", range(0, 6))
    checked = sum(catalan(n + 1) ** 2 for n in range(0, 6))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, f"{checked} ordered products are diagram-compatible, n <= 5 ({elapsed:.1f}s)")


def test_07_worked_products():
    a = parse_fc("n=4:[1,4]")
    b = parse_fc("n=4:[4,4][3,3][1,1]")
    assert monomial_product(a, b) == (parse_fc("n=4:[3,3][1,1]"), 1)
    assert monomial_product(b, a) == (parse_fc("n=4:[4,4][1,1]"), 1)
    report(7, "both worked monomial products reproduced exactly")


def test_08_presentation_relations():
    assert_holds("tl.presentation-relations", range(1, 11))
    report(8, "e_i^2 = delta e_i, sandwich, and far commutation hold for n <= 10")


def test_09_descents_three_ways():
    assert_holds("tl.descents-three-ways", range(1, 9))
    report(9, "diagram, canonical-form, and permutation descents agree for n <= 8")


def test_10_worked_example_and_counterexample():
    w = parse_fc("n=5:[4,5][3,3][1,1]")
    assert fc_to_ballot(w).to_text() == "+-++--++-+--"
    path = fc_to_dyck(w)
    assert peaks(path) == ((1, 1), (3, 3), (5, 4))
    assert dyck_to_ballot(path) == fc_to_ballot(w)
    d, _ = fc_to_diagram(w)
    assert diagram_to_ballot(d) != fc_to_ballot(w)
    assert_holds("lattice.readings-disagree", range(2, 9))
    report(10, "ballot and peaks reproduced; tail/head reading differs as required")


def test_11_census():
    for n in range(1, 8):
        recount = {}
        for d in enumerate_diagrams(n + 1):
            key = equivalence_key(d)
            recount[key] = recount.get(key, 0) + 1
        by_size_and_key = {}
        for w in fc_list(n):
            key = equivalence_key(fc_to_diagram(w)[0])
            bucket = by_size_and_key.setdefault(w.size, {})
            bucket[key] = bucket.get(key, 0) + 1
        for p in range(n + 1):
            classes = by_size_and_key.get(p, {})
            assert sum(classes.values()) == narayana(n, p)
            for key, size in classes.items():
                assert size == recount[key]
                assert size == expected_class_size(n + 1, key)
    report(11, "census classes recount exactly and factor into Catalan products, n <= 7")


def test_12_appendix_identity():
    assert_holds("counting.binomial-identity", range(0, 31))
    report(12, "binomial identity holds exactly for all 0 <= p <= n <= 30")
