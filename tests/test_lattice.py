"""Paths, ballots, and the incompatibility of the naive diagram reading."""

import pytest
from hypothesis import given

from fcdiag import (
    Ballot,
    Diagram,
    DyckPath,
    FCElement,
    InvalidBallotError,
    InvalidPathError,
    ParseError,
    ballot_to_dyck,
    catalan,
    diagram_to_ballot,
    dyck_to_ballot,
    dyck_to_fc,
    fc_to_ballot,
    fc_to_diagram,
    fc_to_dyck,
    parse_ballot,
    parse_dyck,
    parse_fc,
    peaks,
)
from helpers import diagram_list, fc_elements

W_EXAMPLE = parse_fc("n=5:[4,5][3,3][1,1]")
W_BALLOT = "+-++--++-+--"


class TestValidation:
    def test_ballot_prefix_sums(self):
        with pytest.raises(InvalidBallotError):
            Ballot((-1, 1))
        with pytest.raises(InvalidBallotError):
            Ballot((1, -1, -1, 1))
        with pytest.raises(InvalidBallotError):
            Ballot((1, 1))

    def test_ballot_signs(self):
        with pytest.raises(InvalidBallotError):
            Ballot((1, 0, -1))
        # a bool and a float compare equal to 1, and are refused all the same
        with pytest.raises(InvalidBallotError, match=r"^signs must be \+1 or -1, got True$"):
            Ballot((True, -1))
        with pytest.raises(InvalidBallotError, match=r"^signs must be \+1 or -1, got 1\.0$"):
            Ballot((1.0, -1.0))

    def test_path_stays_below_diagonal(self):
        with pytest.raises(InvalidPathError):
            DyckPath(("U", "R"))
        with pytest.raises(InvalidPathError):
            DyckPath(("R", "R"))
        with pytest.raises(InvalidPathError):
            DyckPath(("R", "X"))

    def test_empty_path_has_no_element(self):
        with pytest.raises(InvalidPathError, match="positive even number"):
            dyck_to_fc(DyckPath(()))

    def test_parsers(self):
        assert parse_ballot("+-").signs == (1, -1)
        assert parse_dyck("RU").steps == ("R", "U")
        assert str(parse_dyck("RU")) == "RU"
        with pytest.raises(ParseError):
            parse_ballot("+a")
        with pytest.raises(ParseError):
            parse_dyck("RQ")


class TestBlockPathMaps:
    def test_worked_example(self):
        path = fc_to_dyck(W_EXAMPLE)
        assert peaks(path) == ((1, 1), (3, 3), (5, 4))
        assert dyck_to_ballot(path).to_text() == W_BALLOT
        assert fc_to_ballot(W_EXAMPLE).to_text() == W_BALLOT
        assert dyck_to_fc(path) == W_EXAMPLE

    def test_identity_has_no_peaks(self):
        path = fc_to_dyck(FCElement(3))
        assert path.to_text() == "RRRRUUUU"
        assert peaks(path) == ()
        assert dyck_to_fc(path) == FCElement(3)

    def test_single_generator(self):
        path = fc_to_dyck(FCElement(1, ((1, 1),)))
        assert path.to_text() == "RURU"
        assert peaks(path) == ((1, 1),)

    def test_run_block(self):
        assert fc_to_ballot(parse_fc("n=2:[1,2]")).to_text() == "++-+--"

    def test_staircase_ballot(self):
        assert dyck_to_ballot(parse_dyck("RRRUUU")).to_text() == "+++---"
        assert ballot_to_dyck(parse_ballot("+-+-")).to_text() == "RURU"

    @given(fc_elements())
    def test_roundtrips_random(self, w):
        assert dyck_to_fc(fc_to_dyck(w)) == w


class TestDiagramReading:
    def test_identity_diagram(self):
        assert diagram_to_ballot(Diagram.identity(4)).to_text() == "++++----"

    def test_generator(self):
        assert diagram_to_ballot(Diagram.generator(2, 1)).to_text() == "+-+-"

    def test_counterexample(self):
        # the tail/head reading is NOT the ballot of the canonical form
        d, _ = fc_to_diagram(W_EXAMPLE)
        assert diagram_to_ballot(d).to_text() != W_BALLOT
        assert diagram_to_ballot(d).to_text() == "+-++--+-+-+-"

    @pytest.mark.parametrize("k", range(1, 8))
    def test_bijective_onto_ballots(self, k):
        images = {diagram_to_ballot(d) for d in diagram_list(k)}
        assert len(images) == catalan(k)
        assert all(len(b.signs) == 2 * k for b in images)
