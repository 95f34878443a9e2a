"""Tests for the three-valued belief algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexswarm.belief import (
    FALSE,
    TRUE,
    UNKNOWN,
    Belief,
    GroundTruth,
    TruthValue,
    belief_error,
    fuse_beliefs,
    fuse_value,
    is_evidence,
    uncertain_indices,
    update_with_evidence,
)

# The full pairwise fusion table: unknown is the identity, agreement is
# preserved, disagreement between certain values collapses to unknown.
FUSION_TABLE = {
    (FALSE, FALSE): FALSE,
    (FALSE, UNKNOWN): FALSE,
    (FALSE, TRUE): UNKNOWN,
    (UNKNOWN, FALSE): FALSE,
    (UNKNOWN, UNKNOWN): UNKNOWN,
    (UNKNOWN, TRUE): TRUE,
    (TRUE, FALSE): UNKNOWN,
    (TRUE, UNKNOWN): TRUE,
    (TRUE, TRUE): TRUE,
}

truth_values = st.sampled_from(list(TruthValue))


def beliefs(n):
    return st.lists(truth_values, min_size=n, max_size=n).map(Belief)


class TestFuseValue:
    def test_exhaustive_table(self):
        for (a, b), expected in FUSION_TABLE.items():
            assert fuse_value(a, b) is expected

    def test_commutative(self):
        for a in TruthValue:
            for b in TruthValue:
                assert fuse_value(a, b) is fuse_value(b, a)

    def test_idempotent_and_identity(self):
        for a in TruthValue:
            assert fuse_value(a, a) is a
            assert fuse_value(a, UNKNOWN) is a

    def test_certain_disagreement_yields_unknown(self):
        assert fuse_value(TRUE, FALSE) is UNKNOWN
        assert fuse_value(FALSE, TRUE) is UNKNOWN


class TestFuseBeliefs:
    def test_unknown_is_identity(self):
        assert fuse_beliefs(Belief.from_string("01"), Belief.from_string("uu")) == Belief.from_string("01")

    def test_disagreement_yields_uncertainty(self):
        assert fuse_beliefs(Belief.from_string("1"), Belief.from_string("0")) == Belief.from_string("u")

    def test_idempotence(self):
        b = Belief.from_string("0u1")
        assert fuse_beliefs(b, b) == b

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            fuse_beliefs(Belief.from_string("0u"), Belief.from_string("0u1"))

    @given(a=beliefs(7), b=beliefs(7))
    def test_commutative(self, a, b):
        assert fuse_beliefs(a, b) == fuse_beliefs(b, a)

    @given(a=beliefs(5))
    def test_unknown_identity_property(self, a):
        assert fuse_beliefs(a, Belief.unknown(5)) == a


class TestUpdateWithEvidence:
    def test_certainty_over_uncertainty(self):
        out = update_with_evidence(Belief.from_string("uu"), Belief.from_string("1u"))
        assert out == Belief.from_string("1u")

    def test_disagreement_at_evidence_index(self):
        out = update_with_evidence(Belief.from_string("01"), Belief.from_string("1u"))
        assert out == Belief.from_string("u1")

    def test_agreement_is_noop(self):
        out = update_with_evidence(Belief.from_string("10"), Belief.from_string("1u"))
        assert out == Belief.from_string("10")

    def test_rejects_multi_certain_evidence(self):
        with pytest.raises(ValueError, match="exactly one"):
            update_with_evidence(Belief.from_string("uu"), Belief.from_string("10"))

    def test_rejects_all_unknown_evidence(self):
        with pytest.raises(ValueError, match="exactly one"):
            update_with_evidence(Belief.from_string("uu"), Belief.from_string("uu"))

    @given(b=beliefs(9), index=st.integers(0, 8), value=st.sampled_from([FALSE, TRUE]))
    def test_evidence_locality(self, b, index, value):
        codes = [UNKNOWN] * 9
        codes[index] = value
        evidence = Belief(codes)
        assert is_evidence(evidence)
        out = update_with_evidence(b, evidence)
        for j in range(9):
            if j != index:
                assert out.codes[j] == b.codes[j]

    @given(b=beliefs(9), index=st.integers(0, 8), value=st.sampled_from([FALSE, TRUE]))
    def test_monotone_certainty_on_unknown_index(self, b, index, value):
        codes = [UNKNOWN] * 9
        codes[index] = value
        out = update_with_evidence(b, Belief(codes))
        if b.codes[index] == UNKNOWN:
            assert out.certainty() == b.certainty() + 1
        else:
            assert out.certainty() in (b.certainty(), b.certainty() - 1)


class TestUncertainIndices:
    def test_mixed(self):
        assert uncertain_indices(Belief.from_string("u1u")) == {1, 3}

    def test_fully_certain(self):
        assert uncertain_indices(Belief.from_string("10")) == set()

    def test_all_unknown_arena_sized(self):
        assert uncertain_indices(Belief.unknown(126)) == set(range(1, 127))


class TestBeliefError:
    def test_exact_match_is_zero(self):
        truth = GroundTruth.from_bools([True, False, True])
        assert belief_error(truth.as_belief(), truth) == 0.0

    def test_all_unknown_is_half(self):
        truth = GroundTruth.from_bools([True, False, True, True])
        assert belief_error(Belief.unknown(4), truth) == 0.5

    def test_direct_evaluation(self):
        # |1-0| = 1 and |0.5-1| = 0.5, averaged over 2 propositions
        truth = GroundTruth.from_bools([False, True])
        assert belief_error(Belief.from_string("1u"), truth) == pytest.approx(0.75)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            belief_error(Belief.unknown(3), GroundTruth.from_bools([True]))

    @given(
        values=st.lists(truth_values, min_size=6, max_size=6),
        flags=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_bounded_and_zero_iff_exact(self, values, flags):
        b = Belief(values)
        truth = GroundTruth.from_bools(flags)
        err = belief_error(b, truth)
        assert 0.0 <= err <= 1.0
        assert (err == 0.0) == (b == truth.as_belief())


class TestSerialization:
    def test_round_trip(self):
        assert Belief.from_string("0u1").to_string() == "0u1"

    def test_symbols(self):
        b = Belief([FALSE, UNKNOWN, TRUE])
        assert b.to_string() == "0u1"
        assert b.value_at(1) is FALSE
        assert b.value_at(2) is UNKNOWN
        assert b.value_at(3) is TRUE

    def test_invalid_symbol(self):
        with pytest.raises(ValueError, match="invalid belief symbol"):
            Belief.from_string("0x1")

    def test_unknown_constructor(self):
        b = Belief.unknown(5)
        assert len(b) == 5
        assert b.certainty() == 0
        assert not b.is_certain()

    def test_immutable_codes(self):
        b = Belief.from_string("0u1")
        with pytest.raises(ValueError):
            b.codes[0] = 2


class TestGroundTruth:
    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="certain"):
            GroundTruth([0, 1, 2])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one proposition"):
            GroundTruth([])

    def test_as_belief(self):
        truth = GroundTruth.from_bools([True, False])
        assert truth.as_belief() == Belief.from_string("10")
        assert truth.as_belief().is_certain()
