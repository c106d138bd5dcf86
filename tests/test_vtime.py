import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exform.errors import ANotLeqB, InputError, NotLimit
from exform.vtime import (
    _V_KEY,
    INFINITY,
    OMEGA,
    OMEGA1,
    ONE,
    ZERO,
    HorizontalInterval,
    Ordinal,
    PointPiece,
    VerticalSegment,
    VTime,
    first_stage_at_least,
    format_ordinal,
    format_vtime,
    fundamental_sequence,
    is_limit,
    ord_add,
    ord_cmp,
    ord_left_sub,
    ord_succ,
    ordinal,
    parse_ordinal,
    parse_vtime,
    vt,
    vt_cmp,
    vt_inf,
    vt_sup,
)

# random normal forms below the fourth tower level
ordinals = st.builds(
    lambda pairs: Ordinal(tuple(sorted({e: c for e, c in pairs}.items(),
                                       reverse=True))),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 5)), max_size=3))

rationals = st.builds(Fraction, st.integers(0, 40), st.integers(1, 8))

verticals = st.one_of(ordinals, st.just(OMEGA1))

vtimes = st.one_of(st.just(INFINITY),
                   st.builds(VTime, rationals, verticals))



def first_extreme_oracle(values, sign):
    """The first value that no later one beats, the least for sign 1 and
    the greatest for sign -1: the loops ``vt_inf`` and ``vt_sup`` ran over
    fiber levels before they took ``min`` and ``max`` with a key."""
    best = values[0]
    for v in values[1:]:
        if sign * vt_cmp(VTime(0, v), VTime(0, best)) < 0:
            best = v
    return best


@given(st.lists(verticals, min_size=1, max_size=6))
def test_level_extremes_are_the_first_ones(values):
    # equal levels are distinct objects here: the first one is returned
    assert min(values, key=_V_KEY) is first_extreme_oracle(values, 1)
    assert max(values, key=_V_KEY) is first_extreme_oracle(values, -1)


class TestOrdinalArithmetic:
    def test_absorption(self):
        assert ord_add(ONE, OMEGA) == OMEGA
        assert ord_cmp(ord_add(OMEGA, ONE), OMEGA) > 0

    def test_figure_value_below_omega_squared(self):
        two_omega_plus_four = parse_ordinal("w*2 + 4")
        assert ord_cmp(two_omega_plus_four, parse_ordinal("w^2")) < 0

    @given(ordinals)
    def test_zero_identity(self, a):
        assert ord_add(ZERO, a) == a == ord_add(a, ZERO)

    @given(ordinals, ordinals, ordinals)
    def test_associativity(self, a, b, c):
        assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))

    @given(ordinals, ordinals)
    def test_totality_and_antisymmetry(self, a, b):
        assert ord_cmp(a, b) == -ord_cmp(b, a)
        assert (ord_cmp(a, b) == 0) == (a == b)

    @given(ordinals)
    def test_successor(self, a):
        assert ord_cmp(ord_succ(a), a) > 0
        assert not is_limit(ord_succ(a))

    def test_omega1_arithmetic_rejected(self):
        with pytest.raises(InputError):
            ord_add(OMEGA1, ONE)
        with pytest.raises(InputError):
            ord_cmp(ZERO, OMEGA1)

    def test_malformed_normal_forms(self):
        with pytest.raises(InputError):
            Ordinal(((0, 1), (1, 1)))
        with pytest.raises(InputError):
            Ordinal(((1, 0),))


class TestLeftSubtraction:
    def test_examples(self):
        assert ord_left_sub(ONE, OMEGA) == OMEGA
        assert ord_left_sub(OMEGA, parse_ordinal("w*2")) == OMEGA
        assert ord_left_sub(OMEGA, OMEGA) == ZERO

    @given(ordinals, ordinals)
    def test_roundtrip_or_rejection(self, a, b):
        if ord_cmp(a, b) <= 0:
            assert ord_add(a, ord_left_sub(a, b)) == b
        else:
            with pytest.raises(ANotLeqB):
                ord_left_sub(a, b)

    @given(ordinals, ordinals)
    def test_difference_roundtrip(self, a, d):
        assert ord_left_sub(a, ord_add(a, d)) == d


class TestFundamentalSequences:
    def test_omega(self):
        seq = fundamental_sequence(OMEGA)
        assert [next(seq) for _ in range(4)] == [ordinal(k) for k in range(4)]

    def test_omega_times_two(self):
        seq = fundamental_sequence(parse_ordinal("w*2"))
        want = [OMEGA, parse_ordinal("w + 1"), parse_ordinal("w + 2")]
        assert [next(seq) for _ in range(3)] == want

    def test_omega_squared(self):
        seq = fundamental_sequence(parse_ordinal("w^2"))
        want = [OMEGA, parse_ordinal("w*2"), parse_ordinal("w*3")]
        assert [next(seq) for _ in range(3)] == want

    def test_non_limit_rejected(self):
        with pytest.raises(NotLimit):
            fundamental_sequence(ZERO)
        with pytest.raises(NotLimit):
            fundamental_sequence(parse_ordinal("w + 3"))

    @given(ordinals.filter(is_limit))
    @settings(max_examples=50)
    def test_increasing_below_limit(self, gamma):
        seq = fundamental_sequence(gamma)
        stages = [next(seq) for _ in range(12)]
        assert all(ord_cmp(x, y) < 0 for x, y in zip(stages, stages[1:]))
        assert all(ord_cmp(x, gamma) < 0 for x in stages)

    @given(ordinals.filter(is_limit), ordinals)
    @settings(max_examples=50)
    def test_cofinal(self, gamma, below):
        # every ordinal under the limit is overtaken by some stage
        if ord_cmp(below, gamma) >= 0:
            return
        seq = fundamental_sequence(gamma)
        assert any(ord_cmp(next(seq), below) > 0 for _ in range(200))

    @given(ordinals.filter(is_limit), ordinals)
    @settings(max_examples=200)
    def test_first_stage_at_least_is_the_climbed_one(self, gamma, alpha):
        # the stage counted off alpha's coefficient is the first one a
        # climb of the sequence reaches at or above alpha
        if ord_cmp(alpha, gamma) >= 0:
            return
        climbed = next(s for s in fundamental_sequence(gamma)
                       if ord_cmp(s, alpha) >= 0)
        assert first_stage_at_least(gamma, alpha) == climbed

    def test_first_stage_at_least_a_large_coefficient(self):
        # a climb would take 10^30 steps
        big = 10 ** 30
        assert first_stage_at_least(OMEGA, ordinal(big)) == ordinal(big)
        assert first_stage_at_least(parse_ordinal("w^2"),
                                    Ordinal(((1, big), (0, 1)))) \
            == Ordinal(((1, big + 1),))
        with pytest.raises(NotLimit):
            first_stage_at_least(parse_ordinal("w + 3"), ZERO)


class TestLexicographicOrder:
    def test_chain(self):
        assert vt(1) < vt(1, OMEGA) < vt(2)
        assert vt(1, OMEGA1) < vt(2) and vt(1) < vt(1, OMEGA1)

    def test_top(self):
        assert all(x <= INFINITY for x in
                   [vt(0), vt(5, OMEGA1), vt(Fraction(3, 4), OMEGA), INFINITY])

    @given(vtimes, vtimes)
    def test_antisymmetric_total(self, x, y):
        assert vt_cmp(x, y) == -vt_cmp(y, x)
        assert (vt_cmp(x, y) == 0) == (x == y)

    @given(vtimes, vtimes, vtimes)
    def test_transitive(self, x, y, z):
        if x <= y <= z:
            assert x <= z

    def test_negative_time_rejected(self):
        with pytest.raises(InputError):
            vt(-1)


class TestSupremumInfimum:
    def test_empty(self):
        assert vt_inf(()) == INFINITY
        assert vt_sup(()) == vt(0)

    def test_vertical_prefix_segment(self):
        piece = VerticalSegment(Fraction(3), ZERO, OMEGA)
        assert vt_sup([piece]) == vt(3, OMEGA)
        assert vt_inf([piece]) == vt(3)

    def test_left_open_interval(self):
        piece = HorizontalInterval(Fraction(2), Fraction(3), False, True)
        assert vt_inf([piece]) == VTime(Fraction(2), OMEGA1)
        assert vt_sup([piece]) == vt(3)

    def test_right_open_interval_detaches(self):
        piece = HorizontalInterval(Fraction(2), Fraction(3), True, False)
        assert vt_inf([piece]) == vt(2)
        assert vt_sup([piece]) == vt(3)

    def test_successor_bounded_segment_attains(self):
        piece = VerticalSegment(Fraction(1), ONE, parse_ordinal("w + 3"))
        assert vt_sup([piece]) == vt(1, parse_ordinal("w + 2"))
        assert vt_inf([piece]) == vt(1, ONE)

    def test_infinity_point(self):
        assert vt_sup([PointPiece(INFINITY)]) == INFINITY
        assert vt_inf([PointPiece(INFINITY)]) == INFINITY
        mixed = [PointPiece(INFINITY), PointPiece(vt(1, ONE))]
        assert vt_inf(mixed) == vt(1, ONE)
        assert vt_sup(mixed) == INFINITY

    @given(st.lists(st.builds(VTime, rationals, verticals),
                    min_size=1, max_size=8))
    def test_finite_sets_match_brute_force(self, points):
        pieces = [PointPiece(x) for x in points]
        assert vt_sup(pieces) == max(points)
        assert vt_inf(pieces) == min(points)

    @given(st.lists(st.builds(VTime, rationals, verticals),
                    min_size=1, max_size=6),
           st.builds(VTime, rationals, verticals))
    def test_finite_sets_tight(self, points, candidate):
        # among explicit points the bounds are least/greatest such bounds
        pieces = [PointPiece(x) for x in points]
        if all(x <= candidate for x in points):
            assert vt_sup(pieces) <= candidate
        if all(candidate <= x for x in points):
            assert candidate <= vt_inf(pieces)

    @given(rationals,
           ordinals.filter(lambda a: ord_cmp(a, parse_ordinal("w*3 + 5")) < 0),
           ordinals.filter(lambda a: ord_cmp(a, parse_ordinal("w*3 + 5")) <= 0))
    @settings(max_examples=80)
    def test_segment_sup_against_cofinal_sample(self, t, lo, hi):
        if ord_cmp(lo, hi) >= 0:
            return
        piece = VerticalSegment(t, lo, hi)
        top = vt_sup([piece])
        assert top.t == t
        if is_limit(hi):
            # unattained: stages of the bound approach the supremum
            assert top == VTime(t, hi)
            seq = fundamental_sequence(hi)
            stages = [s for s in itertools.islice(seq, 60)
                      if ord_cmp(lo, s) <= 0]
            assert all(VTime(t, s) < top for s in stages)
            for s in stages:
                assert any(ord_cmp(s, u) < 0 for u in itertools.islice(
                    fundamental_sequence(hi), 80))
        else:
            # attained: the predecessor of the bound is the maximum
            assert ord_cmp(lo, top.v) <= 0 and ord_cmp(top.v, hi) < 0
            assert ord_succ(top.v) == hi

    @given(st.lists(st.one_of(
        st.builds(PointPiece, st.builds(VTime, rationals, verticals)),
        st.builds(VerticalSegment, rationals,
                  st.just(ZERO), st.one_of(ordinals.filter(is_limit),
                                           st.just(OMEGA1))),
        st.builds(HorizontalInterval, rationals, rationals,
                  st.booleans(), st.booleans(), ordinals)),
        min_size=1, max_size=5))
    @settings(max_examples=80)
    def test_lattice_sanity(self, pieces):
        try:
            pieces = [p for p in pieces]
            sup, inf = vt_sup(pieces), vt_inf(pieces)
        except InputError:
            return
        assert inf <= sup or not pieces
        for piece in pieces:
            for member in _sample_members(piece):
                assert inf <= member <= sup


def _sample_members(piece):
    if isinstance(piece, PointPiece):
        return [piece.time]
    if isinstance(piece, VerticalSegment):
        members = [VTime(piece.t, piece.lo)]
        if not isinstance(piece.hi, type(OMEGA1)) and not is_limit(piece.hi):
            e, c = piece.hi.cnf[-1]
            pred = Ordinal(piece.hi.cnf[:-1] + (((e, c - 1),) if c > 1 else ()))
            members.append(VTime(piece.t, pred))
        return members
    lo, hi = Fraction(piece.lo), Fraction(piece.hi)
    members = [VTime((lo + hi) / 2, piece.level)]
    if piece.lo_closed:
        members.append(VTime(lo, piece.level))
    if piece.hi_closed:
        members.append(VTime(hi, piece.level))
    return members


class TestSyntax:
    @given(ordinals)
    def test_ordinal_roundtrip(self, a):
        assert parse_ordinal(format_ordinal(a)) == a

    @given(vtimes)
    def test_vtime_roundtrip(self, x):
        assert parse_vtime(format_vtime(x)) == x

    def test_examples(self):
        assert parse_vtime("(3/4, w+1)") == VTime(Fraction(3, 4),
                                                  parse_ordinal("w + 1"))
        assert parse_vtime("(2, W1)") == VTime(Fraction(2), OMEGA1)
        assert parse_vtime("inf") == INFINITY
        assert format_ordinal(parse_ordinal("w^2*3 + w*2 + 4")) \
            == "w^2*3 + w*2 + 4"

    def test_garbage_rejected(self):
        for bad in ["w^", "(1,)", "1,2", "(x, w)", "w**2"]:
            with pytest.raises(InputError):
                parse_vtime(bad) if "(" in bad else parse_ordinal(bad)
