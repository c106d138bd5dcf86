import hashlib
import math
import re
import struct
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exform import tilt, timing
from exform.errors import InconsistentOutcome, InputError
from exform.timing import (
    NEVER,
    NeverBelowOmega,
    PreWhistleStop,
    PureLevel,
    RaceOutcome,
    SimStats,
    StopperClass,
    TimingConfig,
    deviation_payoff,
    equilibrium_identity,
    grid_approximant,
    monte_carlo,
    outcome_distribution,
    path_tilt,
    payoff,
    race_grid,
    sample_race,
    sample_whistle,
    stop_prob,
)
from exform.tilt import validate_grid
from exform.vtime import VTime, ordinal, vt
from test_tilt import check_refines

ETAS = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]


def brute_distribution(eta, levels=64):
    """Sum the per-level event probabilities level by level."""
    q1, q2 = stop_prob(1, eta), stop_prob(2, eta)
    survive = (1 - q1) * (1 - q2)
    sums = {cls: Fraction(0) for cls in (
        StopperClass.SOLE_1, StopperClass.SOLE_2, StopperClass.SIMULTANEOUS)}
    for k in range(levels):
        factor = survive ** k
        sums[StopperClass.SOLE_1] += factor * q1 * (1 - q2)
        sums[StopperClass.SOLE_2] += factor * q2 * (1 - q1)
        sums[StopperClass.SIMULTANEOUS] += factor * q1 * q2
    total = sum(sums.values())
    return sums, total


class TestClosedForms:
    def test_stop_probabilities(self):
        assert stop_prob(1, 1) == stop_prob(2, 1) == Fraction(1, 2)
        assert stop_prob(1, 2) == Fraction(2, 3)
        assert stop_prob(2, 2) == Fraction(1, 2)
        assert stop_prob(1, Fraction(3, 7)) == Fraction(3, 10)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            stop_prob(1, 0)
        with pytest.raises(InputError):
            stop_prob(3, 1)
        with pytest.raises(InputError):
            outcome_distribution(Fraction(-1))

    def test_symmetric_dollar(self):
        dist = outcome_distribution(1)
        assert set(dist.values()) == {Fraction(1, 3)}

    def test_doubled_currency(self):
        dist = outcome_distribution(2)
        assert dist[StopperClass.SOLE_1] == Fraction(2, 5)
        assert dist[StopperClass.SOLE_2] == Fraction(1, 5)
        assert dist[StopperClass.SIMULTANEOUS] == Fraction(2, 5)

    @pytest.mark.parametrize("eta", ETAS)
    def test_against_levelwise_summation(self, eta):
        dist = outcome_distribution(eta)
        sums, total = brute_distribution(eta)
        q1, q2 = stop_prob(1, eta), stop_prob(2, eta)
        remainder = ((1 - q1) * (1 - q2)) ** 64
        assert 1 - total <= remainder
        for cls, value in dist.items():
            assert abs(sums[cls] / total - value) <= remainder

    @pytest.mark.parametrize("eta", ETAS)
    def test_zero_value_identity(self, eta):
        for gain, fine in equilibrium_identity(eta):
            assert gain == fine


class TestPayoffTable:
    def test_pre_whistle_fine(self):
        outcome = RaceOutcome(0, NEVER, StopperClass.PRE_WHISTLE, ())
        assert payoff(outcome, 1) == (Fraction(-1), Fraction(-1))

    def test_sole_second_player_in_local_currency(self):
        outcome = RaceOutcome(NEVER, 3, StopperClass.SOLE_2, ())
        assert payoff(outcome, 2) == (Fraction(0), Fraction(2))

    def test_sole_first_player(self):
        outcome = RaceOutcome(1, 4, StopperClass.SOLE_1, ())
        assert payoff(outcome, 7) == (Fraction(1), Fraction(0))

    def test_simultaneous_fine(self):
        outcome = RaceOutcome(2, 2, StopperClass.SIMULTANEOUS, ())
        assert payoff(outcome, 5) == (Fraction(-1), Fraction(-1))

    def test_boundary_stop_is_free(self):
        outcome = RaceOutcome(NEVER, NEVER, StopperClass.SIMULTANEOUS, ())
        assert payoff(outcome, 5) == (Fraction(0), Fraction(0))

    def test_never(self):
        outcome = RaceOutcome(NEVER, NEVER, StopperClass.NEVER, ())
        assert payoff(outcome, 1) == (Fraction(0), Fraction(0))

    def test_inconsistencies_rejected(self):
        bad = [
            RaceOutcome(2, 1, StopperClass.SOLE_1, ()),
            RaceOutcome(NEVER, 1, StopperClass.SOLE_1, ()),
            RaceOutcome(1, 2, StopperClass.SIMULTANEOUS, ()),
            RaceOutcome(1, NEVER, StopperClass.NEVER, ()),
        ]
        for outcome in bad:
            with pytest.raises(InconsistentOutcome):
                payoff(outcome, 1)


class TestConfig:
    def test_defaults(self):
        config = TimingConfig()
        assert config.eta == 1 and config.whistle == 0

    def test_rejections(self):
        with pytest.raises(InputError):
            TimingConfig(eta=0)
        with pytest.raises(InputError):
            TimingConfig(whistle=Fraction(-1))
        with pytest.raises(InputError):
            TimingConfig(seed=2 ** 64)
        with pytest.raises(InputError):
            TimingConfig(whistle={Fraction(0): Fraction(1, 2)})

    @pytest.mark.parametrize("field", ["trials", "seed"])
    @pytest.mark.parametrize("value", [2.5, 1.0, True, False, "3", None,
                                       Fraction(2)])
    def test_integer_fields(self, field, value):
        # a float, bool or string count or seed is rejected up front, not
        # by range() or struct.pack in the sampler, nor read as 0 or 1
        with pytest.raises(InputError, match=f"{field} must be an integer"):
            TimingConfig(**{field: value})

    @pytest.mark.parametrize("field, value, error", [
        ("eta", "x", "eta: not a rational: 'x'"),
        ("eta", "nan", "eta: not a rational: 'nan'"),
        ("eta", float("nan"), "eta must be a rational: nan"),
        ("eta", 0.1, "eta must be a rational: 0.1"),
        ("eta", None, "eta must be a rational: None"),
        ("eta", True, "eta must be a rational: True"),
        ("eta", "1e99999", "eta: a rational of over"),
        ("whistle", "x", "whistle: not a rational: 'x'"),
        ("whistle", 0.5, "whistle must be a rational: 0.5"),
        ("whistle", None, "whistle must be a rational: None"),
        ("whistle", False, "whistle must be a rational: False"),
        ("whistle", {True: 1}, "whistle must be a rational: True"),
        ("whistle", {0: 1.0}, "whistle must be a rational: 1.0"),
        ("whistle", {"x": 1}, "whistle: not a rational: 'x'"),
        ("whistle", {0: None}, "whistle must be a rational: None"),
    ])
    def test_rational_fields(self, field, value, error):
        # a float is not read as its binary fraction, a bool not as 0 or
        # 1, and a bad string or None is an input error naming the field
        with pytest.raises(InputError, match=re.escape(error)):
            TimingConfig(**{field: value})

    @pytest.mark.parametrize("eta, whistle, want_eta, want_whistle", [
        (2, 1, Fraction(2), Fraction(1)),
        ("1/3", "0.1", Fraction(1, 3), Fraction(1, 10)),
        (Fraction(3, 2), {"0": "1/4", 1: Fraction(3, 4)}, Fraction(3, 2),
         {Fraction(0): Fraction(1, 4), Fraction(1): Fraction(3, 4)}),
    ])
    def test_rational_fields_read_exactly(self, eta, whistle, want_eta,
                                          want_whistle):
        config = TimingConfig(eta=eta, whistle=whistle)
        assert config.eta == want_eta and type(config.eta) is Fraction
        assert config.whistle == want_whistle

    def test_whistle_distribution(self):
        config = TimingConfig(
            whistle={Fraction(0): Fraction(1, 2), Fraction(1): Fraction(1, 2)},
            trials=4000, seed=11)
        draws = [sample_whistle(config, k) for k in range(4000)]
        share = sum(1 for t in draws if t == 0) / 4000
        assert abs(share - 0.5) < 0.05


class TestSampling:
    def test_seed_determinism(self):
        config = TimingConfig(eta=2, trials=0, seed=99)
        for trial in range(50):
            assert sample_race(config, trial) == sample_race(config, trial)

    def test_reach_level_probability(self):
        config = TimingConfig(eta=1, trials=20000, seed=5)
        outcomes = [sample_race(config, k) for k in range(config.trials)]

        def level(outcome):
            stops = [x for x in (outcome.stop_level_1, outcome.stop_level_2)
                     if x is not NEVER]
            return min(stops)

        for k in (1, 2, 3):
            reached = sum(1 for o in outcomes if level(o) >= k)
            expect = Fraction(1, 4) ** k
            assert abs(reached / config.trials - expect) < 0.01

    def test_no_pre_whistle_stops(self):
        stats = monte_carlo(TimingConfig(eta=2, trials=5000, seed=3))
        assert stats.counts[StopperClass.PRE_WHISTLE] == 0
        assert stats.counts[StopperClass.NEVER] == 0

    def test_empty_run(self):
        stats = monte_carlo(TimingConfig(trials=0))
        assert stats.trials == 0 and stats.mean_payoffs is None
        assert sum(stats.counts.values()) == 0

    def test_reproducible_stats(self):
        config = TimingConfig(eta=Fraction(1, 2), trials=3000, seed=17)
        assert monte_carlo(config) == monte_carlo(config)

    def test_counts_must_sum(self):
        with pytest.raises(InconsistentOutcome):
            SimStats(5, {StopperClass.SOLE_1: 4}, {}, None, {})


class TestEmpiricalAgreement:
    @pytest.mark.parametrize("trials", [10 ** 4, 10 ** 5])
    def test_three_sigma_bands(self, trials):
        config = TimingConfig(eta=1, trials=trials, seed=42)
        stats = monte_carlo(config)
        exact = outcome_distribution(1)
        for cls, p in exact.items():
            band = 3 * math.sqrt(float(p * (1 - p)) / trials)
            assert abs(float(stats.probabilities[cls] - p)) <= band
        for mean in stats.mean_payoffs:
            assert abs(float(mean)) < 0.01


class TestDeviations:
    @pytest.mark.parametrize("eta", ETAS)
    @pytest.mark.parametrize("player", [1, 2])
    def test_all_enumerated_deviations_nonpositive(self, eta, player):
        config = TimingConfig(eta=eta)
        for m in range(8):
            assert deviation_payoff(config, PureLevel(m), player) == 0
        assert deviation_payoff(config, NeverBelowOmega(), player) == 0
        assert deviation_payoff(config, PreWhistleStop(), player) == Fraction(-1)

    @pytest.mark.parametrize("eta", [1, 2])
    @pytest.mark.parametrize("player", [1, 2])
    def test_a_deep_level_is_worth_zero_at_once(self, eta, player):
        # the calibrated per-level gain is 0, so no survival power of a
        # billion factors is taken
        start = time.perf_counter()
        value = deviation_payoff(TimingConfig(eta=eta), PureLevel(10 ** 9),
                                 player)
        assert time.perf_counter() - start < 0.5
        assert value == 0

    def test_unknown_deviation(self):
        with pytest.raises(InputError):
            deviation_payoff(TimingConfig(), "tomorrow")
        with pytest.raises(InputError):
            deviation_payoff(TimingConfig(), PureLevel(-1))

    @pytest.mark.parametrize("level", [2.5, 2.0, True, False, "2",
                                       Fraction(2)])
    def test_level_must_be_an_integer(self, level):
        # (1 - q) ** 2.5 would leave Fraction, and True would read as 1
        with pytest.raises(InputError, match="level must be an integer"):
            deviation_payoff(TimingConfig(eta=2), PureLevel(level))


class TestGridApproximant:
    def test_degenerate_grid_is_valid(self):
        validate_grid(race_grid(TimingConfig(), 0))

    def test_anchored_grid_is_valid(self):
        grid = race_grid(TimingConfig(whistle=Fraction(1, 3)), 4)
        validate_grid(grid)
        assert grid(ordinal(0)) == vt(0)
        assert grid(ordinal(1)) == vt(Fraction(1, 3))
        assert grid(ordinal(2)) == vt(Fraction(1, 3) + Fraction(1, 16))

    @pytest.mark.parametrize("n", range(-2, 11))
    def test_race_grids_meet_the_axioms_and_refine(self, n):
        # the race grid meets the axioms by construction and nothing checks
        # it at run time: the sampled check accepts it, and it refines into
        # the next grid
        for whistle in (0, Fraction(1, 3), Fraction(5, 8), 3):
            config = TimingConfig(whistle=whistle)
            validate_grid(race_grid(config, n))
            assert check_refines(race_grid(config, n), race_grid(config, n + 1))

    def test_the_approximant_checks_no_grid(self, monkeypatch):
        def refuse(grid):
            raise AssertionError("validate_grid called")

        monkeypatch.setattr(tilt, "validate_grid", refuse)
        approx = grid_approximant(TimingConfig(whistle=Fraction(1, 3)), 4)
        assert approx.grid(ordinal(1)) == vt(Fraction(1, 3))

    def test_frequencies_match_closed_form(self):
        config = TimingConfig(eta=1, trials=10 ** 4, seed=42)
        approx = grid_approximant(config, 10)
        assert approx.mesh == Fraction(1, 1024)
        for cls, p in outcome_distribution(1).items():
            assert abs(float(approx.stats.probabilities[cls] - p)) < 0.015

    def test_random_whistle_rejected(self):
        config = TimingConfig(
            whistle={Fraction(0): Fraction(1, 2), Fraction(1): Fraction(1, 2)})
        with pytest.raises(InputError):
            grid_approximant(config, 3)

    def test_sampled_path_tilts_to_the_race_level(self):
        assert path_tilt(TimingConfig(), 3) == vt(0, ordinal(3))
        assert path_tilt(TimingConfig(whistle=Fraction(5, 8)), 1) \
            == VTime(Fraction(5, 8), ordinal(1))
        assert path_tilt(TimingConfig(whistle=Fraction(3, 7)), 0) \
            == VTime(Fraction(3, 7), ordinal(0))


# --- the Fraction sampler as oracle -------------------------------------------
# The sampler that decided every coin as a Fraction, verbatim apart from
# its names and reading timing.BOUNDARY at call time.

def oracle_uniform(seed, trial, level, player):
    key = struct.pack(">QQQQ", seed, trial, level, player)
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return Fraction(int.from_bytes(digest, "big"), 2 ** 64)


def oracle_sample_whistle(config, trial):
    if not isinstance(config.whistle, dict):
        return config.whistle
    u = oracle_uniform(config.seed, trial, 0, 0)
    running = Fraction(0)
    for t in sorted(config.whistle):
        running += config.whistle[t]
        if u < running:
            return t
    return max(config.whistle)


def oracle_sample_race(config, trial):
    q1, q2 = stop_prob(1, config.eta), stop_prob(2, config.eta)
    for level in range(timing.BOUNDARY):
        one = oracle_uniform(config.seed, trial, level + 1, 1) < q1
        two = oracle_uniform(config.seed, trial, level + 1, 2) < q2
        if one or two:
            cls = (StopperClass.SIMULTANEOUS if one and two
                   else StopperClass.SOLE_1 if one else StopperClass.SOLE_2)
            outcome = RaceOutcome(level if one else NEVER,
                                  level if two else NEVER, cls, ())
            return RaceOutcome(outcome.stop_level_1, outcome.stop_level_2,
                               cls, payoff(outcome, config.eta))
    outcome = RaceOutcome(NEVER, NEVER, StopperClass.SIMULTANEOUS, ())
    return RaceOutcome(NEVER, NEVER, StopperClass.SIMULTANEOUS,
                       payoff(outcome, config.eta))


def oracle_monte_carlo(config):
    counts = {cls: 0 for cls in StopperClass}
    sums = [Fraction(0), Fraction(0)]
    for trial in range(config.trials):
        outcome = oracle_sample_race(config, trial)
        counts[outcome.stopper_class] += 1
        sums[0] += outcome.payoffs[0]
        sums[1] += outcome.payoffs[1]
    if config.trials == 0:
        return SimStats(0, counts, {}, None, {})
    probabilities = {cls: Fraction(k, config.trials)
                     for cls, k in counts.items()}
    radii = {cls: 3 * math.sqrt(float(p * (1 - p)) / config.trials)
             for cls, p in probabilities.items()}
    means = (sums[0] / config.trials, sums[1] / config.trials)
    return SimStats(config.trials, counts, probabilities, means, radii)


positive_etas = st.one_of(
    st.fractions(min_value=0, max_value=100),
    st.fractions(min_value=0, max_value=Fraction(1, 10 ** 12)),
    st.fractions(min_value=10 ** 12),
).filter(lambda q: q > 0)
seeds = st.integers(min_value=0, max_value=2 ** 64 - 1)


@st.composite
def whistle_distributions(draw):
    weights = draw(st.dictionaries(st.fractions(min_value=0, max_value=10),
                                   st.integers(min_value=0, max_value=9),
                                   min_size=1, max_size=5))
    if not any(weights.values()):
        weights[next(iter(weights))] = 1
    total = sum(weights.values())
    return {t: Fraction(w, total) for t, w in weights.items()}


whistles = st.one_of(st.fractions(min_value=0, max_value=10),
                     whistle_distributions())


def assert_matches_oracle(config, races=20):
    assert monte_carlo(config) == oracle_monte_carlo(config)
    for trial in range(races):
        assert sample_race(config, trial) == oracle_sample_race(config, trial)


class TestAgainstFractionSampler:
    @given(positive_etas, whistles, st.integers(min_value=0, max_value=200),
           seeds)
    @settings(deadline=None, max_examples=80)
    def test_stats_and_races(self, eta, whistle, trials, seed):
        assert_matches_oracle(TimingConfig(eta, whistle, trials, seed))

    @given(whistle_distributions(), seeds)
    @example({Fraction(0): Fraction(0), Fraction(1): Fraction(1)}, 0)
    @example({Fraction(0): 1 - Fraction(1, 2 ** 64),
              Fraction(1): Fraction(1, 2 ** 64)}, 2 ** 64 - 1)
    @settings(deadline=None, max_examples=80)
    def test_whistle_draws(self, whistle, seed):
        # the last cumulative mass is 1, a cut of 2^64 whose nine-byte
        # bound every 8-byte digest sorts below
        assert timing._cut(sum(whistle.values())) == 2 ** 64
        assert timing._bound(2 ** 64) > b"\xff" * 8
        config = TimingConfig(whistle=whistle, seed=seed)
        for trial in range(20):
            assert sample_whistle(config, trial) \
                == oracle_sample_whistle(config, trial)

    @pytest.mark.parametrize("seed, trial", [(0, 0), (7, 3), (2 ** 64 - 1, 9)])
    def test_whistle_draw_at_its_cut(self, seed, trial):
        # a first mass of exactly u puts the draw on the cut, which it
        # does not fall below; one more 2^-64 of mass and it does
        u = oracle_uniform(seed, trial, 0, 0)
        for mass, first in ((u, False), (u + Fraction(1, 2 ** 64), True)):
            config = TimingConfig(
                whistle={Fraction(0): mass, Fraction(1): 1 - mass}, seed=seed)
            assert sample_whistle(config, trial) \
                == oracle_sample_whistle(config, trial) == (0 if first else 1)

    @given(st.one_of(
        st.fractions(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=2 ** 64).map(
            lambda k: Fraction(k, 2 ** 64))))
    def test_cut_decides_each_draw_like_the_fraction(self, q):
        cut = timing._cut(q)
        for n in (0, cut - 1, cut, cut + 1, 2 ** 64 - 1):
            if 0 <= n < 2 ** 64:
                assert (n < cut) == (Fraction(n, 2 ** 64) < q)

    @pytest.mark.parametrize("boundary", [0, 1])
    @pytest.mark.parametrize("eta", [Fraction(1, 10 ** 9), Fraction(1),
                                     Fraction(10 ** 9)])
    def test_forced_boundary_stop(self, monkeypatch, boundary, eta):
        monkeypatch.setattr(timing, "BOUNDARY", boundary)
        config = TimingConfig(eta=eta, trials=200, seed=8)
        assert_matches_oracle(config)
        races = [sample_race(config, trial) for trial in range(200)]
        boundary_stops = [o for o in races if o.stop_level_1 is NEVER
                          and o.stop_level_2 is NEVER]
        assert all(
            o.stopper_class is StopperClass.SIMULTANEOUS
            and o.payoffs == (0, 0) for o in boundary_stops)
        if boundary == 0:
            assert len(boundary_stops) == 200

    @pytest.mark.parametrize("eta", [Fraction(2 ** 70), Fraction(1, 2 ** 70)])
    def test_extreme_cuts(self, eta):
        # at eta = 2^70, q1 > 1 - 2^-64: the cut is 2^64 and its bound the
        # nine bytes every 8-byte digest sorts below, so 1 always stops at
        # level 0; at 2^-70 the cut is 1 and only the digest 0 stops 1
        cut1 = timing._cut(stop_prob(1, eta))
        assert cut1 == (2 ** 64 if eta > 1 else 1)
        assert timing._bound(cut1) == (b"\xff" * 9 if eta > 1
                                       else bytes(7) + b"\x01")
        for seed in (0, 3, 2 ** 64 - 1):
            assert_matches_oracle(TimingConfig(eta=eta, trials=300, seed=seed))
        stats = monte_carlo(TimingConfig(eta=eta, trials=300, seed=3))
        if eta > 1:
            assert stats.counts[StopperClass.SOLE_2] == 0
        else:
            assert stats.counts[StopperClass.SOLE_1] == 0

    def test_tails_follow_the_boundary(self, monkeypatch):
        # the key tails are memoised per boundary read at call time: a run
        # at the default boundary must not leave its tails to a patched one
        config = TimingConfig(eta=Fraction(1, 5), trials=200, seed=21)
        default = timing.BOUNDARY
        assert_matches_oracle(config)
        for boundary in (0, 1, default):
            monkeypatch.setattr(timing, "BOUNDARY", boundary)
            assert_matches_oracle(config)
            races = [sample_race(config, trial) for trial in range(200)]
            at_boundary = sum(1 for o in races if o.stop_level_1 is NEVER
                              and o.stop_level_2 is NEVER)
            if boundary == 0:
                assert at_boundary == 200
            elif boundary == 1:
                # each race reaches level 1 with probability 5/6 * 1/2
                assert 0 < at_boundary < 200

    @pytest.mark.parametrize("eta", [Fraction(1), Fraction(1, 2 ** 70),
                                     Fraction(2 ** 70)])
    def test_trials_in_any_order(self, eta):
        # trials share only the seed's hash state: reversed or sparse trial
        # numbers give each trial the race it has on its own
        config = TimingConfig(eta=eta, seed=2 ** 64 - 3)
        for trials in (range(40, 0, -1), [2 ** 64 - 1, 0, 7, 2 ** 40, 7, 3]):
            races = timing._races(config.seed, trials, *timing._cuts(eta))
            assert [timing._outcome(race, eta) for race in races] \
                == [oracle_sample_race(config, t) for t in trials]

    @pytest.mark.parametrize("seed, trial", [(5, 11), (2 ** 64 - 1, 0)])
    def test_no_stop_at_a_draw_equal_to_the_cut(self, seed, trial):
        # a coin comes up iff its draw is below its cut: at a cut equal to
        # the trial's first draw the coin stays down there, one above it
        # comes up
        def first_draw(player):
            key = struct.pack(">QQQQ", seed, trial, 1, player)
            return int.from_bytes(
                hashlib.blake2b(key, digest_size=8).digest(), "big")

        for player in (1, 2):
            cuts = [0, 0]
            cuts[player - 1] = first_draw(player)
            (level, *_), = timing._races(seed, [trial], *cuts)
            assert level > 0
            cuts[player - 1] += 1
            assert list(timing._races(seed, [trial], *cuts)) \
                == [(0, player == 1, player == 2)]
        # eta = n / (2^64 - n) gives player 1 the probability n / 2^64,
        # whose cut is exactly n
        n = first_draw(1)
        config = TimingConfig(eta=Fraction(n, 2 ** 64 - n), seed=seed)
        assert timing._cuts(config.eta)[0] == n
        assert sample_race(config, trial) == oracle_sample_race(config, trial)

    def test_no_python_call_per_draw(self):
        # at eta = 2^-70 player 1 stops with probability below 2^-70 and
        # player 2 with 1/2 per level, so a trial draws 4 coins on average
        # and never fewer than 2; the sampler may spend about one Python
        # call per trial, plus a constant per distinct race, but none per
        # draw
        config = TimingConfig(eta=Fraction(1, 2 ** 70), trials=5000, seed=1)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        sys.setprofile(count)
        try:
            monte_carlo(config)
        finally:
            sys.setprofile(None)
        assert calls < config.trials * 3 // 2

    def test_no_fraction_per_trial(self):
        # Fraction work is per distinct race outcome, of which there are
        # a few dozen, not per trial or per draw
        config = TimingConfig(eta=Fraction(2, 3), trials=5000, seed=1)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_filename \
                    == sys.modules["fractions"].__file__:
                calls += 1

        sys.setprofile(count)
        try:
            monte_carlo(config)
        finally:
            sys.setprofile(None)
        assert calls < config.trials
