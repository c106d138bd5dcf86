"""End-to-end acceptance checks for the package's headline results.

Each test pins one externally meaningful outcome: exact equilibrium
verdicts and payoffs, enumeration counts, oracle equivalences on fuzzed
instances, exact tilting limits, completion laws, and the preemption
race statistics, each within its stated time budget.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from conftest import random_poset, random_strict_sef

from exform.equil import (
    EUStructure,
    bayes_beliefs,
    expected_payoff,
    uniform_tastes,
    units,
    verify_equilibrium,
)
from exform.instances import (
    MP_SCENARIOS,
    _assign,
    amd_instance,
    mp_choice_first,
    mp_choice_second,
    mp_sef,
    simple_sdf,
    simple_variant_sdf,
)
from exform.order import (
    Poset,
    check_dense_completion,
    dm_completion,
    is_complete_lattice,
)
from exform.play import (
    StrategyProfile,
    check_wellposed_direct,
    check_wellposed_order,
    outcome_from,
    profile_tables,
)
from exform.sdf import enumerate_recall_structures
from exform.sef import strategies
from exform.tilt import StopIndexFamily, dyadic_family, nested_family, tilting_limit
from exform.timing import (
    NeverBelowOmega,
    PreWhistleStop,
    PureLevel,
    StopperClass,
    TimingConfig,
    deviation_payoff,
    grid_approximant,
    monte_carlo,
    outcome_distribution,
)
from exform.vtime import (
    INFINITY,
    OMEGA1,
    Ordinal,
    PointPiece,
    VerticalSegment,
    VTime,
    fundamental_sequence,
    is_limit,
    ord_cmp,
    ord_succ,
    ordinal,
    vt,
    vt_inf,
    vt_sup,
)

TWO_THIRDS = Fraction(2, 3)


class TestExitRaceSweep:
    def test_equilibrium_exactly_at_two_thirds(self):
        start = time.perf_counter()
        verdicts = {}
        for p in (Fraction(0), Fraction(1, 3), TWO_THIRDS, Fraction(1)):
            sef, eu, s, _ = amd_instance(p)
            verdicts[p] = verify_equilibrium(sef, eu, s).in_equilibrium
        assert verdicts == {Fraction(0): False, Fraction(1, 3): False,
                            TWO_THIRDS: True, Fraction(1): False}

        sef, eu, s, _ = amd_instance(TWO_THIRDS)
        for agent in (1, 2):
            unit = next(u for u in units(sef) if u[0] == agent)
            for t in strategies(sef, agent):
                table = dict(s.strategies)
                table[agent] = t
                values = expected_payoff(sef, eu, StrategyProfile(table), *unit)
                assert set(values.values()) == {Fraction(8, 5)}
        assert time.perf_counter() - start < 1.0


def _mp_tastes():
    for_j = {}
    for w in MP_SCENARIOS:
        for a in "12":
            for b in "12":
                for_j[f"{w}:{a}{b}"] = Fraction(
                    (-1) ** (int(w[1]) + int(a) + int(b)))
    return {k: -v for k, v in for_j.items()}, for_j


def _mp_profile(case, first, picks_j, p=TWO_THIRDS):
    sef, _ = mp_sef(case)
    prior = {w: (p if w[1] == "1" else 1 - p) / 8 for w in MP_SCENARIOS}
    s = StrategyProfile({"i": _assign(sef, "i", [mp_choice_first(first)]),
                         "j": _assign(sef, "j", picks_j)})
    for_i, for_j = _mp_tastes()
    eu = EUStructure(bayes_beliefs(sef, prior, s),
                     uniform_tastes(sef, {"i": for_i, "j": for_j}))
    return sef, eu, s


def _mp_verdict(case, first, picks_j, p=TWO_THIRDS):
    sef, eu, s = _mp_profile(case, first, picks_j, p)
    return verify_equilibrium(sef, eu, s).in_equilibrium


def _mp_payoffs(case, first, picks_j, p):
    sef, eu, s = _mp_profile(case, first, picks_j, p)
    assert verify_equilibrium(sef, eu, s).in_equilibrium
    tables = profile_tables(sef, s)
    played = {w: outcome_from(sef, tables, sef.sdf.root_of(w))
              for w in sef.sdf.scenarios}
    values = {}
    for unit in units(sef):
        agent, block = unit
        if not any(played[w] in m(w)
                   for m in block.random_moves for w in m.domain):
            continue
        values.setdefault(agent, set()).update(
            expected_payoff(sef, eu, s, *unit).values())
    return values


CONST1 = {w: "1" for w in MP_SCENARIOS}
CONST2 = {w: "2" for w in MP_SCENARIOS}
Z0_SPLIT = {w: "1" if w[3] == "0" else "2" for w in MP_SCENARIOS}
Z0_SPLIT_FLIP = {w: "2" if w[3] == "0" else "1" for w in MP_SCENARIOS}
REACT = [mp_choice_second("1", CONST2), mp_choice_second("2", CONST1)]


def _reaction_map(ones_z, flip=False):
    """A merged-information reaction playing 1 exactly on the given
    (z1, z2) blocks."""
    return {w: ("1" if ((w[4], w[5]) in ones_z) != flip else "2")
            for w in MP_SCENARIOS}


def _split_reaction_map(ones_rz):
    """A reaction measurable in (coin, z1, z2) playing 1 on the given
    blocks."""
    return {w: "1" if (w[1], w[4], w[5]) in ones_rz else "2"
            for w in MP_SCENARIOS}


def _block_counts(k1, k2):
    """Play 1 on the first k1 (z1, z2) blocks of coin side 1 and the
    first k2 of side 2."""
    blocks = sorted({(w[1], w[4], w[5]) for w in MP_SCENARIOS})
    chosen = set(sorted(b for b in blocks if b[0] == "1")[:k1])
    chosen |= set(sorted(b for b in blocks if b[0] == "2")[:k2])
    return _split_reaction_map(chosen)


class TestCoinMatchingCases:
    def test_condition_sets_and_payoffs(self):
        start = time.perf_counter()

        # case 1: any constant first move plus the deterministic reaction
        assert _mp_verdict(1, CONST2, REACT)
        assert not _mp_verdict(1, Z0_SPLIT, REACT)
        same = [mp_choice_second("1", CONST1), mp_choice_second("2", CONST1)]
        assert not _mp_verdict(1, CONST1, same)
        assert _mp_payoffs(1, CONST1, REACT, TWO_THIRDS) \
            == {"i": {Fraction(-1, 3)}, "j": {Fraction(1, 3)}}
        assert _mp_payoffs(1, CONST1, REACT, Fraction(4, 5)) \
            == {"i": {Fraction(-3, 5)}, "j": {Fraction(3, 5)}}

        # case 2: a half-and-half randomizing first move plus a reaction
        # playing each action on half the hidden-signal blocks
        balanced = _reaction_map({("0", "0"), ("1", "1")})
        lopsided = _reaction_map({("0", "0")})
        merged = lambda g: [mp_choice_second(".", g)]
        assert _mp_verdict(2, Z0_SPLIT_FLIP, merged(balanced))
        assert not _mp_verdict(2, CONST1, merged(balanced))
        assert not _mp_verdict(2, Z0_SPLIT, merged(lopsided))
        assert _mp_payoffs(2, Z0_SPLIT, merged(balanced), TWO_THIRDS) \
            == {"i": {Fraction(0)}, "j": {Fraction(0)}}

        # case 3: randomizing first move plus a coin-visible reaction whose
        # per-side block counts cancel the prior bias
        assert _mp_payoffs(3, Z0_SPLIT, merged(_block_counts(2, 2)),
                           TWO_THIRDS) \
            == {"i": {Fraction(0)}, "j": {Fraction(0)}}
        assert _mp_verdict(3, Z0_SPLIT, merged(_block_counts(1, 0)))
        assert _mp_verdict(3, Z0_SPLIT, merged(_block_counts(3, 4)))
        assert not _mp_verdict(3, Z0_SPLIT, merged(_block_counts(2, 1)))
        assert not _mp_verdict(3, CONST1, merged(_block_counts(2, 2)))

        # case 4: the single equilibrium profile
        best = [mp_choice_second("1", {w: "2" if w[1] == "1" else "1"
                                       for w in MP_SCENARIOS}),
                mp_choice_second("2", CONST1)]
        assert not _mp_verdict(4, CONST1, best)
        assert not _mp_verdict(4, Z0_SPLIT, best)
        assert not _mp_verdict(4, CONST2, REACT)
        assert _mp_payoffs(4, CONST2, best, TWO_THIRDS) \
            == {"i": {Fraction(-1, 3)}, "j": {Fraction(1, 3)}}
        assert _mp_payoffs(4, CONST2, best, Fraction(4, 5)) \
            == {"i": {Fraction(-3, 5)}, "j": {Fraction(3, 5)}}

        assert time.perf_counter() - start < 5.0


class TestRecallEnumeration:
    def test_exact_structure_counts(self):
        sdf, _ = simple_sdf()
        assert len(enumerate_recall_structures(sdf, sdf.random_moves)) == 5
        variant, _ = simple_variant_sdf()
        assert len(enumerate_recall_structures(
            variant, variant.random_moves)) == 3


class TestWellPosednessOracles:
    def test_direct_and_order_checks_agree(self):
        start = time.perf_counter()
        rng = random.Random(20230823)
        for _ in range(100):
            sef = random_strict_sef(rng)
            assert sef.report.valid
            direct = check_wellposed_direct(sef)
            assert bool(direct) == check_wellposed_order(sef)
            # an outcome exists for every history and scenario, spot-checked
            # node by node under sampled profiles
            assert direct.existence
            pool = strategies(sef, "i")
            for strategy in rng.sample(pool, min(3, len(pool))):
                tables = profile_tables(sef, StrategyProfile({"i": strategy}))
                for w in sef.sdf.scenarios:
                    for node in sef.sdf.tree_of(w):
                        if len(node) > 1:
                            outcome_from(sef, tables, node)
        assert time.perf_counter() - start < 60.0


class TestTiltingLimits:
    def test_stop_time_limits_and_divergence(self):
        start = time.perf_counter()
        fine = StopIndexFamily(kappa=(ordinal(1),))
        double = StopIndexFamily(kappa=(ordinal(2),))
        # 4 at even depths, 1 at odd ones
        swing = StopIndexFamily(kappa=(ordinal(4), ordinal(1)))
        omega = StopIndexFamily(kappa=(Ordinal(((1, 1),)),))
        omega2 = StopIndexFamily(kappa=(Ordinal(((1, 2),)),))

        assert tilting_limit(fine, dyadic_family()).stop == vt(0, ordinal(1))
        assert tilting_limit(double, dyadic_family()).stop == vt(0, ordinal(2))
        assert tilting_limit(omega, nested_family()).stop \
            == VTime(Fraction(0), Ordinal(((1, 1),)))
        assert tilting_limit(omega2, nested_family()).stop \
            == VTime(Fraction(0), Ordinal(((1, 2),)))

        diverged = tilting_limit(swing, dyadic_family())
        assert not diverged.converged
        assert diverged.witness[0] == vt(0, ordinal(1))
        assert time.perf_counter() - start < 1.0


def _random_ordinal(rng):
    terms = []
    for exp in (2, 1, 0):
        if rng.random() < 0.5:
            terms.append((exp, rng.randint(1, 4)))
    return Ordinal(tuple(terms))


def _ordinal_predecessor(a):
    exp, coeff = a.cnf[-1]
    return Ordinal(a.cnf[:-1] + (((exp, coeff - 1),) if coeff > 1 else ()))


class TestSupremumInfimumCalculus:
    def test_against_brute_force_descriptors(self):
        assert vt_sup([]) == vt(0)
        assert vt_inf([]) == INFINITY

        rng = random.Random(312)
        for _ in range(1000):
            if rng.random() < 0.5:
                points = [VTime(Fraction(rng.randint(0, 40), rng.randint(1, 8)),
                                OMEGA1 if rng.random() < 0.1
                                else _random_ordinal(rng))
                          for _ in range(rng.randint(1, 8))]
                pieces = [PointPiece(x) for x in points]
                assert vt_sup(pieces) == max(points)
                assert vt_inf(pieces) == min(points)
            else:
                t = Fraction(rng.randint(0, 20), rng.randint(1, 6))
                lo = _random_ordinal(rng)
                hi = OMEGA1 if rng.random() < 0.2 else _random_ordinal(rng)
                if hi is not OMEGA1 and ord_cmp(lo, hi) >= 0:
                    hi = ord_succ(hi if ord_cmp(lo, hi) <= 0 else lo)
                piece = VerticalSegment(t, lo, hi)
                inf, sup = vt_inf([piece]), vt_sup([piece])
                assert inf == VTime(t, lo)
                if hi is OMEGA1:
                    assert sup == VTime(t, OMEGA1)
                elif is_limit(hi):
                    # unattained bound: cofinal stages stay strictly below
                    assert sup == VTime(t, hi)
                    for stage in itertools.islice(fundamental_sequence(hi), 20):
                        if ord_cmp(lo, stage) <= 0:
                            assert VTime(t, stage) < sup
                else:
                    # attained bound: the predecessor is the maximum
                    assert sup == VTime(t, _ordinal_predecessor(hi))
                    assert inf <= sup


class TestCompletionLaws:
    def test_random_small_posets(self):
        start = time.perf_counter()
        rng = random.Random(77)
        for _ in range(500):
            poset = random_poset(rng, rng.randint(1, 6))
            lattice, phi = dm_completion(poset)
            assert is_complete_lattice(lattice.as_poset())
            assert check_dense_completion(poset, lattice, phi)
            chain = [rng.choice(sorted(poset.elements))]
            for candidate in sorted(poset.elements):
                if all(poset.leq(candidate, x) or poset.leq(x, candidate)
                       for x in chain):
                    chain.append(candidate)
            images = [phi[x] for x in chain]
            assert all(lattice.leq(a, b) or lattice.leq(b, a)
                       for a, b in itertools.combinations(images, 2))
        two = Poset("ab", [("a", "a"), ("b", "b")])
        lattice, phi = dm_completion(two)
        assert len(lattice.elements) == 4
        assert check_dense_completion(two, lattice, phi)
        assert time.perf_counter() - start < 30.0


class TestPreemptionRace:
    def test_distribution_payoffs_and_grid(self):
        start = time.perf_counter()
        exact = outcome_distribution(1)
        assert exact == {StopperClass.SOLE_1: Fraction(1, 3),
                         StopperClass.SOLE_2: Fraction(1, 3),
                         StopperClass.SIMULTANEOUS: Fraction(1, 3)}

        config = TimingConfig(eta=1, trials=10 ** 5, seed=42)
        stats = monte_carlo(config)
        for cls, p in exact.items():
            assert abs(float(stats.probabilities[cls] - p)) <= 0.01
        for mean in stats.mean_payoffs:
            assert abs(float(mean)) <= 0.01

        for player in (1, 2):
            for level in range(6):
                assert deviation_payoff(config, PureLevel(level), player) <= 0
            assert deviation_payoff(config, NeverBelowOmega(), player) <= 0
            assert deviation_payoff(config, PreWhistleStop(), player) <= 0

        approx = grid_approximant(
            TimingConfig(eta=1, trials=10 ** 4, seed=42), 10)
        assert approx.mesh == Fraction(1, 1024)
        for cls, p in exact.items():
            assert abs(float(approx.stats.probabilities[cls] - p)) <= 0.015
        assert time.perf_counter() - start < 10.0


class TestPropertySuites:
    def test_single_green_run_within_budget(self):
        files = ["test_forest.py", "test_order.py", "test_sdf.py",
                 "test_sef.py", "test_play.py", "test_vtime.py",
                 "test_tilt.py", "test_timing.py"]
        here = Path(__file__).parent
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *[str(here / f) for f in files]],
            capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        assert result.returncode == 0, result.stdout[-2000:]
        assert elapsed < 180.0
