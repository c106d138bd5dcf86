import ast
import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exform import equil
from exform._util import canonical
from exform.equil import (
    Belief,
    EUStructure,
    ConsistencyReport,
    RationalityReport,
    _Deviations,
    _UnitPlan,
    _deviation_total,
    _common_prior,
    _scaled,
    _ordered_directions,
    bayes_beliefs,
    check_dynamic_consistency,
    check_dynamic_rationality,
    expected_payoff,
    information_blocks,
    unit_domain,
    units,
    uniform_tastes,
    validate_eu,
    verify_equilibrium,
)
from exform.errors import (
    BudgetExceeded,
    EnumerationBudgetExceeded,
    ExformError,
    InputError,
    MultipleOutcomes,
    NoOutcome,
    NotAHistory,
    UnknownExample,
    ZeroProbabilityBlockRequested,
)
from exform.instances import (
    MP_SCENARIOS,
    SIMPLE_SCENARIOS,
    _assign,
    amd_instance,
    amd_signal,
    load_example,
    mp_choice_first,
    mp_choice_second,
    mp_instance,
    simple_split_sdf,
)
from exform.forest import DecisionForest
from exform.play import (
    StrategyProfile,
    TreeFills,
    outcome_from,
    profile_tables,
    scenario_outcomes,
)
from exform.sdf import RandomMove, StochasticDecisionForest, check_flags
from exform.sef import (
    InfoSet,
    StochasticExtensiveForm,
    Strategy,
    convert_strategy,
    info_sets,
    strategies,
)
from test_acceptance import (
    CONST1,
    CONST2,
    REACT,
    Z0_SPLIT,
    Z0_SPLIT_FLIP,
    _block_counts,
    _mp_profile,
    _reaction_map,
)
from conftest import (make_rng, random_strict_sef, stdout_across_hash_seeds,
                      unvalidated)
from test_play import dealt_to_two, one_move_pseudo

EXAMPLES = ["simple", "simple-variant", "amd",
            "mp-case1", "mp-case2", "mp-case3", "mp-case4", "ultimatum"]

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def reached_units(sef, prior, profile):
    """Units whose member moves lie on positive-prior play paths."""
    tables = profile_tables(sef, profile)
    played = {w: outcome_from(sef, tables, sef.sdf.root_of(w))
              for w in sef.sdf.scenarios}
    result = []
    for unit in units(sef):
        _, p = unit
        if any(Fraction(prior.get(w, 0)) > 0 and played[w] in m(w)
               for m in p.random_moves for w in m.domain):
            result.append(unit)
    return result


def split_instance(prior):
    """
    The two-period form with every random move split per scenario and
    each choice confined to one scenario: every info set lives on one
    scenario, so units on o1 and on o2 have disjoint domains.  The single
    agent plays 1 then 1 with beliefs derived from the prior.
    """
    sdf = simple_split_sdf()
    refchoices, info = {}, {}
    for m in sdf.random_moves:
        (w,) = m.domain
        stage = "first" if len(m(w)) == 4 else "second"
        refchoices[m] = [
            frozenset(f"{w}:{k}{b}" for b in "12") if stage == "first"
            else frozenset(f"{w}:{a}{k}" for a in "12") for k in "12"]
        info[m] = frozenset({frozenset({w})})
    choices = frozenset(c for cs in refchoices.values() for c in cs)
    sef = StochasticExtensiveForm(sdf, ("i",), {"i": sdf.random_moves},
                                  {"i": info}, {"i": refchoices},
                                  {"i": choices})
    picks = [c for c in choices if all(o[-2] == "1" for o in c)
             or all(o[-1] == "1" for o in c)]
    s = StrategyProfile({"i": _assign(sef, "i", picks)})
    taste = {f"{w}:{a}{b}": Fraction(a == b == "1")
             for w in SIMPLE_SCENARIOS for a in "12" for b in "12"}
    eu = EUStructure(bayes_beliefs(sef, prior, s),
                     uniform_tastes(sef, {"i": taste}))
    return sef, eu, s


def swap(sef, profile, agent, strategy):
    table = dict(profile.strategies)
    table[agent] = strategy
    return StrategyProfile(table)


class TestExamples:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_verdict_and_payoffs(self, name):
        sef, eu, s, expected = load_example(name)
        validate_eu(sef, eu)
        report = verify_equilibrium(sef, eu, s)
        assert report.in_equilibrium == expected["equilibrium"]
        prior = expected["prior"]
        for agent, want in expected["payoffs"].items():
            for unit in reached_units(sef, prior, s):
                if unit[0] != agent:
                    continue
                values = expected_payoff(sef, eu, s, *unit)
                assert values and set(values.values()) == {want}

    def test_unknown_example(self):
        with pytest.raises(UnknownExample):
            load_example("mp-case5")
        with pytest.raises(UnknownExample):
            load_example("nope")

    def test_singleton_groups_consistent(self):
        sef, eu, s, _ = load_example("simple")
        report = check_dynamic_consistency(sef, eu, s)
        for group, status in report.pair_status.items():
            if len(group) == 1:
                assert status == "consistent"

    def test_vacuous_pair_labeled(self):
        # the unreached second-stage info set constrains no pair prior
        sef, eu, s, _ = load_example("simple")
        statuses = check_dynamic_consistency(sef, eu, s).pair_status
        assert "vacuously consistent" in statuses.values()
        assert "inconsistent" not in statuses.values()

    def test_ultimatum_rejection_worse(self):
        sef, eu, s, _ = load_example("ultimatum")
        reject_both = [t for t in strategies(sef, "r")
                       if all("a" not in sorted(c)[0][-1]
                              for c in t.assignment.values())]
        (t,) = reject_both
        unit = next(u for u in reached_units(sef, {"u": 1}, s)
                    if u[0] == "r")
        base = expected_payoff(sef, eu, s, *unit)
        worse = expected_payoff(sef, eu, swap(sef, s, "r", t), *unit)
        assert all(worse[b] < base[b] for b in base)


class TestExitGameSweep:
    def test_equilibrium_only_at_two_thirds(self):
        verdicts = {}
        for p in (Fraction(0), THIRD, 2 * THIRD, Fraction(1)):
            sef, eu, s, _ = amd_instance(p)
            verdicts[p] = verify_equilibrium(sef, eu, s).in_equilibrium
        assert verdicts == {Fraction(0): False, THIRD: False,
                            2 * THIRD: True, Fraction(1): False}

    def test_all_deviations_tie_at_two_thirds(self):
        sef, eu, s, _ = amd_instance(Fraction(2, 3))
        for agent in (1, 2):
            unit = next(u for u in units(sef) if u[0] == agent)
            for t in strategies(sef, agent):
                values = expected_payoff(sef, eu, swap(sef, s, agent, t),
                                         *unit)
                assert set(values.values()) == {Fraction(8, 5)}

    def test_one_third_witness_values(self):
        # stopping is worth 1 where the profile stops; waiting is worth 5/2
        sef, eu, s, _ = amd_instance(THIRD)
        report = check_dynamic_rationality(sef, eu, s)
        assert not report.rational
        assert {(w[4], w[5]) for w in report.witnesses} \
            == {(Fraction(1), Fraction(5, 2))}

    def test_endpoint_witness_values(self):
        sef, eu, s, _ = amd_instance(Fraction(0))
        wit = check_dynamic_rationality(sef, eu, s).witnesses
        assert {(w[4], w[5]) for w in wit} == {(Fraction(0), Fraction(4))}
        sef, eu, s, _ = amd_instance(Fraction(1))
        wit = check_dynamic_rationality(sef, eu, s).witnesses
        assert (Fraction(1), Fraction(2)) in {(w[4], w[5]) for w in wit}

    def test_consistency_across_sweep(self):
        for p in (Fraction(0), THIRD, 2 * THIRD, Fraction(1)):
            sef, eu, s, _ = amd_instance(p)
            assert check_dynamic_consistency(sef, eu, s).consistent

    def test_unrepresentable_exit_probability(self):
        with pytest.raises(InputError):
            amd_instance(Fraction(1, 2))
        with pytest.raises(InputError):
            amd_instance(Fraction(3, 2))


class TestPosteriorOracle:
    def test_bayes_matches_set_formula(self):
        # independent oracle: the set of scenarios reaching an agent's move
        # is "the agent is singled out, or the other agent did not stop"
        sef, eu, s, prior = amd_instance(Fraction(2, 3))
        for agent, other in ((1, 2), (2, 1)):
            unit = next(u for u in units(sef) if u[0] == agent)
            reached = {w for w in sef.sdf.scenarios
                       if w[1] == str(agent) or amd_signal(w, other) != "0"}
            mass = sum(prior[w] for w in reached)
            want = {w: prior[w] / mass for w in reached}
            assert eu.beliefs[unit].prob == want

    def test_replacing_posterior_by_prior_breaks_consistency(self):
        sef, eu, s, prior = amd_instance(Fraction(2, 3))
        unit = next(u for u in units(sef) if u[0] == 2)
        eu.beliefs[unit] = Belief(dict(prior), eu.beliefs[unit].assessment)
        solved = check_dynamic_consistency(sef, eu, s)
        assert not solved.consistent
        # the prior charges r1a0b0, where agent 1 exits first: a prior
        # charging either direction breaks agent 2's row there
        first = next(u for u in units(sef) if u[0] == 1)
        assert solved.witnesses[frozenset({first, unit})] \
            == ("prior", (unit, "r1a0b0"), (unit, "r1a0b0"))


class TestVacuity:
    """A pair is vacuously consistent only when every common prior puts
    no mass on a conditioning event, not merely the one the solver finds."""

    @pytest.mark.parametrize("prior", [
        {"o1": HALF, "o2": HALF},
        {"o1": THIRD, "o2": 2 * THIRD},
    ])
    def test_disjoint_domains_consistent(self, prior):
        sef, eu, s = split_instance(prior)
        report = check_dynamic_consistency(sef, eu, s)
        assert report.consistent
        assert set(report.pair_status.values()) == {"consistent"}
        disjoint = [g for g in report.pair_status if len(g) == 2
                    and not frozenset.intersection(*map(unit_domain, g))]
        assert len(disjoint) == 4
        for group in disjoint:
            q = report.priors[group]
            assert q["o1"] > 0 and q["o2"] > 0
            assert sum(q.values()) == 1


class TestCoinMatching:
    def test_case1_wrong_continuation_irrational(self):
        sef, eu, s, prior = mp_instance(1)
        flipped = swap(sef, s, "j", next(
            t for t in strategies(sef, "j")
            if set(t.assignment.values()) ==
            {mp_choice_second("1", {w: "1" for w in MP_SCENARIOS}),
             mp_choice_second("2", {w: "1" for w in MP_SCENARIOS})}))
        eu2 = EUStructure(bayes_beliefs(sef, prior, flipped), eu.tastes)
        assert not check_dynamic_rationality(sef, eu2, flipped).rational

    @pytest.mark.parametrize("case", [2, 3])
    def test_pure_first_mover_irrational(self, case):
        # leaning to one side lets the follower match, then the leader
        # regrets: only the even mix survives
        sef, eu, s, prior = mp_instance(case)
        pure = swap(sef, s, "i", next(
            t for t in strategies(sef, "i")
            if set(t.assignment.values()) ==
            {mp_choice_first({w: "1" for w in MP_SCENARIOS})}))
        eu2 = EUStructure(bayes_beliefs(sef, prior, pure), eu.tastes)
        assert not check_dynamic_rationality(sef, eu2, pure).rational

    def test_case4_off_path_value(self):
        # the unreached first-action info set is worth 1 on every block
        sef, eu, s, _ = mp_instance(4)
        unreached = [u for u in units(sef) if u[0] == "j"
                     and u not in reached_units(
                         sef, {w: Fraction(1, 16) for w in MP_SCENARIOS}, s)]
        (off,) = unreached
        values = expected_payoff(sef, eu, s, *off)
        assert set(values.values()) == {Fraction(1)}

    def test_disagreeing_parallel_beliefs_inconsistent(self):
        # two side-by-side info sets of one agent must share their belief
        sef, eu, s, _ = mp_instance(1)
        j_units = [u for u in units(sef) if u[0] == "j"]
        uniform = {w: Fraction(1, 16) for w in MP_SCENARIOS}
        eu.beliefs[j_units[1]] = Belief(
            uniform, eu.beliefs[j_units[1]].assessment)
        report = check_dynamic_consistency(sef, eu, s)
        assert report.pair_status[frozenset(j_units)] == "inconsistent"

    def test_taste_disagreement_flagged(self):
        sef, eu, s, _ = mp_instance(1)
        unit = next(u for u in units(sef) if u[0] == "j")
        eu.tastes[unit] = {w: Fraction(0) for w in eu.tastes[unit]}
        report = check_dynamic_consistency(sef, eu, s)
        assert not report.tastes_consistent
        assert not report.consistent


class TestPayoffInterface:
    def test_zero_probability_block(self):
        sef, eu, s, _ = amd_instance(Fraction(2, 3))
        unit = next(u for u in units(sef) if u[0] == 1)
        blocks = sorted(information_blocks(sef, *unit), key=sorted)
        support = blocks[0]
        eu.beliefs[unit] = Belief(
            {w: Fraction(1, len(support)) for w in support},
            eu.beliefs[unit].assessment)
        with pytest.raises(ZeroProbabilityBlockRequested):
            expected_payoff(sef, eu, s, *unit, block=blocks[1])
        values = expected_payoff(sef, eu, s, *unit)
        assert set(values) == {support}

    def test_not_a_block(self):
        sef, eu, s, _ = load_example("simple")
        unit = units(sef)[0]
        with pytest.raises(InputError):
            expected_payoff(sef, eu, s, *unit, block=frozenset({"o1"}))

    def test_rationality_budget(self, monkeypatch):
        sef, eu, s, _ = load_example("simple")
        monkeypatch.setenv("EXFORM_BUDGET", "1")
        with pytest.raises(EnumerationBudgetExceeded):
            check_dynamic_rationality(sef, eu, s)

    def test_missing_belief_rejected(self):
        sef, eu, s, _ = load_example("simple")
        broken = EUStructure(dict(eu.beliefs), eu.tastes)
        broken.beliefs.pop(units(sef)[0])
        with pytest.raises(InputError):
            validate_eu(sef, broken)

    def test_non_probability_rejected(self):
        sef, eu, s, _ = load_example("simple")
        unit = units(sef)[0]
        bad = eu.beliefs[unit]
        eu.beliefs[unit] = Belief({w: Fraction(1) for w in bad.assessment},
                                  bad.assessment)
        with pytest.raises(InputError):
            validate_eu(sef, eu)

    @pytest.mark.parametrize("value", [float("nan"), None, "x"])
    def test_malformed_belief_value_rejected(self, value):
        sef, eu, s, _ = load_example("amd")
        unit = units(sef)[-1]
        bad = eu.beliefs[unit]
        eu.beliefs[unit] = Belief({**bad.prob, min(bad.prob): value},
                                  bad.assessment)
        for check in (validate_eu, check_dynamic_consistency,
                      check_dynamic_rationality, verify_equilibrium):
            with pytest.raises(InputError, match=re.escape(repr(unit))):
                check(sef, eu) if check is validate_eu else check(sef, eu, s)
        with pytest.raises(InputError, match=re.escape(repr(unit))):
            expected_payoff(sef, eu, s, *unit)

    @pytest.mark.parametrize("spoil", [
        "no belief", "no taste", "missed outcome", "taste not a number"])
    def test_expected_payoff_validates_its_unit(self, spoil):
        sef, eu, s, _ = load_example("amd")
        unit = units(sef)[0]
        taste = dict(eu.tastes[unit])
        assert "r1a0b0:D" in taste
        if spoil == "no belief":
            del eu.beliefs[unit]
        elif spoil == "no taste":
            del eu.tastes[unit]
        elif spoil == "missed outcome":
            del taste["r1a0b0:D"]
            eu.tastes[unit] = taste
        else:
            eu.tastes[unit] = {**taste, "r1a0b0:D": "x"}
        with pytest.raises(InputError, match=re.escape(repr(unit))):
            expected_payoff(sef, eu, s, *unit)

    def test_expected_payoff_validates_no_other_unit(self):
        sef, eu, s, _ = load_example("amd")
        first, last = units(sef)[0], units(sef)[-1]
        payoff = expected_payoff(sef, eu, s, *first)
        del eu.beliefs[last]
        assert expected_payoff(sef, eu, s, *first) == payoff
        with pytest.raises(InputError):
            validate_eu(sef, eu)


class TestBayesBeliefs:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_validates_everywhere(self, name):
        sef, eu, s, expected = load_example(name)
        rebuilt = EUStructure(bayes_beliefs(sef, expected["prior"], s),
                              eu.tastes)
        validate_eu(sef, rebuilt)
        assert rebuilt.beliefs == eu.beliefs

    def test_assessment_follows_play(self):
        sef, eu, s, _ = mp_instance(2)
        tables = profile_tables(sef, s)
        unit = next(u for u in units(sef) if u[0] == "j")
        for w in unit_domain(unit):
            out = outcome_from(sef, tables, sef.sdf.root_of(w))
            m = eu.beliefs[unit].assessment[w]
            assert out in m(w)

    def test_prior_missing_domain(self):
        sef, _, s, _ = load_example("simple")
        with pytest.raises(InputError):
            bayes_beliefs(sef, {"o1": Fraction(0), "o2": Fraction(0)}, s)


# --- oracle: the Gauss-Jordan plus Fourier-Motzkin solver --------------------

def _fm_feasible(ineqs, nvars, cap):
    """
    Decide feasibility of a system of rational linear inequalities
    (coeffs, const) meaning coeffs . y + const >= 0, by eliminating the
    variables from the last to the first; on success a witness point is
    recovered by back substitution.
    """
    stack = []
    current = list(ineqs)
    for k in range(nvars - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for coeffs, const in current:
            c = coeffs[k]
            head = coeffs[:k]
            if c > 0:
                lowers.append((head, const, c))
            elif c < 0:
                uppers.append((head, const, c))
            else:
                rest.append((head, const))
        stack.append((lowers, uppers))
        for hl, cl, al in lowers:
            for hu, cu, au in uppers:
                combo = tuple(al * hu[t] - au * hl[t] for t in range(k))
                rest.append((combo, al * cu - au * cl))
        if len(rest) > cap:
            raise BudgetExceeded(
                f"{len(rest)} inequalities after an elimination step")
        current = rest
    if any(const < 0 for _, const in current):
        return False, None
    values = []
    for lowers, uppers in reversed(stack):
        lb = [-(sum(h[t] * values[t] for t in range(len(h))) + c) / a
              for h, c, a in lowers]
        ub = [-(sum(h[t] * values[t] for t in range(len(h))) + c) / a
              for h, c, a in uppers]
        if lb and ub:
            values.append((max(lb) + min(ub)) / 2)
        elif lb:
            values.append(max(lb))
        elif ub:
            values.append(min(ub))
        else:
            values.append(Fraction(0))
    return True, values


def _solve_linear_system(universe, equations, cap):
    """
    Exact feasibility of equations sum(coeffs . q) = const together with
    q >= 0, over variables indexed by the universe.  Returns a witness
    assignment or None.
    """
    n = len(universe)
    pivots = {}
    for coeffs, const in equations:
        coeffs = list(coeffs)
        const = Fraction(const)
        for col in list(pivots):
            f = coeffs[col]
            if f:
                pc, pconst = pivots[col]
                coeffs = [a - f * b for a, b in zip(coeffs, pc)]
                const -= f * pconst
        lead = next((k for k, a in enumerate(coeffs) if a), None)
        if lead is None:
            if const != 0:
                return None
            continue
        inv = coeffs[lead]
        coeffs = [a / inv for a in coeffs]
        const /= inv
        for col in list(pivots):
            pc, pconst = pivots[col]
            f = pc[lead]
            if f:
                pivots[col] = ([a - f * b for a, b in zip(pc, coeffs)],
                               pconst - f * const)
        pivots[lead] = (coeffs, const)
    free = [k for k in range(n) if k not in pivots]
    index = {k: t for t, k in enumerate(free)}
    ineqs = []
    for k in range(n):
        if k in pivots:
            pc, pconst = pivots[k]
            ineqs.append((tuple(-pc[f] for f in free), pconst))
        else:
            unit = tuple(Fraction(int(f == k)) for f in free)
            ineqs.append((unit, Fraction(0)))
    feasible, values = _fm_feasible(ineqs, len(free), cap)
    if not feasible:
        return None
    q = {}
    for k, w in enumerate(universe):
        if k in pivots:
            pc, pconst = pivots[k]
            q[w] = pconst - sum(pc[f] * values[index[f]] for f in free)
        else:
            q[w] = values[index[k]]
    return q


# --- oracle: the integer-row simplex and the consistency check on it ---------
# The common prior was decided by this phase-1 simplex before the closed
# form; it stays as the oracle of the closed form, and TestFeasibility keeps
# it checked against the Fraction simplex and the elimination oracle.

def _feasible_point(universe, rows):
    """
    Exact feasibility of A q = b together with q >= 0, over variables
    indexed by the universe; each row is a sparse pair ({w: coeff}, const)
    of ints or Fractions.  A phase-1 simplex with one artificial variable
    per row, pivoting by Bland's rule (the entering column is the smallest
    index with a negative reduced cost, and a tie in the ratio test goes
    to the smallest basic index), which cannot cycle.  Returns a witness
    assignment or None.

    The arithmetic is on integers, as in integer-preserving elimination.
    Row i, the cost row included, stores a sparse dict of numerators, a
    numerator rhs[i] for its right-hand side and one positive denominator
    den[i] shared by all of them.  The pivot row takes its pivot entry as
    its denominator; every other row it touches becomes row * p - f *
    pivot over den * p and is brought to lowest terms.  Since den[i] > 0,
    every stored integer has the sign of the rational it stands for, and
    the ratio test's rhs_i / a_i is the same rational (den[i] cancels), so
    Bland's rule takes the pivots of the same simplex over Fraction and
    the witness is the same vertex.  Fractions are made only for it.
    """
    n, m = len(universe), len(rows)
    index = {w: k for k, w in enumerate(universe)}
    tableau, rhs, den = [], [], []
    for coeffs, const in rows:
        sign = -1 if const < 0 else 1
        parts = [(index[w], c.numerator, c.denominator)
                 for w, c in coeffs.items()]
        d = lcm(const.denominator, *(b for _, _, b in parts))
        tableau.append({k: sign * a * (d // b) for k, a, b in parts if a})
        rhs.append(sign * const.numerator * (d // const.denominator))
        den.append(d)
    # the last row holds the reduced costs of the phase-1 objective, the
    # total artificial mass, whose value is minus its right-hand side
    d = lcm(*den)
    cost = {}
    for row, dr in zip(tableau, den):
        scale = d // dr
        for k, v in row.items():
            cost[k] = cost.get(k, 0) - v * scale
    tableau.append(cost)
    rhs.append(-sum(b * (d // dr) for b, dr in zip(rhs, den)))
    den.append(d)
    # artificial n + i starts basic in row i; its unit column is implicit
    # and is dropped once it leaves, so it is never stored
    basis = list(range(n, n + m))
    while True:
        entering = min((k for k, v in cost.items() if v < 0), default=None)
        if entering is None:
            break
        # a negative reduced cost needs a positive entry in a row whose
        # artificial is still basic, so the ratio test has a candidate;
        # it compares rhs[i] / a with rhs[r] / best by cross-multiplying
        r = best = None
        for i in range(m):
            a = tableau[i].get(entering, 0)
            if a > 0 and (r is None or rhs[i] * best < rhs[r] * a or (
                    rhs[i] * best == rhs[r] * a and basis[i] < basis[r])):
                r, best = i, a
        # the pivot row keeps its integers over the denominator a_re
        pivot = tableau[r]
        den[r] = p = best
        basis[r] = entering
        for i, row in enumerate(tableau):
            f = row.get(entering)
            if i == r or not f:
                continue
            # row / den_i - (f / den_i) * (pivot / p)
            #     = (row * p - f * pivot) / (den_i * p)
            if p > 1:
                for k, v in row.items():
                    row[k] = v * p
                rhs[i] *= p
                den[i] *= p
            for k, v in pivot.items():
                new = row.get(k, 0) - f * v
                if new:
                    row[k] = new
                else:
                    del row[k]
            rhs[i] -= f * rhs[r]
            g = gcd(den[i], rhs[i], *row.values())
            if g > 1:
                for k, v in row.items():
                    row[k] = v // g
                rhs[i] //= g
                den[i] //= g
    if rhs[m]:
        return None
    q = dict.fromkeys(universe, Fraction(0))
    for i, k in enumerate(basis):
        if k < n:
            q[universe[k]] = Fraction(rhs[i], den[i])
    return q


def simplex_prior(universe, rows, conditions):
    """The prior step when an integer-row simplex decided each group's
    prior: one feasibility solve, then one more per direction the witness
    vertex misses, averaged in."""
    q = _feasible_point(universe, rows)
    if q is None:
        return None, ("prior", "no common prior exists")
    # the witness is a vertex and may miss an event that some common prior
    # charges; the rows but the first are homogeneous, so averaging in a
    # prior normalised on that event stays feasible, and "vacuous" in the
    # re-check means that every common prior misses it
    for _, a_set, _ in conditions:
        if any(q[w] for w in a_set):
            continue
        on_a = _feasible_point(
            universe, [(dict.fromkeys(a_set, Fraction(1)), Fraction(1))]
            + rows[1:])
        if on_a is not None:
            mass = sum(on_a.values(), Fraction(0))
            q = {w: (q[w] + on_a[w] / mass) / 2 for w in universe}
    return q, None


def fraction_prior(universe, rows, conditions):
    """The prior step as the closed form decided it over ``Fraction``
    before it moved to integer weights."""
    q, obstructions = fraction_common_prior(universe, conditions)
    return q, None if q is not None else ("prior", *obstructions)


def fraction_common_prior(universe, conditions):
    """``_common_prior`` over ``Fraction``, before it moved to integer
    weights: (prior, None) or (None, obstructions)."""
    charging, obstructions = [], []
    for (u, a_d, p_d), (v, a_e, p_e) in zip(conditions, reversed(conditions)):
        support = sorted(p_d)
        outside = [w for w in support if w not in a_d]
        shared = [w for w in support if w in a_e]
        if outside:
            obstructions.append((u, outside[0]))
            continue
        if not shared:
            charging.append(p_d)
            continue
        ref = shared[0]
        ratio = p_e.get(ref, 0) / p_d[ref]
        clash = next((w for w in sorted(p_e) if w not in a_e), None)
        if clash is not None or not ratio:
            obstructions.append((v, ref if clash is None else clash))
            continue
        clash = next((w for w in sorted(a_d & a_e)
                      if p_e.get(w, 0) != ratio * p_d.get(w, 0)), None)
        if clash is not None:
            zero = not (p_d.get(clash) and p_e.get(clash))
            obstructions.append((v, clash) if zero else (v, ref, clash))
            continue
        charging.append({w: x / ratio for w, x in p_e.items()} | p_d)
    if not charging:
        charging = [{w: Fraction(1) for w in universe
                     if not any(w in a for _, a, _ in conditions)}]
        if not charging[0]:
            return None, obstructions
    q = dict.fromkeys(universe, Fraction(0))
    for prior in charging:
        mass = sum(prior.values())
        for w, x in prior.items():
            q[w] += x / (mass * len(charging))
    return q, None


def _psi(infoset, sdf, w):
    """The unique member move whose image contains the outcome, if any:
    the scan the consistency check's member map replaced, kept as its
    oracle."""
    sw = sdf.scenario_of_outcome(w)
    hits = [m for m in infoset.random_moves if sw in m.domain and w in m(sw)]
    if len(hits) == 1:
        return hits[0]
    return None


def simplex_consistency(sef, eu, profile, decide=simplex_prior):
    """
    check_dynamic_consistency over ``Fraction``, with each group's prior
    step left to ``decide(universe, rows, conditions)``, which returns
    (prior, None) or (None, witness); the built prior is re-checked
    against every row as before.  By default it is the code as it was
    when an integer-row simplex decided the prior.  Also returns, per
    group that reached the prior step, its universe, its rows and one
    (u_b, A_d, p_d) per direction.
    """
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    validate_eu(sef, eu)
    sdf = sef.sdf
    tastes_ok = True
    by_agent = {}
    for (i, p), taste in eu.tastes.items():
        seen = by_agent.setdefault(i, taste)
        if any(Fraction(seen[w]) != Fraction(taste[w])
               for w in sdf.forest.outcomes):
            tastes_ok = False
    report = ConsistencyReport(True, tastes_ok)
    systems = {}
    tables = profile_tables(sef, profile)
    my_units = units(sef)
    outs = {}
    for unit in my_units:
        belief = eu.beliefs[unit]
        outs[unit] = {w: outcome_from(sef, tables, belief.assessment[w](w))
                      for w in unit_domain(unit)}
    # each group's directions in units order, as check_dynamic_consistency
    groups = [(u,) for u in my_units] + list(itertools.combinations(my_units, 2))
    for members in groups:
        group = frozenset(members)
        status = "consistent"
        witness = None
        domains = {u: unit_domain(u) for u in members}
        events = {}
        reached = {}
        for ua, ub in _ordered_directions(members):
            belief_a = eu.beliefs[ua]
            belief_b = eu.beliefs[ub]
            for w in sorted(domains[ua]):
                out = outs[ua][w]
                m = _psi(ub[1], sdf, out)
                if m is None:
                    continue
                if belief_a.assessment[w](w) >= m(w) and \
                        belief_b.assessment[w] != m:
                    status = "inconsistent"
                    witness = ("assessment", ub, w, m)
                    break
            if witness:
                break
            event = frozenset(
                w for w in domains[ua] & domains[ub]
                if belief_a.assessment[w](w) >= belief_b.assessment[w](w))
            events[(ua, ub)] = event
            reached[(ua, ub)] = (domains[ub] - event) | frozenset(
                w for w in event if _psi(ub[1], sdf, outs[ua][w]) is not None)
        report.events.update(events)
        if status != "inconsistent":
            universe = sorted(frozenset().union(*domains.values()))
            rows = [(dict.fromkeys(universe, Fraction(1)), Fraction(1))]
            for ua, ub in _ordered_directions(members):
                a_set = reached[(ua, ub)]
                prob_b = eu.beliefs[ub].prob
                for w0 in sorted(domains[ub]):
                    coeffs = dict.fromkeys(a_set, Fraction(prob_b.get(w0, 0)))
                    if w0 in a_set:
                        coeffs[w0] -= 1
                    rows.append((coeffs, Fraction(0)))
            conditions = [
                (ub, reached[(ua, ub)],
                 {w: Fraction(x) for w, x in eu.beliefs[ub].prob.items() if x})
                for ua, ub in _ordered_directions(members)]
            systems[group] = (universe, rows, conditions)
            q, witness = decide(universe, rows, conditions)
            if q is None:
                status = "inconsistent"
            else:
                vacuous = False
                for ua, ub in _ordered_directions(members):
                    a_set = reached[(ua, ub)]
                    a_mass = sum((q[w] for w in a_set), Fraction(0))
                    if a_mass == 0:
                        vacuous = True
                        continue
                    prob_b = eu.beliefs[ub].prob
                    for w0 in sorted(domains[ub]):
                        lhs = Fraction(prob_b.get(w0, 0)) * a_mass
                        rhs = q[w0] if w0 in a_set else Fraction(0)
                        if lhs != rhs:
                            status = "inconsistent"
                            witness = ("prior", ub, w0)
                            break
                    if status == "inconsistent":
                        break
                if status == "consistent":
                    report.priors[group] = q
                    if vacuous:
                        status = "vacuously consistent"
        report.pair_status[group] = status
        if witness is not None:
            report.witnesses[group] = witness
        if status == "inconsistent":
            report.consistent = False
    report.consistent = report.consistent and tastes_ok
    return report, systems


def fraction_closed_form(sef, eu, profile):
    """check_dynamic_consistency as it was before the closed form moved to
    integer weights: the prior decided and re-checked over ``Fraction``."""
    return simplex_consistency(sef, eu, profile, fraction_prior)[0]


# --- oracle: the same simplex over Fraction ---------------------------------

def fraction_simplex(universe, rows):
    """
    Exact feasibility of A q = b together with q >= 0, over variables
    indexed by the universe; each row is a sparse pair ({w: coeff}, const).
    A phase-1 simplex over the rationals with one artificial variable per
    row, pivoting by Bland's rule (the entering column is the smallest
    index with a negative reduced cost, and a tie in the ratio test goes
    to the smallest basic index), which cannot cycle.  Returns a witness
    assignment or None.
    """
    n, m = len(universe), len(rows)
    index = {w: k for k, w in enumerate(universe)}
    tableau, rhs = [], []
    for coeffs, const in rows:
        sign = -1 if const < 0 else 1
        tableau.append({index[w]: sign * Fraction(c)
                        for w, c in coeffs.items() if c})
        rhs.append(sign * Fraction(const))
    # the last row holds the reduced costs of the phase-1 objective, the
    # total artificial mass, whose value is minus its right-hand side
    cost = {}
    for row in tableau:
        for k, v in row.items():
            cost[k] = cost.get(k, 0) - v
    tableau.append(cost)
    rhs.append(-sum(rhs, Fraction(0)))
    # artificial n + i starts basic in row i; its unit column is implicit
    # and is dropped once it leaves, so it is never stored
    basis = list(range(n, n + m))
    while True:
        entering = min((k for k, v in cost.items() if v < 0), default=None)
        if entering is None:
            break
        # a negative reduced cost needs a positive entry in a row whose
        # artificial is still basic, so the ratio test has a candidate
        _, _, r = min((rhs[i] / tableau[i][entering], basis[i], i)
                      for i in range(m) if tableau[i].get(entering, 0) > 0)
        scale = tableau[r][entering]
        pivot = tableau[r] = {k: v / scale for k, v in tableau[r].items()}
        rhs[r] /= scale
        basis[r] = entering
        for i, row in enumerate(tableau):
            f = row.get(entering)
            if i == r or not f:
                continue
            for k, v in pivot.items():
                new = row.get(k, 0) - f * v
                if new:
                    row[k] = new
                else:
                    del row[k]
            rhs[i] -= f * rhs[r]
    if rhs[m]:
        return None
    q = dict.fromkeys(universe, Fraction(0))
    for i, k in enumerate(basis):
        if k < n:
            q[universe[k]] = rhs[i]
    return q


def oracle_feasible(universe, rows):
    dense = [(tuple(Fraction(coeffs.get(w, 0)) for w in universe), const)
             for coeffs, const in rows]
    return _solve_linear_system(universe, dense, cap=10 ** 4) is not None


def solves(universe, rows, q):
    """q is a nonnegative point satisfying every row exactly."""
    return set(q) == set(universe) and all(v >= 0 for v in q.values()) \
        and all(sum(c * q[w] for w, c in coeffs.items()) == const
                for coeffs, const in rows)


@st.composite
def small_systems(draw):
    """At most 4 variables and 6 rows with entries in [-3, 3]; half of
    the systems are built to hold at a known nonnegative rational point."""
    n = draw(st.integers(1, 4))
    universe = [f"w{k}" for k in range(n)]
    matrix = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                    max_size=n), min_size=1, max_size=6))
    planted = draw(st.booleans())
    if planted:
        point = draw(st.lists(st.fractions(0, 3, max_denominator=4),
                              min_size=n, max_size=n))
        consts = [sum(c * x for c, x in zip(row, point)) for row in matrix]
    else:
        consts = draw(st.lists(st.integers(-3, 3), min_size=len(matrix),
                               max_size=len(matrix)))
    rows = [({w: Fraction(c) for w, c in zip(universe, row)}, Fraction(b))
            for row, b in zip(matrix, consts)]
    return universe, rows, planted


@st.composite
def mixed_systems(draw):
    """At most 5 variables and 7 rows with rational entries in [-3, 3],
    so that a row mixes denominators; unplanted constants may be negative,
    and half of the systems hold at a known nonnegative rational point."""
    n = draw(st.integers(1, 5))
    universe = [f"w{k}" for k in range(n)]
    entries = st.fractions(-3, 3, max_denominator=12)
    matrix = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=1, max_size=7))
    planted = draw(st.booleans())
    if planted:
        point = draw(st.lists(st.fractions(0, 3, max_denominator=6),
                              min_size=n, max_size=n))
        consts = [sum(c * x for c, x in zip(row, point)) for row in matrix]
    else:
        consts = draw(st.lists(entries, min_size=len(matrix),
                               max_size=len(matrix)))
    rows = [(dict(zip(universe, row)), Fraction(b))
            for row, b in zip(matrix, consts)]
    return universe, rows, planted


def same_witness(universe, rows):
    """The integer-row simplex returns exactly the Fraction simplex's
    answer: both None, or the same vertex with Fraction values."""
    q = _feasible_point(universe, rows)
    assert q == fraction_simplex(universe, rows)
    assert q is None or all(type(v) is Fraction for v in q.values())
    return q


def eq(const, **coeffs):
    """One sparse row: sum of coeff * q[name] equals const."""
    return ({w: Fraction(c) for w, c in coeffs.items()}, Fraction(const))


NORM = eq(1, a=1, b=1, c=1)
# the row shapes the consistency check builds: a normalisation row, and
# conditioning rows p(w0) * q(A) - [w0 in A] * q(w0) = 0 with zero entries
DEGENERATE = {
    "zero row, zero constant": ([NORM, eq(0, a=0, b=0, c=0)], True),
    "zero row, nonzero constant": ([NORM, eq(1, a=0, b=0, c=0)], False),
    "empty row, negative constant": ([NORM, eq(-2)], False),
    "duplicate rows": ([NORM, NORM, eq(0, a=1, b=-1), eq(0, a=1, b=-1)],
                       True),
    "proportional rows": ([NORM, eq(0, a=1, b=-2), eq(0, a=-3, b=6)], True),
    "proportional rows, clashing constants": (
        [eq(1, a=1, b=1), eq(3, a=2, b=2)], False),
    # the belief (1/2, 1/2, 0) on A = {a, b, c} holds at q = (1/2, 1/2, 0)
    "conditioning rows": (
        [NORM, eq(0, a=-HALF, b=HALF, c=HALF),
         eq(0, a=HALF, b=-HALF, c=HALF),
         eq(0, a=0, b=0, c=-1)], True),
    # adding the belief (1, 0, 0) on A forces q(A) = 0
    "clashing conditioning rows": (
        [NORM, eq(0, a=-HALF, b=HALF, c=HALF),
         eq(0, a=HALF, b=-HALF, c=HALF),
         eq(0, a=0, b=1, c=1)], False),
    "zero right-hand sides only": ([eq(0, a=1, b=-1), eq(0, b=1, c=-1)],
                                   True),
}


class TestFeasibility:
    @given(small_systems())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_elimination_oracle(self, system):
        # the simplex and the Gauss plus Fourier-Motzkin oracle agree on
        # feasibility, and every simplex witness solves the system exactly
        universe, rows, planted = system
        q = _feasible_point(universe, rows)
        assert (q is not None) == oracle_feasible(universe, rows)
        if planted:
            assert q is not None
        if q is not None:
            assert solves(universe, rows, q)

    @given(mixed_systems())
    @settings(max_examples=300, deadline=None)
    def test_same_witness_as_fraction_simplex(self, system):
        # integer rows take the Fraction simplex's pivots, so they end at
        # the same vertex; planted systems must be found feasible
        universe, rows, planted = system
        q = same_witness(universe, rows)
        if planted:
            assert q is not None and solves(universe, rows, q)

    @given(st.lists(st.tuples(
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
        st.integers(-3, 3)), min_size=1, max_size=6),
        st.integers(-2, 2), st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_witness_satisfies_satisfiable_systems(self, rows, y0, y1):
        # the oracle itself: systems built to hold at a known point must
        # be found feasible, and the witness must satisfy every inequality
        point = (Fraction(y0), Fraction(y1))
        ineqs = []
        for coeffs, shift in rows:
            value = sum(Fraction(c) * v for c, v in zip(coeffs, point))
            ineqs.append((tuple(map(Fraction, coeffs)),
                          -value + abs(Fraction(shift))))
        feasible, witness = _fm_feasible(ineqs, 2, cap=10 ** 4)
        assert feasible
        for coeffs, const in ineqs:
            assert sum(c * v for c, v in zip(coeffs, witness)) + const >= 0

    @pytest.mark.parametrize("name", sorted(DEGENERATE))
    def test_degenerate_rows(self, name):
        rows, feasible = DEGENERATE[name]
        universe = ["a", "b", "c"]
        q = same_witness(universe, rows)
        assert (q is not None) == feasible == oracle_feasible(universe, rows)
        if q is not None:
            assert solves(universe, rows, q)

    def test_ratio_tie_goes_to_smallest_basic_index(self):
        # the first pivot ties the first two rows at ratio 0; taking the
        # one with the larger basic index instead ends at (1/4, 1/4, 0, 1/2)
        rows = [eq(0, a=1, b=-1, c=-2), eq(0, a=2, b=2, c=-1, d=-2),
                eq(-1, a=-1, b=1, d=-2)]
        q = same_witness(["a", "b", "c", "d"], rows)
        assert q == {"a": Fraction(2, 5), "b": 0, "c": Fraction(1, 5),
                     "d": Fraction(3, 10)}

    def test_plain_contradiction(self):
        # with slacks s, t >= 0: y - s = 1 asks y >= 1, y + t = 0 asks y <= 0
        rows = [eq(1, y=1, s=-1), eq(0, y=1, t=1)]
        assert _feasible_point(["s", "t", "y"], rows) is None


# --- the closed-form common prior against the simplex --------------------------

def replay(universe, conditions, witness):
    """
    Replay each obstruction of a ("prior", ...) witness on the rows of its
    direction d, in _ordered_directions order: priors that charge d, equal
    to p_d on A_d (1 on each scenario of A_d when p_d misses it) and of
    three shapes off A_d, all break the named row, or one of the two rows
    of a ratio pair, whose beliefs also give different ratios.
    """
    kind, *obstructions = witness
    assert kind == "prior" and len(obstructions) == len(conditions)
    rows = {u: (a, p) for u, a, p in conditions}

    def holds(u, w0, q):
        a, p = rows[u]
        return p.get(w0, 0) * sum(q[w] for w in a) \
            == (q[w0] if w0 in a else 0)

    for (_, a_d, p_d), (u, *named) in zip(conditions, obstructions):
        on_a = {w: p_d[w] for w in a_d if w in p_d} or dict.fromkeys(a_d, 1)
        for fill in (0, 1, None):
            q = {w: on_a.get(w, 0) if w in a_d
                 else (k % 3 if fill is None else fill)
                 for k, w in enumerate(universe)}
            assert not all(holds(u, w0, q) for w0 in named)
        if len(named) == 2:
            w, w2 = named
            a_e, p_e = rows[u]
            assert {w, w2} <= a_d & a_e
            assert p_d.get(w, 0) * p_e.get(w2, 0) \
                != p_d.get(w2, 0) * p_e.get(w, 0)


def obstruction_kinds(conditions, witness):
    """'own row', 'other row' or 'ratio pair', per obstruction."""
    _, *obstructions = witness
    return {"ratio pair" if len(named) == 2
            else "own row" if u == owner else "other row"
            for (owner, _, _), (u, *named) in zip(conditions, obstructions)}


def assert_agrees_with_simplex(sef, eu, profile, seen=None):
    """The closed form and the simplex oracle agree on every compared field;
    every built prior solves its group's rows exactly, the normalisation
    included, and every prior witness replays."""
    report = check_dynamic_consistency(sef, eu, profile)
    oracle, systems = simplex_consistency(sef, eu, profile)
    assert report.pair_status == oracle.pair_status
    assert report.consistent == oracle.consistent
    assert report.events == oracle.events
    assert report.tastes_consistent == oracle.tastes_consistent
    assert set(report.priors) == set(oracle.priors)
    for group, q in report.priors.items():
        universe, rows, _ = systems[group]
        assert solves(universe, rows, q)
    assert set(report.witnesses) == set(oracle.witnesses)
    for group, witness in report.witnesses.items():
        if oracle.witnesses[group] == ("prior", "no common prior exists"):
            universe, _, conditions = systems[group]
            replay(universe, conditions, witness)
            if seen is not None:
                seen.update(obstruction_kinds(conditions, witness))
        else:
            assert witness == oracle.witnesses[group]
    if seen is not None:
        seen.update(report.pair_status.values())
    return report


BIASES = (Fraction(0), THIRD, 2 * THIRD, Fraction(1))
_RACES = {}


def exit_race(p, atoms=3):
    """The exit race with the given atoms at bias p, built once."""
    if (p, atoms) not in _RACES:
        _RACES[p, atoms] = amd_instance(p, atoms)
    return _RACES[p, atoms]


@st.composite
def drawn_beliefs(draw):
    """A bundled form, or the 3-atom exit race at a drawn bias, with each
    unit's belief kept, conditioned from a drawn prior, that prior
    restricted to the unit's domain without conditioning on play, drawn
    outright on a drawn support, or one of those with one weight
    rescaled; weights have mixed denominators."""
    name = draw(st.sampled_from(EXAMPLES + ["exit-race"]))
    if name == "exit-race":
        sef, eu, s, _ = exit_race(draw(st.sampled_from(BIASES)))
    else:
        sef, eu, s, _ = bundled(name)
    weight = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))

    def drawn(support):
        weights = {w: draw(weight) for w in support}
        mass = sum(weights.values())
        return {w: x / mass for w, x in weights.items()}

    scenarios = sorted(sef.sdf.scenarios)
    prior = drawn(draw(st.lists(st.sampled_from(scenarios), min_size=1,
                                unique=True)))
    try:
        conditioned = bayes_beliefs(sef, prior, s)
    except InputError:
        conditioned = eu.beliefs
    beliefs = {}
    for unit in units(sef):
        assessment = eu.beliefs[unit].assessment
        domain = unit_domain(unit)
        restricted = {w: x for w, x in prior.items() if w in domain}
        how = draw(st.sampled_from(["kept", "conditioned", "restricted",
                                    "drawn"]))
        if how == "restricted" and restricted:
            mass = sum(restricted.values())
            prob = {w: x / mass for w, x in restricted.items()}
        elif how in ("restricted", "drawn"):
            prob = drawn(draw(st.lists(st.sampled_from(sorted(domain)),
                                       min_size=1, unique=True)))
        else:
            source = eu.beliefs if how == "kept" else conditioned
            prob = dict(source[unit].prob)
        if len(prob) > 1 and draw(st.booleans()):
            w = draw(st.sampled_from(sorted(prob)))
            prob[w] *= draw(weight)
            mass = sum(prob.values())
            prob = {v: x / mass for v, x in prob.items()}
        beliefs[unit] = Belief(prob, assessment)
    return sef, EUStructure(beliefs, eu.tastes), s


def hand_rows(universe, conditions):
    """The simplex rows of a hand-built group, each unit's domain taken to
    be the universe."""
    rows = [(dict.fromkeys(universe, Fraction(1)), Fraction(1))]
    for _, a_set, p in conditions:
        for w0 in universe:
            coeffs = dict.fromkeys(a_set, p.get(w0, Fraction(0)))
            if w0 in a_set:
                coeffs[w0] -= 1
            rows.append((coeffs, Fraction(0)))
    return rows


def belief(**weights):
    return {w: Fraction(x) for w, x in weights.items()}


Q = Fraction(1, 4)
FIFTH = Fraction(1, 5)
# (universe, one (unit, A, p) per direction, the prior or the obstructions)
CLAUSES = {
    "d alone": ("xyz", [("a", {"x", "y"}, belief(x=HALF, y=HALF)),
                        ("b", {"z"}, belief(x=1))],
                belief(x=HALF, y=HALF, z=0)),
    "both": ("xyz", [("a", {"x", "y"}, belief(x=THIRD, y=2 * THIRD)),
                     ("b", {"y", "z"}, belief(y=HALF, z=HALF))],
             belief(x=FIFTH, y=2 * FIFTH, z=2 * FIFTH)),
    "both, disjoint": ("xy", [("a", {"x"}, belief(x=1)),
                              ("b", {"y"}, belief(y=1))],
                       belief(x=HALF, y=HALF)),
    "ratio clash": ("xy", [("a", {"x", "y"}, belief(x=HALF, y=HALF)),
                           ("b", {"x", "y"}, belief(x=THIRD, y=2 * THIRD))],
                    [("b", "x", "y"), ("a", "x", "y")]),
    "zero clash": ("xy", [("a", {"x", "y"}, belief(x=1)),
                          ("b", {"x", "y"}, belief(x=HALF, y=HALF))],
                   [("b", "y"), ("a", "y")]),
    "zero clash at the reference": (
        "xy", [("a", {"x", "y"}, belief(x=1)), ("b", {"x", "y"}, belief(y=1))],
        [("b", "x"), ("a", "y")]),
    "other support outside its A": (
        "xy", [("a", {"x", "y"}, belief(x=1)),
               ("b", {"x"}, belief(x=HALF, y=HALF))],
        [("b", "y"), ("b", "y")]),
    "outside only": ("xyo", [("a", {"x", "y"}, belief(x=HALF, y=HALF)),
                             ("b", {"x", "y"}, belief(x=THIRD, y=2 * THIRD))],
                     belief(x=0, y=0, o=1)),
    "single unit": ("xyz", [("u", {"x", "y"}, belief(x=Q, y=3 * Q))],
                    belief(x=Q, y=3 * Q, z=0)),
    # a single unit's support leaving its A leaves the domain's scenarios
    # outside A, so a single unit always has a prior
    "single unit, outside only": (
        "xyz", [("u", {"x"}, belief(x=HALF, y=HALF))],
        belief(x=0, y=HALF, z=HALF)),
}


class TestClosedFormAgainstSimplex:
    @pytest.mark.parametrize("name", sorted(CLAUSES))
    def test_hand_built_clause(self, name):
        letters, conditions, want = CLAUSES[name]
        universe = sorted(letters)
        rows = hand_rows(universe, conditions)
        q, total, obstructions = _common_prior(universe, [
            (u, a, _scaled(u, p)[0]) for u, a, p in conditions])
        assert (q is None) == (_feasible_point(universe, rows) is None)
        if q is None:
            assert obstructions == want
            replay(universe, conditions, ("prior", *obstructions))
        else:
            q = {w: Fraction(x, total) for w, x in q.items()}
            assert q == want and solves(universe, rows, q)
            assert obstructions is None
        assert (q, obstructions) == fraction_common_prior(universe, conditions)

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_examples(self, name):
        assert_agrees_with_simplex(*bundled(name)[:3])

    @pytest.mark.parametrize("p", BIASES)
    def test_exit_race(self, p):
        sef, eu, s, _ = exit_race(p)
        assert assert_agrees_with_simplex(sef, eu, s).consistent

    @pytest.mark.parametrize("p", BIASES)
    def test_exit_race_with_the_prior_as_a_belief(self, p):
        # below p = 1 some agent exits first, so the prior charges
        # scenarios that do not reach the other agent's move
        sef, eu, s, prior = exit_race(p)
        beliefs = dict(eu.beliefs)
        for unit in units(sef):
            beliefs[unit] = Belief(dict(prior), eu.beliefs[unit].assessment)
        seen = set()
        assert_agrees_with_simplex(sef, EUStructure(beliefs, eu.tastes), s,
                                   seen)
        assert ("own row" in seen) == (p < 1)

    def test_drawn_beliefs(self):
        # the draws also reach every status, and obstructions both on the
        # other unit's row and on a ratio pair
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(drawn_beliefs())
        def probe(layer):
            assert_agrees_with_simplex(*layer, seen=seen)

        probe()
        assert seen >= {"consistent", "vacuously consistent", "inconsistent",
                        "other row", "ratio pair"}


def assert_same_as_fraction_closed_form(sef, eu, profile):
    """Every ConsistencyReport field equals the Fraction closed form's,
    witnesses included, and each prior holds the same Fractions in the
    same order."""
    report = check_dynamic_consistency(sef, eu, profile)
    want = fraction_closed_form(sef, eu, profile)
    assert report == want
    for group, q in report.priors.items():
        assert list(q.items()) == list(want.priors[group].items())
        assert {type(x) for x in q.values()} == {Fraction}
    return report


def retyped(taste, how):
    """The taste with its values written another way, or changed."""
    if how == "int":
        return {o: int(v) if v.denominator == 1 else v
                for o, v in taste.items()}
    if how == "str":
        return {o: str(v) for o, v in taste.items()}
    if how == "extra key":
        return {**taste, "not an outcome": Fraction(7)}
    low = min(taste)
    return {**taste, low: taste[low] + Fraction(1, 2)}


class TestIntegerClosedForm:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_examples(self, name):
        assert_same_as_fraction_closed_form(*bundled(name)[:3])

    @pytest.mark.parametrize("atoms, p", [
        *((3, p) for p in BIASES),
        *((6, p) for p in (Fraction(0), THIRD, HALF, 2 * THIRD,
                           Fraction(5, 6), Fraction(1)))])
    def test_exit_race(self, atoms, p):
        sef, eu, s, prior = exit_race(p, atoms)
        assert assert_same_as_fraction_closed_form(sef, eu, s).consistent
        beliefs = {unit: Belief(dict(prior), eu.beliefs[unit].assessment)
                   for unit in units(sef)}
        assert_same_as_fraction_closed_form(
            sef, EUStructure(beliefs, eu.tastes), s)

    @pytest.mark.parametrize("check", range(19))
    def test_coin_matching_checks(self, check):
        case, first, picks, p = coin_matching_checks()[check]
        assert_same_as_fraction_closed_form(*_mp_profile(case, first, picks, p))

    def test_drawn_beliefs(self):
        seen = set()

        @settings(max_examples=150, deadline=None)
        @given(drawn_beliefs())
        def probe(layer):
            seen.update(assert_same_as_fraction_closed_form(
                *layer).pair_status.values())

        probe()
        assert seen == {"consistent", "vacuously consistent", "inconsistent"}

    @pytest.mark.parametrize("how, agrees", [
        ("int", True), ("str", True), ("extra key", True), ("changed", False)])
    def test_tastes_compared_by_value(self, how, agrees):
        # the agent's first unit holds halves as Fractions, its others the
        # same values rewritten
        sef, eu, s, _ = bundled("simple")
        taste = {o: Fraction(k, 2)
                 for k, o in enumerate(sorted(sef.sdf.forest.outcomes))}
        first, *others = units(sef)
        tastes = {first: taste} | {u: retyped(taste, how) for u in others}
        assert others and {u[0] for u in others} == {first[0]}
        layer = (sef, EUStructure(eu.beliefs, tastes), s)
        report = check_dynamic_consistency(*layer)
        assert report.tastes_consistent == agrees
        assert report == fraction_closed_form(*layer)


SRC = Path(__file__).resolve().parents[1] / "src" / "exform"


def fraction_uses(source, name):
    """Each use of ``Fraction`` or of true division ``/`` or ``/=`` in the
    named function, unparsed; floor division ``//`` is integer and not
    listed."""
    (function,) = [node for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef) and node.name == name]
    found = []
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and node.id == "Fraction" or \
                isinstance(node, ast.Attribute) and node.attr == "Fraction":
            found.append(ast.unparse(node))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.Div):
            found.append(ast.unparse(node))
    return found


class TestIntegerGuard:
    def test_scan_sees_each_use(self):
        source = ("def f(x, y):\n"
                  "    a = Fraction(x) + fractions.Fraction(y)\n"
                  "    a /= y\n"
                  "    return x / y, x // y, 'x / y'\n")
        assert sorted(fraction_uses(source, "f")) == [
            "Fraction", "a /= y", "fractions.Fraction", "x / y"]

    def test_common_prior_stays_on_integers(self):
        source = (SRC / "equil.py").read_text(encoding="utf-8")
        assert fraction_uses(source, "_common_prior") == []


class TestUniformTastes:
    def test_one_entry_per_unit(self):
        sef, eu, s, _ = load_example("ultimatum")
        per_agent = {"p": {w: Fraction(0) for w in sef.sdf.forest.outcomes},
                     "r": {w: Fraction(1) for w in sef.sdf.forest.outcomes}}
        tastes = uniform_tastes(sef, per_agent)
        assert set(tastes) == set(units(sef))
        for (i, _), taste in tastes.items():
            assert taste == per_agent[i]

    def test_values_made_fractions_once_per_agent(self, monkeypatch):
        # the coin-matching tastes, half of them ints: each int is made a
        # Fraction once per agent, not once per unit, and a Fraction is kept
        sef, eu, _, _ = bundled("mp-case1")
        per_agent = {i: {w: int(v) if k % 2 else v
                         for k, (w, v) in enumerate(sorted(
                             eu.tastes[next(u for u in units(sef)
                                            if u[0] == i)].items()))}
                     for i in sef.agents}
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        tastes = uniform_tastes(sef, per_agent)
        monkeypatch.undo()
        ints = sum(type(v) is int for taste in per_agent.values()
                   for v in taste.values())
        assert len(units(sef)) > len(sef.agents)
        assert len(made) == ints
        for (i, _), taste in tastes.items():
            assert taste == per_agent[i]
            assert all(type(v) is Fraction for v in taste.values())
            assert all(v is per_agent[i][w] for w, v in taste.items()
                       if type(per_agent[i][w]) is Fraction)

    def test_each_unit_its_own_dict(self):
        sef, eu, _, _ = bundled("mp-case1")
        per_agent = {i: {w: Fraction(1) for w in sef.sdf.forest.outcomes}
                     for i in sef.agents}
        tastes = uniform_tastes(sef, per_agent)
        unit, *rest = units(sef)
        tastes[unit][min(tastes[unit])] = Fraction(2)
        assert all(set(tastes[u].values()) == {Fraction(1)} for u in rest)
        assert set(per_agent[unit[0]].values()) == {Fraction(1)}

    @pytest.mark.parametrize("name", EXAMPLES)
    def test_validate_eu_as_with_a_conversion_per_unit(self, name):
        sef, eu, _, _ = bundled(name)
        per_agent = {i: eu.tastes[next(u for u in units(sef) if u[0] == i)]
                     for i in {u[0] for u in units(sef)}}
        before = {(i, p): {w: Fraction(v) for w, v in per_agent[i].items()}
                  for (i, p) in units(sef)}
        assert validate_eu(sef, EUStructure(eu.beliefs, uniform_tastes(
            sef, per_agent))) == validate_eu(sef, EUStructure(eu.beliefs,
                                                              before))


# --- rationality oracle --------------------------------------------------------
# The block values as Fractions, one block at a time, recomputed for every
# deviation: the rationality sweep before each unit's plan held its block
# values as integers.

def _block_values(sef, belief, taste, tables, blocks):
    """Conditional expected payoff per positive-probability block."""
    values = {}
    zero = set()
    for b in sorted(blocks, key=sorted):
        mass = sum((Fraction(belief.prob.get(w, 0)) for w in b), Fraction(0))
        if mass == 0:
            zero.add(b)
            continue
        total = Fraction(0)
        for w in sorted(b):
            pw = Fraction(belief.prob.get(w, 0))
            if pw == 0:
                continue
            out = outcome_from(sef, tables, belief.assessment[w](w))
            total += pw * Fraction(taste[out])
        values[b] = total / mass
    return values, zero


def oracle_payoff(sef, eu, profile, agent, infoset, block=None):
    unit = (agent, infoset)
    tables = profile_tables(sef, profile)
    blocks = information_blocks(sef, agent, infoset)
    if block is not None:
        block = frozenset(block)
        blocks = {block}
    values, zero = _block_values(sef, eu.beliefs[unit], eu.tastes[unit],
                                 tables, blocks)
    if block is not None and block in zero:
        raise ZeroProbabilityBlockRequested(f"block {sorted(block)}")
    return values


def oracle_rationality(sef, eu, profile):
    """(rational, payoffs, witnesses, zero blocks) by full recomputation."""
    payoffs, zeros, witnesses = {}, {}, []
    base_tables = profile_tables(sef, profile)
    for unit in units(sef):
        payoffs[unit], zeros[unit] = _block_values(
            sef, eu.beliefs[unit], eu.tastes[unit], base_tables,
            information_blocks(sef, *unit))
    for i in sef.agents:
        for t in strategies(sef, i):
            tables = profile_tables(sef, swap(sef, profile, i, t))
            for unit in [u for u in units(sef) if u[0] == i]:
                values, _ = _block_values(
                    sef, eu.beliefs[unit], eu.tastes[unit], tables,
                    information_blocks(sef, *unit))
                for b, v in values.items():
                    if v > payoffs[unit][b]:
                        witnesses.append((i, unit[1], t, b, payoffs[unit][b], v))
                        break
    return not witnesses, payoffs, witnesses, zeros


_FORMS = {}


def bundled(name):
    if name not in _FORMS:
        _FORMS[name] = load_example(name)
    return _FORMS[name]


@st.composite
def drawn_layers(draw):
    """A bundled form with a drawn profile, beliefs that leave some blocks
    at mass zero, and tastes of mixed denominators and signs."""
    name = draw(st.sampled_from(EXAMPLES))
    sef, _, s, _ = bundled(name)
    profile = s
    for i in sef.agents:
        if draw(st.booleans()):
            menu = strategies(sef, i)
            profile = swap(sef, profile, i,
                           menu[draw(st.integers(0, len(menu) - 1))])
    fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    outcomes = sorted(sef.sdf.forest.outcomes)
    beliefs, tastes = {}, {}
    for unit in units(sef):
        blocks = sorted(information_blocks(sef, *unit), key=sorted)
        kept = draw(st.lists(st.booleans(), min_size=len(blocks),
                             max_size=len(blocks)))
        kept[draw(st.integers(0, len(blocks) - 1))] = True
        weights = {}
        for b, keep in zip(blocks, kept):
            for w in sorted(b):
                weights[w] = draw(st.integers(0, 4)) if keep else 0
            if keep and not any(weights[w] for w in b):
                weights[min(b)] = 1
        total = sum(weights.values())
        assessment = {w: draw(st.sampled_from(sorted(
            (m for m in unit[1].random_moves if w in m.domain), key=repr)))
            for w in unit_domain(unit)}
        beliefs[unit] = Belief({w: Fraction(k, total)
                                for w, k in weights.items() if k},
                               assessment)
        tastes[unit] = {o: draw(fraction) for o in outcomes}
    return sef, EUStructure(beliefs, tastes), profile


def assert_rationality_matches_oracle(sef, eu, profile):
    report = check_dynamic_rationality(sef, eu, profile)
    rational, payoffs, witnesses, zeros = oracle_rationality(sef, eu, profile)
    assert report.rational == rational
    assert [(u, list(v.items())) for u, v in report.payoffs.items()] \
        == [(u, list(v.items())) for u, v in payoffs.items()]
    assert report.witnesses == witnesses
    assert report.zero_blocks == zeros
    assert_same_as_tree_fills(sef, eu, profile, report)
    return report


def coin_matching_checks():
    """The 19 coin-matching profiles of the acceptance test, as (case,
    first move, second-mover picks, bias)."""
    same = [mp_choice_second("1", CONST1), mp_choice_second("2", CONST1)]

    def merged(g):
        return [mp_choice_second(".", g)]

    balanced = merged(_reaction_map({("0", "0"), ("1", "1")}))
    best = [mp_choice_second("1", {w: "2" if w[1] == "1" else "1"
                                   for w in MP_SCENARIOS}),
            mp_choice_second("2", CONST1)]
    two_thirds, four_fifths = 2 * THIRD, Fraction(4, 5)
    return [
        (1, CONST2, REACT, two_thirds), (1, Z0_SPLIT, REACT, two_thirds),
        (1, CONST1, same, two_thirds), (1, CONST1, REACT, two_thirds),
        (1, CONST1, REACT, four_fifths),
        (2, Z0_SPLIT_FLIP, balanced, two_thirds),
        (2, CONST1, balanced, two_thirds),
        (2, Z0_SPLIT, merged(_reaction_map({("0", "0")})), two_thirds),
        (2, Z0_SPLIT, balanced, two_thirds),
        (3, Z0_SPLIT, merged(_block_counts(2, 2)), two_thirds),
        (3, Z0_SPLIT, merged(_block_counts(1, 0)), two_thirds),
        (3, Z0_SPLIT, merged(_block_counts(3, 4)), two_thirds),
        (3, Z0_SPLIT, merged(_block_counts(2, 1)), two_thirds),
        (3, CONST1, merged(_block_counts(2, 2)), two_thirds),
        (4, CONST1, best, two_thirds), (4, Z0_SPLIT, best, two_thirds),
        (4, CONST2, REACT, two_thirds), (4, CONST2, best, two_thirds),
        (4, CONST2, best, four_fifths),
    ]


def failing_deviation(menus, picks):
    """A one-move form over three outcomes, each agent active at the move
    with the given menu and playing its pick there; assembled without
    validation on purpose, so that a deviation can leave no outcome or
    several."""
    sef = one_move_pseudo(["w:1", "w:2", "w:3"], menus)
    (x0,) = sef.sdf.random_moves
    sef.info = {i: {x0: frozenset({frozenset({"w"})})} for i in menus}
    profile = StrategyProfile({
        i: next(t for t in strategies(sef, i)
                if set(t.assignment.values()) == {frozenset(picks[i])})
        for i in menus})
    taste = {f"w:{k}": Fraction(k) for k in (1, 2, 3)}
    eu = EUStructure({u: Belief({"w": Fraction(1)}, {"w": x0})
                      for u in units(sef)},
                     {u: taste for u in units(sef)})
    return sef, eu, profile


class TestRationalityOracle:
    @settings(max_examples=60, deadline=None)
    @given(drawn_layers())
    def test_sweep_matches_the_oracle(self, layer):
        assert_rationality_matches_oracle(*layer)

    @settings(max_examples=60, deadline=None)
    @given(drawn_layers())
    def test_payoffs_match_the_oracle(self, layer):
        sef, eu, profile = layer
        for unit in units(sef):
            assert list(expected_payoff(sef, eu, profile, *unit).items()) \
                == list(oracle_payoff(sef, eu, profile, *unit).items())
            for b in information_blocks(sef, *unit):
                try:
                    want = oracle_payoff(sef, eu, profile, *unit, block=b)
                except ZeroProbabilityBlockRequested:
                    with pytest.raises(ZeroProbabilityBlockRequested):
                        expected_payoff(sef, eu, profile, *unit, block=b)
                else:
                    assert expected_payoff(sef, eu, profile, *unit,
                                           block=b) == want

    @pytest.mark.parametrize("atoms, p", [
        (3, Fraction(0)), (3, THIRD), (3, 2 * THIRD), (3, Fraction(1)),
        (6, Fraction(0)), (6, THIRD), (6, HALF), (6, 2 * THIRD),
        (6, Fraction(5, 6)), (6, Fraction(1))])
    def test_exit_race(self, atoms, p):
        # with 3 atoms the bias must be a multiple of 1/3
        sef, eu, s, _ = amd_instance(p, atoms)
        report = assert_rationality_matches_oracle(sef, eu, s)
        assert report.rational == (p == 2 * THIRD)

    @pytest.mark.parametrize("check", range(19))
    def test_coin_matching_checks(self, check):
        case, first, picks, p = coin_matching_checks()[check]
        assert_rationality_matches_oracle(*_mp_profile(case, first, picks, p))

    @pytest.mark.parametrize("menus, picks, played, error", [
        ({"i": [{"w:1", "w:2"}, {"w:3"}]}, {"i": {"w:3"}}, "w:3",
         MultipleOutcomes),
        ({"a": [{"w:1"}, {"w:2"}], "b": [{"w:1"}]},
         {"a": {"w:1"}, "b": {"w:1"}}, "w:1", NoOutcome)])
    def test_failing_deviation_raises_as_the_oracle(self, menus, picks, played,
                                                    error):
        sef, eu, profile = failing_deviation(menus, picks)
        # the profile itself plays through; a deviation does not
        (root,) = sef.sdf.forest.roots()
        assert outcome_from(sef, profile_tables(sef, profile), root) == played
        with pytest.raises(error) as want:
            oracle_rationality(sef, eu, profile)
        with pytest.raises(error) as swept:
            tree_fill_rationality(sef, eu, profile)
        with pytest.raises(error) as got:
            check_dynamic_rationality(sef, eu, profile)
        assert str(got.value) == str(want.value) == str(swept.value)

    def test_draws_reach_zero_blocks_and_witnesses(self):
        # the cross-checks above see both a zero-mass block and a witness
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(drawn_layers())
        def probe(layer):
            sef, eu, profile = layer
            report = check_dynamic_rationality(sef, eu, profile)
            if any(report.zero_blocks.values()):
                seen.add("zero")
            if report.witnesses:
                seen.add("witness")

        probe()
        assert seen == {"zero", "witness"}


# --- the term-by-term sweep ----------------------------------------------------
# The sweep as it was before the block totals were summed from partials: each
# deviation builds its move table and reads every (start move, weight) term
# through the tree-fill memo.  Kept verbatim as the oracle.

def fraction_taste_plan(sef, assessment, weight, taste, blocks):
    """``_unit_plan`` as it was before validation scaled the tastes: the
    tastes on the outcomes play can reach converted to ``Fraction`` per
    unit and put over their own common denominator."""
    plan, zero, support = [], set(), set()
    for b in sorted(blocks, key=sorted):
        reached = [w for w in sorted(b) if w in weight]
        mass = sum(weight[w] for w in reached)
        if mass == 0:
            zero.add(b)
            continue
        plan.append((b, [(assessment[w](w), weight[w]) for w in reached],
                     mass))
        support.update(reached)
    outcomes = frozenset().union(*map(sef.sdf.root_of, support))
    tastes = {o: Fraction(taste[o]) for o in outcomes if o in taste}
    scale = lcm(*(q.denominator for q in tastes.values()))
    return _UnitPlan(plan, zero, {o: q.numerator * (scale // q.denominator)
                                  for o, q in tastes.items()}, scale)


def tree_fill_rationality(sef, eu, profile):
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    validate_eu(sef, eu)
    report = RationalityReport(True, {})
    base_tables = profile_tables(sef, profile)
    fills = TreeFills(sef)
    played = fills.reader(base_tables)
    swept = []   # (unit, plan, the profile's total per block)
    for unit in units(sef):
        plan = fraction_taste_plan(sef, eu.beliefs[unit].assessment,
                                   _scaled(unit, eu.beliefs[unit].prob)[0],
                                   eu.tastes[unit],
                                   information_blocks(sef, *unit))
        totals = [plan.total(played, pairs) for _, pairs, _ in plan.blocks]
        report.payoffs[unit] = {b: plan.value(total, mass) for (b, _, mass), total
                                in zip(plan.blocks, totals)}
        report.zero_blocks[unit] = plan.zero
        swept.append((unit, plan, totals))
    for i in sef.agents:
        deviations = strategies(sef, i)
        own = [entry for entry in swept if entry[0][0] == i]
        for t in deviations:
            tables = dict(base_tables)
            tables[i] = convert_strategy(sef, t, "move")
            outcome = fills.reader(tables)
            for unit, plan, totals in own:
                for (b, pairs, mass), base in zip(plan.blocks, totals):
                    total = plan.total(outcome, pairs)
                    if total > base:
                        report.rational = False
                        report.witnesses.append(
                            (i, unit[1], t, b, report.payoffs[unit][b],
                             plan.value(total, mass)))
                        break
    return report


def assert_same_as_tree_fills(sef, eu, profile, report=None):
    """Every report field agrees with the term-by-term sweep, in order."""
    if report is None:
        report = check_dynamic_rationality(sef, eu, profile)
    want = tree_fill_rationality(sef, eu, profile)
    assert report == want
    assert [(u, list(v.items())) for u, v in report.payoffs.items()] \
        == [(u, list(v.items())) for u, v in want.payoffs.items()]
    assert report.witnesses == want.witnesses
    return report


@st.composite
def dealt_layers(draw):
    """A random perfect-information form with its moves dealt to two
    agents, a drawn profile, each unit's belief on its one scenario, and
    drawn tastes.  Every move is an information set of its own, so an
    agent holds several sets, some in one tree and some in others."""
    rng = make_rng(draw(st.integers(0, 10 ** 9)))
    sef = dealt_to_two(random_strict_sef(rng), rng)
    profile = StrategyProfile({i: draw(st.sampled_from(strategies(sef, i)))
                               for i in sef.agents})
    fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    outcomes = sorted(sef.sdf.forest.outcomes)
    beliefs, tastes = {}, {}
    for unit in units(sef):
        (m,) = unit[1].random_moves
        (w,) = m.domain
        beliefs[unit] = Belief({w: Fraction(1)}, {w: m})
        tastes[unit] = {o: draw(fraction) for o in outcomes}
    return sef, EUStructure(beliefs, tastes), profile


def term_sets(sef, eu, unit):
    """Per term of the unit's plan, its start and the positions of the
    agent's information sets with moves in the start's tree."""
    index = sef._index
    sets, moves = info_sets(sef, unit[0])
    plan = fraction_taste_plan(sef, eu.beliefs[unit].assessment,
                               _scaled(unit, eu.beliefs[unit].prob)[0],
                               eu.tastes[unit], information_blocks(sef, *unit))
    found = []
    for _, pairs, _ in plan.blocks:
        for start, _ in pairs:
            root = sef.sdf.root_of(sef.sdf.projection[start])
            found.append((start, tuple(j for j, p in enumerate(sets)
                                       if root in index.grouped[p])))
    return found


def skipped_failure(gain):
    """
    Two scenarios u and v, each a root over three outcomes, one random
    move over both roots, and one agent told the scenario, so that its one
    unit has the blocks {u} and {v}; assembled without validation on
    purpose.  The agent plays {u:1, v:1}.  Its last deviation,
    {u:3, v:2, v:3}, leaves two outcomes on {v}; with ``gain`` it is worth
    more on {u}, which ends its sweep before {v}.
    """
    outcomes = [f"{w}:{k}" for w in "uv" for k in "123"]
    roots = {w: frozenset(o for o in outcomes if o[0] == w) for w in "uv"}
    nodes = [*roots.values(), *(frozenset({o}) for o in outcomes)]
    move = RandomMove(roots)
    sdf = StochasticDecisionForest(
        DecisionForest(outcomes, nodes), ("u", "v"),
        {x: min(x)[0] for x in nodes}, [move])
    sef = unvalidated((
        sdf, ("i",), {"i": {move}},
        {"i": {move: frozenset({frozenset("u"), frozenset("v")})}},
        {"i": {move: ()}},
        {"i": [{"u:1", "v:1"}, {"u:2", "v:2"}, {"u:3", "v:2", "v:3"}]}))
    (unit,) = units(sef)
    (t0, _, bad) = strategies(sef, "i")
    taste = {o: Fraction(int(o[2]) if o[0] == "u" else 0) for o in outcomes}
    if not gain:
        taste["u:3"] = Fraction(0)
    eu = EUStructure({unit: Belief({"u": HALF, "v": HALF}, {"u": move, "v": move})},
                     {unit: taste})
    return sef, eu, StrategyProfile({"i": t0}), bad


def two_failures():
    """
    Three scenarios u, v, x, each a root over leaves, v's with the inner
    move y = {v:2, v:3}; one agent with the set A, one random move over the
    three roots, and the set B at y alone, told nothing, so that A's one
    block holds the terms u, v, x and only v's tree holds B as well;
    assembled without validation on purpose.  Every deviation that plays
    {u:1, v:1, v:2, v:3, x:2, x:3} at A leaves two outcomes on v and two
    on x: the first failing term, v, sits in the second partial sum of the
    block.
    """
    outcomes = ["u:1", "u:2", "u:3", "v:1", "v:2", "v:3", "v:5",
                "x:1", "x:2", "x:3"]
    roots = {w: frozenset(o for o in outcomes if o[0] == w) for w in "uvx"}
    inner = frozenset({"v:2", "v:3"})
    nodes = [*roots.values(), inner, *(frozenset({o}) for o in outcomes)]
    at_a, at_b = RandomMove(roots), RandomMove({"v": inner})
    sdf = StochasticDecisionForest(
        DecisionForest(outcomes, nodes), ("u", "v", "x"),
        {x: min(x)[0] for x in nodes}, [at_a, at_b])
    sef = unvalidated((sdf, ("i",), {"i": {at_a, at_b}},
                       {"i": {at_a: frozenset({frozenset("uvx")}),
                              at_b: frozenset({frozenset("v")})}},
                       {"i": {at_a: (), at_b: ()}},
                       {"i": [{"u:1", "v:1", "x:1"},
                              {"u:1", "v:1", "v:2", "v:3", "x:2", "x:3"},
                              {"v:2"}, {"v:3"}]}))
    plays = {"u:1", "v:1", "v:2", "x:1"}
    profile = StrategyProfile({"i": next(
        t for t in strategies(sef, "i")
        if set().union(*t.assignment.values()) == plays)})
    beliefs = {(i, p): Belief({w: Fraction(1, len(m.domain)) for w in m.domain},
                              {w: m for w in m.domain})
               for i, p in units(sef) for m in p.random_moves}
    taste = dict.fromkeys(outcomes, Fraction(0))
    return sef, EUStructure(beliefs, dict.fromkeys(beliefs, taste)), profile


class TestPartialSums:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_examples(self, name):
        assert_rationality_matches_oracle(*bundled(name)[:3])

    @settings(max_examples=60, deadline=None)
    @given(dealt_layers())
    def test_two_agent_forms(self, layer):
        assert_rationality_matches_oracle(*layer)

    def test_two_agent_draws_reach_shared_and_separate_trees(self):
        # the family above sees an agent with two information sets in one
        # tree, one with sets in different trees, and a witness
        seen = set()

        @settings(max_examples=60, deadline=None)
        @given(dealt_layers())
        def probe(layer):
            sef, eu, profile = layer
            for unit in units(sef):
                found = term_sets(sef, eu, unit)
                if any(len(sets) > 1 for _, sets in found):
                    seen.add("shared tree")
            for i in sef.agents:
                sets, _ = info_sets(sef, i)
                trees = {k for p in sets for k in sef._index.grouped[p]}
                if len(trees) > 1:
                    seen.add("separate trees")
            if check_dynamic_rationality(sef, eu, profile).witnesses:
                seen.add("witness")

        probe()
        assert seen == {"shared tree", "separate trees", "witness"}

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(dealt_layers(), drawn_layers()))
    def test_every_term_lies_in_a_tree_of_its_own_set(self, layer):
        # a term starts at a move of its unit's information set, so no term
        # is outside every information set of the deviating agent: there
        # is no block part that a deviation leaves constant for that reason
        sef, eu, _ = layer
        for unit in units(sef):
            sets, moves = info_sets(sef, unit[0])
            own = sets.index(unit[1])
            for start, found in term_sets(sef, eu, unit):
                assert start in moves[unit[1]]
                assert own in found

    def test_failure_in_a_skipped_block_never_raises(self):
        sef, eu, profile, bad = skipped_failure(gain=True)
        # the last deviation fails on v, but gains on u first
        tables = profile_tables(sef, StrategyProfile({"i": bad}))
        with pytest.raises(MultipleOutcomes):
            outcome_from(sef, tables, sef.sdf.root_of("v"))
        report = assert_same_as_tree_fills(sef, eu, profile)
        assert [w[2] for w in report.witnesses] == strategies(sef, "i")[1:]

    def test_profile_playing_a_set_off_the_menu(self):
        # a profile's table may hold a set that is not a choice of the
        # form; its slices are cut where the memo reads them
        sef, eu, profile, _ = skipped_failure(gain=True)
        ((p, c),) = profile["i"].assignment.items()
        off = c | {"w:9"}
        assert off not in sef.choices["i"]
        report = assert_same_as_tree_fills(
            sef, eu, StrategyProfile({"i": Strategy("i", {p: off})}))
        assert len(report.witnesses) == 2

    def test_failure_in_a_reached_block_raises_as_the_term_sweep(self):
        sef, eu, profile, _ = skipped_failure(gain=False)
        with pytest.raises(MultipleOutcomes) as want:
            tree_fill_rationality(sef, eu, profile)
        with pytest.raises(MultipleOutcomes) as got:
            check_dynamic_rationality(sef, eu, profile)
        assert str(got.value) == str(want.value)

    def test_first_failing_term_is_raised_across_set_groups(self):
        sef, eu, profile = two_failures()
        (unit,) = [u for u in units(sef) if len(u[1].random_moves) == 1
                   and len(next(iter(u[1].random_moves)).domain) == 3]
        assert [len(found) for _, found in term_sets(sef, eu, unit)] \
            == [1, 2, 1]
        with pytest.raises(MultipleOutcomes) as want:
            tree_fill_rationality(sef, eu, profile)
        with pytest.raises(MultipleOutcomes) as got:
            check_dynamic_rationality(sef, eu, profile)
        assert str(got.value) == str(want.value)
        assert "v:1" in str(got.value)


# --- the two-pass verify -------------------------------------------------------
# verify_equilibrium as it was before one pass served both halves: each half
# validates the layer for itself, consistency reads its assessed outcomes
# through ``outcome_from`` and compares tastes by value with a ``Fraction``
# fallback, and rationality scales the tastes per unit.  Kept as the oracle.

def two_pass_consistency(sef, eu, profile):
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    validate_eu(sef, eu)
    scaled = {u: _scaled(u, eu.beliefs[u].prob) for u in units(sef)}
    sdf = sef.sdf
    tastes_ok = True
    by_agent = {}
    for (i, p), taste in eu.tastes.items():
        seen = by_agent.setdefault(i, taste)
        if seen != taste and any(Fraction(seen[w]) != Fraction(taste[w])
                                 for w in sdf.forest.outcomes):
            tastes_ok = False
    report = ConsistencyReport(True, tastes_ok)
    tables = profile_tables(sef, profile)
    my_units = units(sef)
    outs = {}
    for unit in my_units:
        belief = eu.beliefs[unit]
        outs[unit] = {w: outcome_from(sef, tables, belief.assessment[w](w))
                      for w in unit_domain(unit)}
    # each group's directions in units order, as check_dynamic_consistency
    groups = [(u,) for u in my_units] + list(itertools.combinations(my_units, 2))
    for members in groups:
        group = frozenset(members)
        status = "consistent"
        witness = None
        domains = {u: unit_domain(u) for u in members}
        events = {}
        reached = {}
        for ua, ub in _ordered_directions(members):
            belief_a = eu.beliefs[ua]
            belief_b = eu.beliefs[ub]
            psi = {}
            for w in sorted(domains[ua]):
                m = psi[w] = _psi(ub[1], sdf, outs[ua][w])
                if m is None:
                    continue
                if belief_a.assessment[w](w) >= m(w) and \
                        belief_b.assessment[w] != m:
                    status = "inconsistent"
                    witness = ("assessment", ub, w, m)
                    break
            if witness:
                break
            event = frozenset(
                w for w in domains[ua] & domains[ub]
                if belief_a.assessment[w](w) >= belief_b.assessment[w](w))
            events[(ua, ub)] = event
            reached[(ua, ub)] = (domains[ub] - event) | frozenset(
                w for w in event if psi[w] is not None)
        report.events.update(events)
        if status != "inconsistent":
            universe = sorted(frozenset().union(*domains.values()))
            q, total, obstructions = _common_prior(universe, [
                (ub, reached[(ua, ub)], scaled[ub][0])
                for ua, ub in _ordered_directions(members)])
            if q is None:
                status = "inconsistent"
                witness = ("prior", *obstructions)
            else:
                vacuous = False
                for ua, ub in _ordered_directions(members):
                    a_set = reached[(ua, ub)]
                    a_mass = sum(q[w] for w in a_set)
                    if a_mass == 0:
                        vacuous = True
                        continue
                    weights, denominator = scaled[ub]
                    for w0 in sorted(domains[ub]):
                        lhs = weights.get(w0, 0) * a_mass
                        rhs = q[w0] * denominator if w0 in a_set else 0
                        if lhs != rhs:
                            status = "inconsistent"
                            witness = ("prior", ub, w0)
                            break
                    if status == "inconsistent":
                        break
                if status == "consistent":
                    report.priors[group] = {w: Fraction(x, total)
                                            for w, x in q.items()}
                    if vacuous:
                        status = "vacuously consistent"
        report.pair_status[group] = status
        if witness is not None:
            report.witnesses[group] = witness
        if status == "inconsistent":
            report.consistent = False
    report.consistent = report.consistent and tastes_ok
    return report


def two_pass_rationality(sef, eu, profile):
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    validate_eu(sef, eu)
    report = RationalityReport(True, {})
    base_tables = profile_tables(sef, profile)
    fills = TreeFills(sef)
    played = fills.reader(base_tables)
    swept = []
    for unit in units(sef):
        plan = fraction_taste_plan(sef, eu.beliefs[unit].assessment,
                                   _scaled(unit, eu.beliefs[unit].prob)[0],
                                   eu.tastes[unit],
                                   information_blocks(sef, *unit))
        totals = [plan.total(played, pairs) for _, pairs, _ in plan.blocks]
        report.payoffs[unit] = {b: plan.value(total, mass) for (b, _, mass), total
                                in zip(plan.blocks, totals)}
        report.zero_blocks[unit] = plan.zero
        swept.append((unit, plan, totals))
    for i in sef.agents:
        deviations = _Deviations(sef, fills, base_tables, i)
        own = [(unit, plan, totals, [deviations.parts(plan.taste, pairs)
                                     for _, pairs, _ in plan.blocks])
               for unit, plan, totals in swept if unit[0] == i]
        for t in strategies(sef, i):
            at = deviations.choices(t)
            for unit, plan, totals, split in own:
                for (b, _, mass), base, parts in zip(plan.blocks, totals, split):
                    total = _deviation_total(parts, at)
                    if total > base:
                        report.rational = False
                        report.witnesses.append(
                            (i, unit[1], t, b, report.payoffs[unit][b],
                             plan.value(total, mass)))
                        break
    return report


def outcome_or_error(check, *args):
    """The check's result, or the type and message of what it raised."""
    try:
        return check(*args)
    except ExformError as err:
        return type(err), str(err)


def assert_same_as_two_pass(sef, eu, profile):
    """Every field of both reports equals the two-pass verify's, in order,
    priors as the same Fractions; or both raise the same error."""
    report = outcome_or_error(verify_equilibrium, sef, eu, profile)
    consistency = outcome_or_error(two_pass_consistency, sef, eu, profile)
    if isinstance(consistency, tuple):
        assert report == consistency
        return None
    rationality = outcome_or_error(two_pass_rationality, sef, eu, profile)
    if isinstance(rationality, tuple):
        assert report == rationality
        return None
    got, want = report.consistency, consistency
    assert got == want
    for name in ("events", "pair_status", "witnesses", "priors"):
        assert list(getattr(got, name).items()) \
            == list(getattr(want, name).items())
    for group, q in got.priors.items():
        assert list(q.items()) == list(want.priors[group].items())
    got, want = report.rationality, rationality
    assert got == want
    assert [(u, list(v.items())) for u, v in got.payoffs.items()] \
        == [(u, list(v.items())) for u, v in want.payoffs.items()]
    assert got.witnesses == want.witnesses
    assert list(got.zero_blocks.items()) == list(want.zero_blocks.items())
    assert report.in_equilibrium == (bool(consistency) and rationality.rational)
    return report


MALFORMED = [None, float("nan"), "x", float("inf"), "1/0"]


class TestOnePass:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_examples(self, name):
        assert assert_same_as_two_pass(*bundled(name)[:3]) is not None

    @pytest.mark.parametrize("atoms, p", [
        *((3, Fraction(k, 3)) for k in range(4)),
        *((6, Fraction(k, 6)) for k in range(7))])
    def test_exit_race(self, atoms, p):
        report = assert_same_as_two_pass(*exit_race(p, atoms)[:3])
        assert report.in_equilibrium == (p == 2 * THIRD)

    @pytest.mark.parametrize("check", range(19))
    def test_coin_matching_checks(self, check):
        case, first, picks, p = coin_matching_checks()[check]
        assert assert_same_as_two_pass(
            *_mp_profile(case, first, picks, p)) is not None

    @settings(max_examples=60, deadline=None)
    @given(drawn_beliefs())
    def test_drawn_beliefs(self, layer):
        assert_same_as_two_pass(*layer)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(drawn_layers(), dealt_layers()))
    def test_drawn_layers(self, layer):
        assert_same_as_two_pass(*layer)

    def test_one_validation_per_verify(self, monkeypatch):
        calls = []

        def counted(sef, eu):
            calls.append(eu)
            return validate_eu(sef, eu)

        monkeypatch.setattr(equil, "validate_eu", counted)
        sef, eu, s, _ = exit_race(2 * THIRD, 6)
        assert verify_equilibrium(sef, eu, s)
        assert calls == [eu]
        check_dynamic_consistency(sef, eu, s)
        check_dynamic_rationality(sef, eu, s)
        assert calls == [eu] * 3

    def test_one_scaling_per_distinct_taste(self, monkeypatch):
        # uniform_tastes gives each unit its own dict with the agent's
        # values, so each agent's taste is scaled once
        calls = []
        scaled_taste = equil._scaled_taste

        def counted(sef, unit, taste):
            calls.append(unit[0])
            return scaled_taste(sef, unit, taste)

        monkeypatch.setattr(equil, "_scaled_taste", counted)
        sef, eu, s, _ = bundled("mp-case1")
        assert len({u[0] for u in units(sef)}) < len(units(sef))
        validate_eu(sef, eu)
        assert sorted(calls) == sorted(sef.agents)

    def test_a_taste_the_agents_share_is_scaled_once(self, monkeypatch):
        # the exit race's two agents hold equal tastes in their own dicts:
        # one scaling serves both, and both units read it
        calls = []
        scaled_taste = equil._scaled_taste

        def counted(sef, unit, taste):
            calls.append(unit[0])
            return scaled_taste(sef, unit, taste)

        monkeypatch.setattr(equil, "_scaled_taste", counted)
        sef, eu, s, _ = exit_race(2 * THIRD, 6)
        first, second = units(sef)
        assert first[0] != second[0]
        assert eu.tastes[first] == eu.tastes[second]
        assert eu.tastes[first] is not eu.tastes[second]
        _, tastes = validate_eu(sef, eu)
        assert calls == [first[0]]
        assert tastes[first] is tastes[second]

    @pytest.mark.parametrize("value", MALFORMED, ids=repr)
    def test_malformed_taste_value_rejected(self, value):
        sef, eu, s, _ = load_example("amd")
        unit = units(sef)[-1]
        eu.tastes[unit] = {**eu.tastes[unit], min(eu.tastes[unit]): value}
        for check in (validate_eu, check_dynamic_consistency,
                      check_dynamic_rationality, verify_equilibrium):
            with pytest.raises(InputError, match=re.escape(repr(unit))):
                check(sef, eu) if check is validate_eu else check(sef, eu, s)
        with pytest.raises(InputError, match=re.escape(repr(unit))):
            expected_payoff(sef, eu, s, *unit)


# --- bayes_beliefs on integer weights and the consistency member map --------
# ``bayes_beliefs`` before it summed integer weights, kept as its oracle:
# every mass and probability a Fraction.  The members are sorted by
# ``canonical``, as now; they were sorted by ``repr``, which ties on moves
# with equal scenario counts.

def fraction_bayes_beliefs(sef, prior, profile):
    played = scenario_outcomes(sef, profile)
    prior = {w: Fraction(v) for w, v in prior.items()}
    beliefs = {}
    for unit in units(sef):
        _, p = unit
        domain = sorted(unit_domain(unit))
        members = sorted(p.random_moves, key=canonical)
        hit = {}
        for w in domain:
            for m in members:
                if w in m.domain and played[w] in m(w):
                    hit[w] = m
                    break
        mass = sum((prior.get(w, 0) for w in hit), Fraction(0))
        if mass > 0:
            prob = {w: prior[w] / mass for w in hit if prior.get(w, 0) > 0}
        else:
            total = sum((prior.get(w, 0) for w in domain), Fraction(0))
            if total == 0:
                raise InputError(f"the prior misses the domain of {unit!r}")
            prob = {w: prior[w] / total for w in domain
                    if prior.get(w, 0) > 0}
        assessment = {}
        for w in domain:
            assessment[w] = hit.get(w) or next(
                m for m in members if w in m.domain)
        beliefs[unit] = Belief(prob, assessment)
    return beliefs


def assert_beliefs_as_oracle(sef, prior, profile):
    """The beliefs equal the Fraction oracle's, unit by unit and value by
    value in insertion order, each a Fraction; or both raise alike."""
    got = outcome_or_error(bayes_beliefs, sef, prior, profile)
    want = outcome_or_error(fraction_bayes_beliefs, sef, prior, profile)
    if isinstance(want, tuple):
        assert got == want
        return None
    assert list(got) == list(want)
    for unit, belief in want.items():
        assert list(got[unit].prob.items()) == list(belief.prob.items())
        assert all(type(q) is Fraction for q in got[unit].prob.values())
        assert got[unit].assessment == belief.assessment
    return got


def prior_variants(sef, prior):
    """The prior, and priors with zero, negative, unit and missing weights,
    so that the fallback to the domain and the error on a missed domain
    are reached."""
    scenarios = sorted(sef.sdf.scenarios)
    signs = {w: Fraction(1 - 2 * (k % 2), k + 1)
             for k, w in enumerate(scenarios)}
    return [prior, dict.fromkeys(scenarios, 0), dict.fromkeys(scenarios, 1),
            signs,
            {w: -x for w, x in signs.items()},
            {w: Fraction(k % 3, 7) for k, w in enumerate(scenarios)},
            {scenarios[0]: 1}, {scenarios[-1]: Fraction(-1, 3)}, {},
            # a reached scenario of mass one beside an unreached one
            *({w: 1, w2: 1} for w, w2 in itertools.combinations(
                scenarios[:8], 2))]


def mp_prior(p):
    return {w: (p if w[1] == "1" else 1 - p) / 8 for w in MP_SCENARIOS}


@st.composite
def drawn_priors(draw):
    """A bundled form or a 3-atom exit race with a drawn profile, and a
    prior of mixed denominators and signs on a drawn set of scenarios."""
    name = draw(st.sampled_from(EXAMPLES + ["exit-race"]))
    if name == "exit-race":
        sef, _, s, _ = exit_race(draw(st.sampled_from(BIASES)))
    else:
        sef, _, s, _ = bundled(name)
    for i in sef.agents:
        if draw(st.booleans()):
            s = swap(sef, s, i, draw(st.sampled_from(strategies(sef, i))))
    weight = st.builds(Fraction, st.integers(-3, 6), st.integers(1, 6))
    support = draw(st.lists(st.sampled_from(sorted(sef.sdf.scenarios)),
                            unique=True))
    return sef, {w: draw(weight) for w in support}, s


class TestBayesBeliefsAsFractions:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_examples(self, name):
        sef, _, s, expected = bundled(name)
        for prior in prior_variants(sef, expected["prior"]):
            assert_beliefs_as_oracle(sef, prior, s)

    @pytest.mark.parametrize("check", range(19))
    def test_coin_matching_checks(self, check):
        case, first, picks, p = coin_matching_checks()[check]
        sef, eu, s = _mp_profile(case, first, picks, p)
        got = assert_beliefs_as_oracle(sef, mp_prior(p), s)
        assert got == eu.beliefs

    @pytest.mark.parametrize("atoms, p", [
        *((3, Fraction(k, 3)) for k in range(4)),
        *((6, Fraction(k, 6)) for k in (0, 2, 3, 4, 5, 6))])
    def test_exit_race(self, atoms, p):
        sef, eu, s, prior = exit_race(p, atoms)
        assert assert_beliefs_as_oracle(sef, prior, s) == eu.beliefs
        for variant in prior_variants(sef, prior)[1:]:
            assert_beliefs_as_oracle(sef, variant, s)

    @settings(max_examples=80, deadline=None)
    @given(drawn_priors())
    def test_drawn_priors(self, drawn):
        assert_beliefs_as_oracle(*drawn)

    def test_values_are_built_once_each(self):
        # the masses are integer sums: the one Fraction built per reported
        # value, and no true division
        source = (SRC / "equil.py").read_text(encoding="utf-8")
        assert [use for use in fraction_uses(source, "bayes_beliefs")
                if use != "Fraction"] == []


def assert_member_map_as_psi(sef, eu):
    """Each unit's member map answers every outcome as ``_psi`` does."""
    outcomes = sorted(sef.sdf.forest.outcomes)
    for unit in units(sef):
        member = equil._assessed(unit, eu.beliefs[unit].assessment, min).member
        assert set(member) <= set(outcomes)
        for o in outcomes:
            assert member.get(o) == _psi(unit[1], sef.sdf, o)


class TestMemberMap:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_examples(self, name):
        assert_member_map_as_psi(*bundled(name)[:2])

    @pytest.mark.parametrize("check", range(19))
    def test_coin_matching_checks(self, check):
        assert_member_map_as_psi(*_mp_profile(
            *coin_matching_checks()[check])[:2])

    @pytest.mark.parametrize("atoms, p", [(3, THIRD), (3, 2 * THIRD),
                                          (6, Fraction(1, 2))])
    def test_exit_race(self, atoms, p):
        assert_member_map_as_psi(*exit_race(p, atoms)[:2])

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(drawn_layers(), dealt_layers()))
    def test_drawn_layers(self, layer):
        assert_member_map_as_psi(*layer[:2])

    def test_two_members_holding_an_outcome_give_none(self):
        # nested members: the outer move's image holds the inner one's
        sef, eu, _, _ = bundled("simple")
        outer = max(sef.sdf.random_moves,
                    key=lambda m: sum(map(len, m.image)))
        inner = next(m for m in sef.sdf.random_moves if m != outer
                     and all(m(w) < outer(w) for w in m.domain))
        infoset = InfoSet("i", frozenset({outer, inner}))
        unit = ("i", infoset)
        member = equil._assessed(unit, dict.fromkeys(outer.domain, outer),
                                 min).member
        held = {o for w in inner.domain for o in inner(w)}
        assert held and all(member[o] is None for o in held)
        assert all(member[o] == outer for w in outer.domain
                   for o in outer(w) - held)
        for o in sorted(sef.sdf.forest.outcomes):
            assert member.get(o) == _psi(infoset, sef.sdf, o)


# events keys and witnesses of the consistency check, and the assessments
# of bayes_beliefs, fingerprinted with each info set as its agent and the
# canonical keys of its members
CONSISTENCY_DIGEST = """
import hashlib
from exform._util import canonical
from exform.equil import bayes_beliefs, verify_equilibrium
from exform.sef import InfoSet
from test_acceptance import _mp_profile
from test_equil import EXAMPLES, bundled, coin_matching_checks

def plain(v):
    if isinstance(v, InfoSet):
        return v.agent, v.random_moves
    if isinstance(v, (tuple, list)):
        return tuple(map(plain, v))
    if isinstance(v, frozenset):
        return frozenset(map(plain, v))
    return v

def digest(*values):
    return hashlib.sha256(repr(canonical(plain(values))).encode()).hexdigest()

cases = [(name, bundled(name)) for name in EXAMPLES]
cases += [(f"cm{k}", _mp_profile(*coin_matching_checks()[k]) + (None,))
          for k in (1, 15)]
for name, (sef, eu, s, expected) in cases:
    c = verify_equilibrium(sef, eu, s).consistency
    print(name, digest(list(c.events)), digest(list(c.witnesses.items())))
    if expected:
        beliefs = bayes_beliefs(sef, expected["prior"], s)
        print(name, digest([(u, list(b.assessment.items()))
                            for u, b in beliefs.items()]))
"""


def test_consistency_order_and_witnesses_across_hash_seeds():
    # the directions of a pair run in units order: under hash seeds 2 and
    # 3 the pair's repr order ran them the other way, listing cm1's and
    # cm15's prior obstructions swapped
    output = stdout_across_hash_seeds(["-c", CONSISTENCY_DIGEST])
    assert len(output.splitlines()) == 2 * len(EXAMPLES) + 2


def shared_move_form():
    """One scenario where agents a and b share the move at x1 = {1..4}: a
    picks x1 or x2 = {5, 6} at the root, then {1, 2} or {3, 4} at x1; b
    holds x1 and x2 in one information set and picks {1, 3, 5} or
    {2, 4, 6} there.  So b's set has two members on the scenario, one of
    them at the node of a's second set."""
    def o(*ks):
        return frozenset(f"w:{k}" for k in ks)

    x0, x1, x2 = o(1, 2, 3, 4, 5, 6), o(1, 2, 3, 4), o(5, 6)
    nodes = [x0, x1, x2, *(o(k) for k in range(1, 7))]
    top, middle, side = (RandomMove({"w": x}) for x in (x0, x1, x2))
    sdf = StochasticDecisionForest(DecisionForest(x0, nodes), ("w",),
                                   dict.fromkeys(nodes, "w"),
                                   [top, middle, side])
    point = frozenset({frozenset({"w"})})
    refs = {"a": {top: [x1, x2], middle: [o(1, 2), o(3, 4)]},
            "b": dict.fromkeys((middle, side), [o(1, 3, 5), o(2, 4, 6)])}
    form = StochasticExtensiveForm(
        sdf, ("a", "b"), {i: set(refs[i]) for i in refs},
        {i: dict.fromkeys(refs[i], point) for i in refs}, refs,
        {i: {c for cs in refs[i].values() for c in cs} for i in refs})
    return form, (top, middle, side), o


def test_assessment_at_a_shared_node_is_checked():
    # a's second set sits at the node of b's member `middle`, which holds
    # play's outcome there; b assessing `side` at the scenario breaks the
    # pair, at a node equal to (not above) the member's
    form, (top, middle, side), o = shared_move_form()
    picks = {"a": {o(1, 2, 3, 4), o(1, 2)}, "b": {o(1, 3, 5)}}
    profile = StrategyProfile({i: next(
        t for t in strategies(form, i) if set(t.assignment.values())
        == picks[i]) for i in form.agents})
    beliefs, tastes = {}, {}
    for unit in units(form):
        least = min(unit[1].random_moves, key=lambda m: len(m("w")))
        beliefs[unit] = Belief({"w": Fraction(1)}, {"w": least})
        tastes[unit] = dict.fromkeys(form.sdf.forest.outcomes, Fraction(0))
    eu = EUStructure(beliefs, tastes)
    second = next(u for u in units(form)
                  if u[0] == "a" and u[1].random_moves == {middle})
    (shared,) = [u for u in units(form) if u[0] == "b"]
    assert eu.beliefs[shared].assessment["w"] == side
    report = assert_same_as_two_pass(form, eu, profile).consistency
    assert report.witnesses[frozenset({second, shared})] \
        == ("assessment", shared, "w", middle)


# --- a scenario whose tree is one outcome -------------------------------------

def lone_outcome_form():
    """
    Outcomes a:1, a:2 and b:0, with nodes {a:1, a:2} and the singletons:
    scenario b's tree is its one outcome.  Agent i owns the move on
    {a:1, a:2} (scenario a) under trivial information, and its choices
    and reference choices are {a:1} and {a:2}.  Returns the form and i's
    strategy that plays {a:1}.
    """
    outcomes = ["a:1", "a:2", "b:0"]
    top = frozenset({"a:1", "a:2"})
    nodes = [top, *(frozenset({o}) for o in outcomes)]
    move = RandomMove({"a": top})
    sdf = StochasticDecisionForest(DecisionForest(outcomes, nodes), ("a", "b"),
                                   {x: min(x)[0] for x in nodes}, [move])
    picks = (frozenset({"a:1"}), frozenset({"a:2"}))
    form = StochasticExtensiveForm(
        sdf, ("i",), {"i": {move}}, {"i": {move: frozenset({frozenset("a")})}},
        {"i": {move: picks}}, {"i": picks})
    (plays,) = [t for t in strategies(form, "i")
                if set(t.assignment.values()) == {picks[0]}]
    return form, plays


def with_lone_scenario(sef):
    """The form with one more scenario, z, whose tree is its one outcome
    z:0; every move, information partition and choice is the form's."""
    sdf, lone = sef.sdf, frozenset({"z:0"})
    forest = DecisionForest([*sdf.forest.outcomes, "z:0"],
                            [*sdf.forest.nodes, lone])
    grown = StochasticDecisionForest(forest, (*sdf.scenarios, "z"),
                                     {**sdf.projection, lone: "z"},
                                     list(sdf.random_moves))
    return StochasticExtensiveForm(grown, sef.agents, sef.agent_moves,
                                   sef.info, sef.refchoices, sef.choices)


class TestOneOutcomeScenario:
    def test_play_reaches_the_lone_outcome(self):
        form, plays = lone_outcome_form()
        assert form.report.valid
        assert check_flags(form.sdf).surely_nontrivial is False
        profile = StrategyProfile({"i": plays})
        assert scenario_outcomes(form, profile) == {"a": "a:1", "b": "b:0"}
        # a terminal node is still no history
        with pytest.raises(NotAHistory):
            outcome_from(form, profile_tables(form, profile),
                         frozenset({"b:0"}))

    def test_beliefs_and_equilibrium(self):
        form, plays = lone_outcome_form()
        profile = StrategyProfile({"i": plays})
        beliefs = bayes_beliefs(form, {"a": HALF, "b": HALF}, profile)
        (unit,) = units(form)
        assert beliefs[unit].prob == {"a": Fraction(1)}
        taste = {"a:1": Fraction(1), "a:2": Fraction(0), "b:0": Fraction(3)}
        assert verify_equilibrium(form, EUStructure(beliefs, {unit: taste}),
                                  profile).in_equilibrium is True
        taste = {**taste, "a:2": Fraction(2)}
        assert verify_equilibrium(form, EUStructure(beliefs, {unit: taste}),
                                  profile).in_equilibrium is False

    def test_simple_form_with_a_lone_scenario(self):
        sef, eu, profile, expected = load_example("simple")
        form = with_lone_scenario(sef)
        assert form.report.valid
        assert check_flags(form.sdf).surely_nontrivial is False
        assert scenario_outcomes(form, profile) \
            == {**scenario_outcomes(sef, profile), "z": "z:0"}
        prior = {w: q * Fraction(2, 3) for w, q in expected["prior"].items()}
        beliefs = bayes_beliefs(form, {**prior, "z": Fraction(1, 3)}, profile)
        assert beliefs == eu.beliefs
        tastes = {u: {**t, "z:0": Fraction(5)} for u, t in eu.tastes.items()}
        report = verify_equilibrium(form, EUStructure(beliefs, tastes), profile)
        assert report.in_equilibrium is True
        assert report.rationality.payoffs \
            == verify_equilibrium(sef, eu, profile).rationality.payoffs
