from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exform.equil import (
    Belief,
    EUStructure,
    _feasible_point,
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
    InputError,
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
from exform.play import StrategyProfile, outcome_from, profile_tables
from exform.sef import StochasticExtensiveForm, strategies

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
        assert ("prior", "no common prior exists") \
            in solved.witnesses.values()


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


class TestUniformTastes:
    def test_one_entry_per_unit(self):
        sef, eu, s, _ = load_example("ultimatum")
        per_agent = {"p": {w: Fraction(0) for w in sef.sdf.forest.outcomes},
                     "r": {w: Fraction(1) for w in sef.sdf.forest.outcomes}}
        tastes = uniform_tastes(sef, per_agent)
        assert set(tastes) == set(units(sef))
        for (i, _), taste in tastes.items():
            assert taste == per_agent[i]


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


class TestRationalityOracle:
    @settings(max_examples=60, deadline=None)
    @given(drawn_layers())
    def test_sweep_matches_the_oracle(self, layer):
        sef, eu, profile = layer
        report = check_dynamic_rationality(sef, eu, profile)
        rational, payoffs, witnesses, zeros = oracle_rationality(
            sef, eu, profile)
        assert report.rational == rational
        assert [(u, list(v.items())) for u, v in report.payoffs.items()] \
            == [(u, list(v.items())) for u, v in payoffs.items()]
        assert report.witnesses == witnesses
        assert report.zero_blocks == zeros

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
