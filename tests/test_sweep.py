"""
The rationality sweep and the tree fills against the code they replaced.

``term_parts`` is ``_Deviations.parts`` as it was before terms were summed
per slice grouping: each term is added into the partial sum of every
choice tuple of its groups, eagerly.  ``walked_fill`` is ``TreeFills``'
fill as it was before each tree's walk was indexed at construction:
``_compatible_below`` from the root, which finds its bottom-up order with
a stack.  ``swept_rationality`` is ``_rationality`` as it was before the
blocks' bounds could decide an agent: it sweeps every strategy of every
agent, each deviation's total summed by ``eager_total``, which reads the
eager parts.  All are kept verbatim as oracles.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from exform import equil, play
from exform.equil import (
    Belief,
    EUStructure,
    RationalityReport,
    _Deviations,
    _Part,
    _unit_plan,
    bayes_beliefs,
    check_dynamic_rationality,
    expected_payoff,
    information_blocks,
    units,
    verify_equilibrium,
)
from exform.errors import (
    EnumerationBudgetExceeded,
    MultipleOutcomes,
    NoOutcome,
)
from exform.forest import DecisionForest
from exform.instances import (
    _assign,
    amd_event_choice,
    amd_instance,
    amd_sef,
    amd_signal,
)
from exform.play import (
    StrategyProfile,
    check_wellposed_direct,
    scenario_outcomes,
)
from exform.sdf import RandomMove, StochasticDecisionForest
from exform.sef import StochasticExtensiveForm, info_sets, strategies
from test_acceptance import _mp_profile
from test_equil import (
    EXAMPLES,
    bundled,
    coin_matching_checks,
    dealt_layers,
    drawn_layers,
    outcome_or_error,
    skipped_failure,
    two_failures,
)
from test_play import _compatible_below


def term_parts(self, taste, pairs):
    """The block's partial sums: (S, the sum per choice tuple of S,
    {choice tuple: (term, the error of its failed read)})."""
    by_set = {}
    for n, (start, weight) in enumerate(pairs):
        root = self.fills.root[start]
        by_set.setdefault(self.active[root], []).append(
            (n, start, weight, root))
    parts = []
    for sets, terms in by_set.items():
        partial, failed = {}, {}
        for n, start, weight, root in terms:
            grouped = [self.grouped[j][root] for j in sets]
            for groups in itertools.product(*[g for _, g in grouped]):
                table = {x: g[0] for (xs, _), g in zip(grouped, groups)
                         for x in xs}
                try:
                    value, error = weight * taste[self.fills.reader(
                        {**self.tables, self.agent: table})(start)], None
                except (NoOutcome, MultipleOutcomes) as err:
                    value, error = 0, (n, err)
                for choices in itertools.product(*groups):
                    partial[choices] = partial.get(choices, 0) + value
                    if error:
                        failed.setdefault(choices, error)
        parts.append((sets, partial, failed))
    return parts


def eager_total(parts, at):
    """A block's total under the deviation at these choice tuples."""
    total, failures = 0, []
    for sets, partial, failed in parts:
        total += partial[at[sets]]
        if at[sets] in failed:
            failures.append(failed[at[sets]])
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return total


def swept_rationality(sef, eu, beliefs, tastes, tables, fills, outcome):
    report = RationalityReport(True, {})
    swept = []   # (unit, plan, the profile's total per block)
    for unit in units(sef):
        plan = _unit_plan(eu.beliefs[unit].assessment, beliefs[unit][0],
                          tastes[unit], information_blocks(sef, *unit))
        totals = [plan.total(outcome, pairs) for _, pairs, _ in plan.blocks]
        report.payoffs[unit] = {b: plan.value(total, mass) for (b, _, mass), total
                                in zip(plan.blocks, totals)}
        report.zero_blocks[unit] = plan.zero
        swept.append((unit, plan, totals))
    for i in sef.agents:
        deviations = _Deviations(sef, fills, tables, i)
        own = [(unit, plan, totals, [deviations.parts(plan.taste, pairs)
                                     for _, pairs, _ in plan.blocks])
               for unit, plan, totals in swept if unit[0] == i]
        for t in strategies(sef, i):
            at = deviations.choices(t)
            for unit, plan, totals, split in own:
                for (b, _, mass), base, parts in zip(plan.blocks, totals, split):
                    total = eager_total(parts, at)
                    if total > base:
                        report.rational = False
                        report.witnesses.append(
                            (i, unit[1], t, b, report.payoffs[unit][b],
                             plan.value(total, mass)))
                        break
    return report


def walked_fill(sef, tables, root):
    """The fill of the tree of the root, walked below it with a stack."""
    fill = {}
    _compatible_below(sef, tables, root, fill)
    return fill


def failures(failed):
    """A failed map with each error as its type and message."""
    return {k: (n, type(err), str(err)) for k, (n, err) in failed.items()}


@pytest.fixture
def checked(monkeypatch):
    """While in use, every fill and every block's partial sums are compared
    with the oracles', in order and field by field; counts each kind."""
    seen = {"fills": 0, "parts": 0}
    fill, parts = play._tree_fill, equil._Deviations.parts

    def checked_fill(sef, tables, root):
        found = fill(sef, tables, root)
        assert found == walked_fill(sef, tables, root)
        seen["fills"] += 1
        return found

    def checked_parts(self, taste, pairs):
        found = parts(self, taste, pairs)
        want = term_parts(self, taste, pairs)
        assert [part.sets for part in found] == [sets for sets, _, _ in want]
        for part, (_, partial2, failed2) in zip(found, want):
            # a copy expands, so the sweep's own parts stay as it left them
            partial, failed = _Part(part.sets, part.sums).expanded
            assert list(partial.items()) == list(partial2.items())
            assert failures(failed) == failures(failed2)
            assert part.largest() == (None if failed2 or not partial2
                                      else max(partial2.values()))
        seen["parts"] += 1
        return found

    monkeypatch.setattr(play, "_tree_fill", checked_fill)
    monkeypatch.setattr(equil._Deviations, "parts", checked_parts)
    return seen


def on_oracles(monkeypatch, check, *args):
    """The check's result, or its error, with the oracles in place."""
    with monkeypatch.context() as m:
        m.setattr(play, "_tree_fill", walked_fill)
        m.setattr(equil._Deviations, "parts", term_parts)
        m.setattr(equil, "_rationality", swept_rationality)
        return outcome_or_error(check, *args)


def assert_same_as_oracles(monkeypatch, sef, eu, profile):
    """Both reports of ``verify_equilibrium`` equal the oracles', the
    rationality report field by field in order, or both raise the same
    error."""
    want = on_oracles(monkeypatch, verify_equilibrium, sef, eu, profile)
    report = outcome_or_error(verify_equilibrium, sef, eu, profile)
    assert report == want
    if isinstance(report, tuple):
        return report
    got, want = report.rationality, want.rationality
    assert [(u, list(v.items())) for u, v in got.payoffs.items()] \
        == [(u, list(v.items())) for u, v in want.payoffs.items()]
    assert got.witnesses == want.witnesses
    assert list(got.zero_blocks.items()) == list(want.zero_blocks.items())
    return report


def no_outcome_after_multiple():
    """
    Three scenarios u, v, x, each a root over three outcomes; agent i has
    one information set at the random move over the three roots, told
    nothing, and agent b is active at x's root alone, playing {x:1, x:3};
    assembled without validation on purpose.  i's menu is {u:1, v:1, x:1},
    which it plays, {u:2, v:2, v:3, x:2} and {u:3, v:1, x:3}.  The trees of
    u and x group that menu alike, one choice per slice, and v's tree
    groups the first and last together.  The second choice leaves two
    outcomes at v, the second term, and none at x, the third: the first
    failing term sits in the second grouping the sweep meets.
    """
    outcomes = [f"{w}:{k}" for w in "uvx" for k in "123"]
    roots = {w: frozenset(o for o in outcomes if o[0] == w) for w in "uvx"}
    nodes = [*roots.values(), *(frozenset({o}) for o in outcomes)]
    at_i, at_b = RandomMove(roots), RandomMove({"x": roots["x"]})
    sdf = StochasticDecisionForest(
        DecisionForest(outcomes, nodes), ("u", "v", "x"),
        {x: min(x)[0] for x in nodes}, [at_i, at_b])
    sef = object.__new__(StochasticExtensiveForm)
    sef._store(sdf, ("i", "b"), {"i": {at_i}, "b": {at_b}},
               {"i": {at_i: frozenset({frozenset("uvx")})},
                "b": {at_b: frozenset({frozenset("x")})}},
               {"i": {at_i: ()}, "b": {at_b: ()}},
               {"i": [{"u:1", "v:1", "x:1"}, {"u:2", "v:2", "v:3", "x:2"},
                      {"u:3", "v:1", "x:3"}],
                "b": [{"x:1", "x:3"}]})
    profile = StrategyProfile({i: strategies(sef, i)[0] for i in sef.agents})
    beliefs = {(i, p): Belief({w: Fraction(1, len(m.domain)) for w in m.domain},
                              {w: m for w in m.domain})
               for i, p in units(sef) for m in p.random_moves}
    taste = dict.fromkeys(outcomes, Fraction(0))
    return sef, EUStructure(beliefs, dict.fromkeys(beliefs, taste)), profile


EXIT_RACES = [(3, Fraction(k, 3)) for k in range(4)] + \
    [(6, Fraction(k, 6)) for k in range(7)]


def bench_exit_race(sef, atoms, p):
    """The bench's exit race at bias p: a uniform prior, the taste D 0,
    H 4, M 1 for both agents, and both exiting on the signal atoms below
    (1 - p) * atoms."""
    scenarios = sorted(sef.sdf.scenarios)
    exits = {str(k) for k in range(int((1 - p) * atoms))}
    profile = StrategyProfile({agent: _assign(sef, agent, [amd_event_choice(
        atoms, agent, frozenset(w for w in scenarios
                                if amd_signal(w, agent) in exits))])
        for agent in (1, 2)})
    prior = {w: Fraction(1, 2 * atoms * atoms) for w in scenarios}
    taste = {f"{w}:{a}": Fraction(v) for w in scenarios
             for a, v in (("D", 0), ("H", 4), ("M", 1))}
    beliefs = bayes_beliefs(sef, prior, profile)
    return EUStructure(beliefs, {u: dict(taste) for u in beliefs}), profile


def sweeps(monkeypatch, check, *args):
    """The check's result and the agents whose strategies it enumerated."""
    swept = []

    def counted(sef, i):
        swept.append(i)
        return strategies(sef, i)

    with monkeypatch.context() as m:
        m.setattr(equil, "strategies", counted)
        return check(*args), swept


class TestAgainstOracles:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_forms(self, monkeypatch, checked, name):
        sef, eu, profile, _ = bundled(name)
        assert_same_as_oracles(monkeypatch, sef, eu, profile)
        assert check_wellposed_direct(sef) == on_oracles(
            monkeypatch, check_wellposed_direct, sef)
        assert list(scenario_outcomes(sef, profile).items()) == list(
            on_oracles(monkeypatch, scenario_outcomes, sef, profile).items())
        for unit in units(sef):
            assert list(expected_payoff(sef, eu, profile, *unit).items()) \
                == list(on_oracles(monkeypatch, expected_payoff, sef, eu,
                                   profile, *unit).items())
        assert checked["fills"] and checked["parts"]

    @pytest.mark.parametrize("atoms, p", EXIT_RACES)
    def test_exit_race(self, monkeypatch, checked, atoms, p):
        sef, eu, s, _ = amd_instance(p, atoms)
        report = assert_same_as_oracles(monkeypatch, sef, eu, s)
        assert report.rationality.rational == (p == Fraction(2, 3))
        assert checked["parts"] == sum(len(report.rationality.payoffs[u])
                                       for u in units(sef))

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 3),
                                   Fraction(5, 6)])
    def test_bench_exit_race(self, monkeypatch, checked, p):
        sef = amd_sef(6)[0]
        eu, profile = bench_exit_race(sef, 6, p)
        report = assert_same_as_oracles(monkeypatch, sef, eu, profile)
        assert report.in_equilibrium == (p == Fraction(2, 3))

    @pytest.mark.parametrize("check", range(19))
    def test_coin_matching_checks(self, monkeypatch, checked, check):
        case, first, picks, p = coin_matching_checks()[check]
        assert_same_as_oracles(monkeypatch, *_mp_profile(case, first, picks, p))
        assert checked["fills"] and checked["parts"]

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(layer=st.one_of(drawn_layers(), dealt_layers()))
    def test_drawn_and_strict_forms(self, monkeypatch, checked, layer):
        assert_same_as_oracles(monkeypatch, *layer)

    @pytest.mark.parametrize("build", [
        no_outcome_after_multiple, two_failures,
        lambda: skipped_failure(gain=True)[:3],
        lambda: skipped_failure(gain=False)[:3]])
    def test_forms_assembled_without_validation(self, monkeypatch, checked,
                                                build):
        assert_same_as_oracles(monkeypatch, *build())
        assert checked["parts"]

    def test_first_failing_term_wins_across_groupings(self, monkeypatch,
                                                      checked):
        sef, eu, profile = no_outcome_after_multiple()
        trees = sef._index.grouped[info_sets(sef, "i")[0][0]]
        u, v, x = (trees[sef.sdf.root_of(w)][1] for w in "uvx")
        assert u is x and u != v
        error = assert_same_as_oracles(monkeypatch, sef, eu, profile)
        assert error[0] is MultipleOutcomes and "v:2" in error[1]


def one_grouping(sets, sums, errors=None):
    """A part of one set with one grouping: one choice per slice, each
    slice tuple's sum as given, and a failed read where ``errors`` has
    one."""
    errors = errors or {}
    grouping = (tuple((f"c{k}",) for k in range(len(sums))),)
    return _Part(sets, {grouping: [[value, errors.get(k)]
                                   for k, value in enumerate(sums)]})


class TestBlockBounds:
    """An agent whose blocks' bounds are at most their bases is rational
    with no strategy enumerated; any other agent is swept as before."""

    def test_coin_matching_sweeps_exactly_the_irrational_agents(
            self, monkeypatch):
        decided = 0
        for case, first, picks, p in coin_matching_checks():
            layer = _mp_profile(case, first, picks, p)
            report, swept = sweeps(monkeypatch, check_dynamic_rationality,
                                   *layer)
            assert swept == sorted({w[0] for w in report.witnesses},
                                   key=layer[0].agents.index)
            decided += not swept
        assert decided == 11

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(2, 3),
                                   Fraction(5, 6)])
    def test_bench_exit_race(self, monkeypatch, p):
        sef = amd_sef(6)[0]
        eu, profile = bench_exit_race(sef, 6, p)
        report, swept = sweeps(monkeypatch, check_dynamic_rationality, sef,
                               eu, profile)
        assert swept == ([] if p == Fraction(2, 3) else [1, 2])
        assert report.rational == (p == Fraction(2, 3))

    def test_a_decided_agent_keeps_the_strategy_cap(self, monkeypatch):
        # case 3's second mover has 2^8 strategies and is rational under
        # the first check of that case; its first mover has 2
        case, first, picks, p = coin_matching_checks()[9]
        layer = _mp_profile(case, first, picks, p)
        assert sweeps(monkeypatch, check_dynamic_rationality, *layer)[1] == []
        monkeypatch.setenv("EXFORM_BUDGET", "255")
        with pytest.raises(EnumerationBudgetExceeded, match="256 strategies"):
            check_dynamic_rationality(*layer)
        monkeypatch.setenv("EXFORM_BUDGET", "256")
        assert check_dynamic_rationality(*layer).rational

    def test_the_bound_of_a_block(self):
        # two parts whose largest partial sums, 1 each, come from
        # different deviations: the bound is 2, though no deviation's
        # total exceeds 1; a part with a failed read, or with no
        # partial sum, leaves the block to the sweep
        parts = [one_grouping((0,), [1, 0]), one_grouping((1,), [0, 1])]
        assert not equil._bounded(parts, 1)
        assert equil._bounded(parts, 2)
        failed = one_grouping((2,), [0], {0: (0, None)})
        assert not equil._bounded([failed], 5)
        assert not equil._bounded([*parts, failed], 5)
        assert not equil._bounded([*parts, _Part((2,), {((),): [[0, None]]})],
                                  5)
        assert not any("expanded" in vars(part) for part in parts)

    def test_a_slot_with_an_empty_group_is_skipped(self):
        # no choice tuple has the empty group's slice, so neither its sum
        # nor its failed read reaches a deviation or the bound
        part = _Part((0,), {((("a",), ()),): [[1, None], [9, (0, None)]]})
        assert part.largest() == 1
        assert part.expanded == ({("a",): 1}, {})
        assert _Part((0,), {(((),),): [[9, None]]}).largest() is None

    def test_several_groupings_are_expanded_once(self):
        # a choice tuple's partial sums its slice tuples' sums over the
        # groupings, so its largest is read after one expansion
        part = _Part((0,), {
            ((("a",), ("b",)),): [[1, None], [0, None]],
            ((("a", "b"),),): [[2, None]]})
        assert part.largest() == 3
        expanded = part.expanded
        assert expanded == ({("a",): 3, ("b",): 2}, {})
        assert part.largest() == 3 and part.expanded is expanded
