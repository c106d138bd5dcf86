import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import comb_parts, make_rng, random_strict_sef
import exform.sef
from exform import equil, play
from exform._util import budget
from exform.equil import check_dynamic_rationality, units, verify_equilibrium
from exform.errors import (
    EnumerationBudgetExceeded,
    MultipleOutcomes,
    NoOutcome,
    NotClosed,
    WNotInHistoryCore,
)
from exform.forest import histories, immediate_predecessors
from exform.order import Poset, order_predicates
from exform.instances import (
    EXAMPLES,
    SIMPLE_SEF_ROWS,
    VARIANT_SEF_ROWS,
    amd_instance,
    amd_sef,
    load_example,
    simple_choice_first,
    simple_choice_second,
    simple_sdf,
    simple_sef,
    variant_sef,
)
from exform.play import (
    StrategyProfile,
    WellPosedReport,
    _reduction,
    check_wellposed_direct,
    check_wellposed_order,
    closed_history_minimum,
    induced_outcome,
    outcome_from,
    outcome_report,
    profile_tables,
    random_history_minimum,
    reduction_set,
    scenario_truncation,
)
from exform.sdf import RandomMove
from exform.sef import (
    StochasticExtensiveForm,
    convert_strategy,
    info_sets,
    strategies,
)
from test_index import _compatible_outcomes, one_shot

ALL_INSTANCES = [simple_sef(n) for n in SIMPLE_SEF_ROWS] + \
    [variant_sef(n) for n in VARIANT_SEF_ROWS] + [amd_sef(1)[0]]


def _all_profiles(sef):
    per_agent = [strategies(sef, i) for i in sef.agents]
    for combo in itertools.product(*per_agent):
        yield StrategyProfile(dict(zip(sef.agents, combo)))


def pick(sef, agent, wanted):
    """The strategy selecting the wanted choice at each given random move."""
    for s in strategies(sef, agent):
        table = convert_strategy(sef, s, "randommove")
        if all(table[m] == c for m, c in wanted.items()):
            return s
    raise AssertionError("no such strategy")


def row1_profile():
    sef = simple_sef(1)
    _, moves = simple_sdf()
    x0, x1, x2 = moves
    wanted = {
        x0: simple_choice_first({"o1": "1", "o2": "1"}),
        x1: simple_choice_second("1", {"o1": "1", "o2": "1"}),
        x2: simple_choice_second("2", {"o1": "1", "o2": "1"}),
    }
    return sef, moves, StrategyProfile({"i": pick(sef, "i", wanted)})


class TestReductionSet:
    def test_two_intersected_choices(self):
        sef, moves, profile = row1_profile()
        h = {sef.sdf.root_of("o1")}
        assert reduction_set(sef, "o1:11", profile, h) == {"o1:11"}

    def test_discarded_outcome(self):
        sef, moves, profile = row1_profile()
        h = {sef.sdf.root_of("o1")}
        r = reduction_set(sef, "o1:22", profile, h)
        assert "o1:22" not in r

    def test_last_move_history(self):
        sef, (x0, x1, x2), profile = row1_profile()
        h = sef.sdf.forest.up(x1("o1"))
        assert reduction_set(sef, "o1:11", profile, h) == {"o1:11"}

    def test_candidate_outside_core_rejected(self):
        sef, moves, profile = row1_profile()
        with pytest.raises(WNotInHistoryCore):
            reduction_set(sef, "o2:11", profile, {sef.sdf.root_of("o1")})


class TestInducedOutcome:
    def test_forward_play_from_root(self):
        sef, moves, profile = row1_profile()
        assert induced_outcome(sef, profile, {sef.sdf.root_of("o1")}) == "o1:11"
        assert induced_outcome(sef, profile, {sef.sdf.root_of("o2")}) == "o2:11"

    def test_exit_profile_in_menu_game(self):
        sef, (x1, x2) = amd_sef(1)
        w1, w2 = sorted(sef.sdf.scenarios)
        exits = {i: pick(sef, i, {m: next(
            c for c in sef.choices[i] if f"{w}:D" in c)})
            for i, m, w in ((1, x1, w1), (2, x2, w2))}
        profile = StrategyProfile(exits)
        assert induced_outcome(sef, profile, {sef.sdf.root_of(w1)}) == f"{w1}:D"
        assert induced_outcome(sef, profile, {sef.sdf.root_of(w2)}) == f"{w2}:D"

    def test_terminal_adjacent_history(self):
        sef, (x0, x1, x2), profile = row1_profile()
        for s in strategies(sef, "i"):
            p = StrategyProfile({"i": s})
            w = induced_outcome(sef, p, sef.sdf.forest.up(x1("o1")))
            assert w in {"o1:11", "o1:12"}

    @pytest.mark.parametrize("sef", ALL_INSTANCES)
    def test_forward_play_matches_fixed_point(self, sef):
        # oracle: the unique core outcome contained in its own reduction set
        for h in histories(sef.sdf.forest):
            core = frozenset.intersection(*h)
            for profile in _all_profiles(sef):
                w = induced_outcome(sef, profile, h)
                fixed = [v for v in core
                         if v in reduction_set(sef, v, profile, h)]
                assert fixed == [w]


class TestWellPosedness:
    @pytest.mark.parametrize("sef", ALL_INSTANCES)
    def test_direct_check_passes(self, sef):
        report = check_wellposed_direct(sef)
        assert bool(report)
        assert (report.attainable, report.existence, report.uniqueness) \
            == (True, True, True)

    @pytest.mark.parametrize("sef", ALL_INSTANCES)
    def test_order_check_agrees(self, sef):
        assert check_wellposed_order(sef)

    def test_order_check_is_the_predicates_with_no_poset(self, monkeypatch):
        # the forest was validated when the form was built, so the order
        # verdict reads off finiteness: it agrees with the predicates of
        # the forest's poset, and builds none
        forms = [load_example(name)[0] for name in sorted(EXAMPLES)]
        forms += [random_strict_sef(make_rng(seed)) for seed in range(20)]
        expected = []
        for form in forms:
            predicates = order_predicates(form.sdf.forest.as_poset())
            expected.append(predicates["up_discrete"]
                            and predicates["regular"])

        def refuse(*args, **kwargs):
            raise AssertionError("a poset was built")

        monkeypatch.setattr(Poset, "__init__", refuse)
        assert [check_wellposed_order(form) for form in forms] == expected

    @pytest.mark.parametrize("sef", ALL_INSTANCES)
    def test_truncation_conjunction(self, sef):
        # scenario-wise verdicts must conjoin to the overall verdict
        verdicts = [bool(check_wellposed_direct(scenario_truncation(sef, w)))
                    for w in sef.sdf.scenarios]
        assert all(verdicts) == bool(check_wellposed_direct(sef))

    def test_budget_enforced(self, monkeypatch):
        sef = simple_sef(1)
        # the agent's 8 strategies fit, the 6 histories' 48 pairs do not
        monkeypatch.setenv("EXFORM_BUDGET", "20")
        with pytest.raises(EnumerationBudgetExceeded, match=r"^48 \(history, "
                           r"tree key\) pairs exceed the budget$"):
            check_wellposed_direct(sef)
        monkeypatch.setenv("EXFORM_BUDGET", "48")
        assert check_wellposed_direct(sef)

    def test_strategies_cap_per_agent_comes_first(self, monkeypatch):
        # i's 4 strategies fit, j's 16 do not, nor do the 48 x 64 pairs
        sef = load_example("mp-case1")[0]
        monkeypatch.setenv("EXFORM_BUDGET", "15")
        with pytest.raises(EnumerationBudgetExceeded,
                           match="^16 strategies exceed the budget$"):
            check_wellposed_direct(sef)
        monkeypatch.setenv("EXFORM_BUDGET", "16")
        with pytest.raises(EnumerationBudgetExceeded, match=r"^384 \(history, "
                           r"tree key\) pairs exceed the budget$"):
            check_wellposed_direct(sef)

    def test_underseparated_pseudo_structure_fails_uniqueness(self):
        pseudo = underseparated_pseudo()
        sdf = pseudo.sdf
        report = check_wellposed_direct(pseudo)
        assert not report.uniqueness
        assert not report.attainable
        assert report.existence
        assert "uniqueness" in report.witnesses
        s = strategies(pseudo, "i")[0]
        with pytest.raises(MultipleOutcomes):
            induced_outcome(pseudo, StrategyProfile({"i": s}),
                            {sdf.root_of("w")})

    def test_empty_menu_fails_existence_and_uniqueness(self):
        # the 4-comb whose bottom move lost both children's choices: its
        # agent has no strategy, so no profile gives any history an outcome
        report = check_wellposed_direct(empty_menu_pseudo())
        assert (report.attainable, report.existence, report.uniqueness) \
            == (False, False, False)
        empty = report.witnesses["existence"]
        assert report.witnesses["uniqueness"] == empty
        bottom = frozenset({"w:2", "w:3"})
        assert empty.random_moves == {RandomMove({"w": bottom})}

    def test_disjoint_joint_choice_fails_existence(self):
        pseudo = disjoint_joint_pseudo()
        report = check_wellposed_direct(pseudo)
        assert (report.attainable, report.existence, report.uniqueness) \
            == (False, False, True)
        profile, h = report.witnesses["existence"]
        with pytest.raises(NoOutcome):
            outcome_from(pseudo, profile_tables(pseudo, profile),
                         frozenset.intersection(*h))


def one_move_pseudo(outcomes, menus):
    """One move over the outcomes, every agent active there with the given
    choices and no information partition or reference choice; assembled
    without validation on purpose."""
    sdf = one_shot(outcomes)
    (x0,) = sdf.random_moves
    pseudo = object.__new__(StochasticExtensiveForm)
    none = {i: {} for i in menus}
    pseudo._store(sdf, tuple(menus), {i: {x0} for i in menus}, none, none,
                  menus)
    return pseudo


def underseparated_pseudo():
    # a single choice that never separates two terminals
    return one_move_pseudo(["w:1", "w:2", "w:3"], {"i": [{"w:1", "w:2"}]})


def empty_menu_pseudo():
    """The 4-comb without the choices of its bottom move; assembled
    without validation on purpose."""
    sdf, agents, agent_moves, info, refchoices, choices = comb_parts(4)
    bottom = frozenset({"w:2", "w:3"})
    kept = {c for c in choices["i"] if not c < bottom}
    pseudo = object.__new__(StochasticExtensiveForm)
    pseudo._store(sdf, agents, agent_moves, info, refchoices, {"i": kept})
    return pseudo


def disjoint_joint_pseudo():
    # two agents active at one move whose choices share no outcome
    return one_move_pseudo(["w:1", "w:2"], {"a": [{"w:1"}], "b": [{"w:2"}]})


def dealt_to_two(sef, rng):
    """The single-agent strict form with its moves dealt at random to two
    agents, each owning the choices offered at its moves."""
    agents = ("i", "j")
    deal = {m: rng.choice(agents)
            for m in sorted(sef.agent_moves["i"], key=lambda m: repr(m.graph))}
    moves = {a: frozenset(m for m, b in deal.items() if b == a) for a in agents}
    return StochasticExtensiveForm(
        sef.sdf, agents, moves,
        {a: {m: sef.info["i"][m] for m in moves[a]} for a in agents},
        {a: {m: sef.refchoices["i"][m] for m in moves[a]} for a in agents},
        {a: frozenset(c for m in moves[a] for c in sef.refchoices["i"][m])
         for a in agents})


def coarsened(sef, rng):
    """The form with two sibling choices of one agent's move merged into
    one, so that the merged choice never separates them; the pair is drawn
    from every agent's, and the form is assembled without validation on
    purpose."""
    pairs = [(i, c, d) for i in sef.agents for c, d in itertools.combinations(
        sorted(sef.choices[i], key=sorted), 2)
        if immediate_predecessors(sef.sdf.forest, c)
        == immediate_predecessors(sef.sdf.forest, d)]
    i, c, d = rng.choice(pairs)
    pseudo = object.__new__(StochasticExtensiveForm)
    pseudo._store(sef.sdf, sef.agents, sef.agent_moves, sef.info,
                  sef.refchoices,
                  {**sef.choices, i: sef.choices[i] - {c, d} | {c | d}})
    return pseudo


def unique_first_pseudo():
    """One move where a's only choice never separates w:1 from w:2 and b
    may take either side: the first profile fails uniqueness and the
    second existence."""
    return one_move_pseudo(["w:1", "w:2", "w:3"], {
        "a": [{"w:1", "w:2"}], "b": [{"w:1", "w:2"}, {"w:3"}]})


def wellposed_by_forward_play(sef):
    """The well-posedness sweep by forward play, history by history with
    fresh tables for every profile, kept verbatim as the oracle (the
    move-table builder is ``profile_tables``)."""
    cap = budget(10 ** 6)
    hs = sorted(histories(sef.sdf.forest),
                key=lambda h: sorted(map(sorted, h)))
    profiles = list(_all_profiles(sef))
    if len(hs) * len(profiles) > cap:
        raise EnumerationBudgetExceeded(
            f"{len(hs)} histories x {len(profiles)} profiles")
    report = WellPosedReport(True, True, True)
    for h in hs:
        core = frozenset.intersection(*h)
        attained = set()
        for profile in profiles:
            tables = profile_tables(sef, profile)
            compatible = _compatible_outcomes(sef, tables, h)
            attained.update(compatible)
            if not compatible:
                report.existence = False
                report.witnesses.setdefault("existence", (profile, h))
            if len(compatible) > 1 or (
                    compatible and
                    reduction_set(sef, compatible[0], profile, h)
                    != {compatible[0]}):
                report.uniqueness = False
                report.witnesses.setdefault("uniqueness",
                                            (profile, h, compatible))
        if attained != core:
            report.attainable = False
            report.witnesses.setdefault("attainable", (h, core - attained))
    return report


def assert_sweep_matches_oracle(sef):
    report = check_wellposed_direct(sef)
    oracle = wellposed_by_forward_play(sef)
    if not list(_all_profiles(sef)):
        # with no profile at all the oracle passes existence and
        # uniqueness vacuously; the sweep fails both, on an information
        # set that offers no choice
        empty = report.witnesses.pop("existence")
        assert report.witnesses.pop("uniqueness") == empty
        assert not sef.available_at(empty.agent, next(iter(empty.random_moves)))
        oracle.existence = oracle.uniqueness = False
    assert (report.attainable, report.existence, report.uniqueness) \
        == (oracle.attainable, oracle.existence, oracle.uniqueness)
    assert report.witnesses.get("attainable") \
        == oracle.witnesses.get("attainable")
    if "existence" in report.witnesses:
        profile, h = report.witnesses["existence"]
        assert _compatible_outcomes(sef, profile_tables(sef, profile), h) == []
    if "uniqueness" in report.witnesses:
        profile, h, compatible = report.witnesses["uniqueness"]
        found = _compatible_outcomes(sef, profile_tables(sef, profile), h)
        assert sorted(found) == compatible
        assert len(found) > 1 or \
            reduction_set(sef, found[0], profile, h) != {found[0]}


class TestWellPosednessOracle:
    @pytest.mark.parametrize("sef", ALL_INSTANCES)
    def test_bundled_instances(self, sef):
        assert_sweep_matches_oracle(sef)

    def test_underseparated_pseudo_structure(self):
        assert_sweep_matches_oracle(underseparated_pseudo())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_strict_forms(self, seed):
        # also against the sweep as it was before the slice memo, on a
        # single-agent and a two-agent family
        rng = make_rng(seed)
        sef = random_strict_sef(rng)
        for form in (sef, coarsened(sef, rng), dealt_to_two(sef, rng)):
            assert_sweep_matches_oracle(form)
            assert_same_report(form)


def _compatible_below(sef, tables, x, memo):
    """The outcomes compatible with the tables from the move x on, filled
    into the memo bottom-up by a stack walk below x, kept as the oracle
    of the tree fills: each move keeps the union over its children, cut
    down to every active agent's choice there; a terminal child
    contributes its one outcome."""
    children = sef.sdf.forest.children
    stack = [x]
    while stack:
        y = stack[-1]
        if y in memo:
            stack.pop()
            continue
        pending = [z for z in children(y) if len(z) > 1 and z not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        found = frozenset().union(
            *[z if len(z) == 1 else memo[z] for z in children(y)])
        for i in sef.active_agents(y):
            found &= tables[i][y]
        memo[y] = found
    return memo[x]


def wellposed_by_profile_tables(sef):
    """The direct sweep as it was before the slice memo, kept as the
    oracle: every profile builds its own tables, and each history is
    answered from their memo."""
    cap = budget(10 ** 6)
    hs = sorted(histories(sef.sdf.forest),
                key=lambda h: sorted(map(sorted, h)))
    profiles = list(_all_profiles(sef))
    if len(hs) * len(profiles) > cap:
        raise EnumerationBudgetExceeded(
            f"{len(hs)} histories x {len(profiles)} profiles")
    cores = {h: frozenset.intersection(*h) for h in hs}
    attained = {h: set() for h in hs}
    report = WellPosedReport(True, True, True)
    if not profiles:
        report.existence = report.uniqueness = False
        report.witnesses["existence"] = report.witnesses["uniqueness"] = next(
            p for i in sef.agents for p in info_sets(sef, i)[0]
            if not sef.available_at(i, next(iter(p.random_moves))))
    for profile in profiles:
        tables, memo = profile_tables(sef, profile), {}
        for h in hs:
            compatible = sorted(_compatible_below(sef, tables, cores[h], memo))
            attained[h].update(compatible)
            if not compatible:
                report.existence = False
                report.witnesses.setdefault("existence", (profile, h))
            elif len(compatible) > 1 or _reduction(
                    sef, tables, compatible[0], cores[h]) != {compatible[0]}:
                report.uniqueness = False
                report.witnesses.setdefault("uniqueness",
                                            (profile, h, compatible))
    for h in hs:
        if attained[h] != cores[h]:
            report.attainable = False
            report.witnesses.setdefault("attainable", (h, cores[h] - attained[h]))
    return report


def assert_same_report(sef):
    report = check_wellposed_direct(sef)
    oracle = wellposed_by_profile_tables(sef)
    assert (report.attainable, report.existence, report.uniqueness) \
        == (oracle.attainable, oracle.existence, oracle.uniqueness)
    assert list(report.witnesses.items()) == list(oracle.witnesses.items())
    return report


class TestWellPosednessTableOracle:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_forms(self, name):
        assert_same_report(load_example(name)[0])

    @pytest.mark.parametrize("build", [underseparated_pseudo, empty_menu_pseudo,
                                       disjoint_joint_pseudo,
                                       unique_first_pseudo])
    def test_pseudo_forms(self, build):
        assert not assert_same_report(build())

    def test_uniqueness_witness_before_existence(self):
        report = assert_same_report(unique_first_pseudo())
        assert list(report.witnesses) == ["uniqueness", "existence",
                                          "attainable"]

    def test_strict_forms_dealt_and_coarsened(self):
        # each strict form, its deal to two agents, and the coarsening of
        # both; the coarsened deals fail with profiles of two agents
        witnesses = set()
        for seed in range(300):
            rng = make_rng(seed)
            sef = random_strict_sef(rng)
            two = dealt_to_two(sef, rng)
            for form in (sef, coarsened(sef, rng), two, coarsened(two, rng)):
                report = assert_same_report(form)
                for witness in report.witnesses.values():
                    if isinstance(witness, tuple) and \
                            isinstance(witness[0], StrategyProfile):
                        witnesses.add(sum(bool(t.assignment) for t in
                                          witness[0].strategies.values()))
        assert witnesses == {1, 2}

    def test_draws_reach_two_agents_and_witnesses(self):
        # the coarsened forms give the witness comparison something to
        # compare, and the two-agent deal gives both agents moves
        seen = set()
        for seed in range(40):
            rng = make_rng(seed)
            sef = random_strict_sef(rng)
            two = dealt_to_two(sef, rng)
            if all(two.agent_moves[a] for a in two.agents):
                seen.add("two agents")
            if check_wellposed_direct(coarsened(sef, rng)).witnesses:
                seen.add("witness")
        assert seen == {"two agents", "witness"}


def tree_signature(sef, tables, root):
    """A profile's slices on the tree of the root, as an unordered set."""
    return frozenset((i, x, tables[i][x] & root) for i in sef.agents
                     for x in sef.moves_of(i) if x <= root)


@pytest.fixture
def fill_count(monkeypatch):
    """The roots of the fills made so far; clear it to start counting."""
    calls = []
    fill = play._tree_fill

    def counted(sef, tables, root):
        calls.append(root)
        return fill(sef, tables, root)

    monkeypatch.setattr(play, "_tree_fill", counted)
    return calls


class TestTreeFills:
    @pytest.mark.parametrize("name", ["amd", "mp-case1", "mp-case4"])
    def test_wellposed_fills_each_signature_once(self, name, fill_count):
        sef = load_example(name)[0]
        roots = {sef.sdf.root_of(w) for w in sef.sdf.scenarios
                 if sef.sdf.tree_of(w) & sef.sdf.forest.moves()}
        signatures = {(r, tree_signature(sef, profile_tables(sef, p), r))
                      for p in _all_profiles(sef) for r in roots}
        fill_count.clear()
        check_wellposed_direct(sef)
        assert len(fill_count) == len(signatures)
        assert len(signatures) < len(roots) * len(list(_all_profiles(sef)))

    @pytest.mark.parametrize("atoms", [3, 6])
    def test_rationality_fills_each_signature_once(self, atoms, fill_count):
        # at p = 2/3 the profile is an equilibrium, so every deviation
        # sweeps every block of its agent's units
        sef, eu, s, _ = amd_instance(Fraction(2, 3), atoms)
        reached = {i: {sef.sdf.root_of(w) for unit in units(sef)
                       if unit[0] == i
                       for w, q in eu.beliefs[unit].prob.items() if q}
                   for i in sef.agents}
        signatures = {(r, tree_signature(sef, profile_tables(sef, s), r))
                      for i in sef.agents for r in reached[i]}
        queries = 0
        for i in sef.agents:
            for t in strategies(sef, i):
                tables = profile_tables(
                    sef, StrategyProfile({**s.strategies, i: t}))
                signatures.update((r, tree_signature(sef, tables, r))
                                  for r in reached[i])
                queries += len(reached[i])
        fill_count.clear()
        assert check_dynamic_rationality(sef, eu, s)
        assert len(fill_count) == len(signatures)
        assert 4 * len(signatures) < queries

    @pytest.mark.parametrize("atoms", [3, 6])
    def test_verify_fills_no_more_than_rationality(self, atoms, fill_count):
        # consistency reads its assessed outcomes from the fills the
        # rationality half reads too
        sef, eu, s, _ = amd_instance(Fraction(2, 3), atoms)
        fill_count.clear()
        check_dynamic_rationality(sef, eu, s)
        alone = len(fill_count)
        fill_count.clear()
        assert verify_equilibrium(sef, eu, s)
        assert len(fill_count) <= alone


class TestDirectWork:
    """The direct check decides each tree's histories once per key, one
    distinct slice per (agent, information set) with moves in the tree,
    and builds no strategy but its witnesses'."""

    @staticmethod
    def keys_per_tree(sef):
        """Per root of a tree with moves, the product over the information
        sets with moves there of the distinct slices of their menus."""
        keys = {sef.sdf.root_of(sef.sdf.projection[x]): 1
                for x in sef.sdf.forest.moves()}
        for i in sef.agents:
            sets, moves = info_sets(sef, i)
            for p in sets:
                menu = sef.available_at(i, next(iter(p.random_moves)))
                for root in {r for r in keys if any(x <= r for x in moves[p])}:
                    keys[root] *= len({c & root for c in menu})
        return keys

    @pytest.mark.parametrize("name", ["amd", "mp-case1", "mp-case3",
                                      "mp-case4", "ultimatum"])
    def test_one_pass_per_tree_key(self, name, monkeypatch, fill_count):
        sef = load_example(name)[0]
        passes = []
        fill = play.TreeFills.fill

        def counted(self, tables, key):
            passes.append(key[0])
            return fill(self, tables, key)

        monkeypatch.setattr(play.TreeFills, "fill", counted)
        fill_count.clear()
        check_wellposed_direct(sef)
        keys = self.keys_per_tree(sef)
        assert {r: passes.count(r) for r in set(passes)} == keys
        assert len(fill_count) == sum(keys.values())

    @pytest.mark.parametrize("name", ["amd", "mp-case1", "mp-case2",
                                      "mp-case4", "simple", "ultimatum"])
    def test_cap_counts_history_and_tree_key_pairs(self, name, monkeypatch):
        # each history is decided once per key of its tree; the cap counts
        # those pairs, never more than the (history, profile) pairs
        sef = load_example(name)[0]
        keys = self.keys_per_tree(sef)
        hs = histories(sef.sdf.forest)
        pairs = sum(keys[max(h, key=len)] for h in hs)
        profiles = math.prod(len(strategies(sef, i)) for i in sef.agents)
        assert pairs <= len(hs) * profiles
        monkeypatch.setenv("EXFORM_BUDGET", str(pairs - 1))
        with pytest.raises(EnumerationBudgetExceeded, match=(
                rf"^{pairs} \(history, tree key\) pairs exceed the budget$")):
            check_wellposed_direct(sef)
        monkeypatch.setenv("EXFORM_BUDGET", str(pairs))
        check_wellposed_direct(sef)

    def test_no_strategy_enumerated(self, monkeypatch):
        forms = [load_example(name)[0] for name in ("amd", "mp-case3")]
        rng = make_rng(7)
        two = dealt_to_two(random_strict_sef(rng), rng)
        forms += [two, coarsened(two, rng), empty_menu_pseudo(),
                  unique_first_pseudo()]

        def refuse(*args):
            raise AssertionError("a strategy was enumerated or converted")

        for module in (exform.sef, play):
            for name in ("strategies", "convert_strategy"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        for form in forms:
            check_wellposed_direct(form)
        monkeypatch.undo()
        for form in forms:
            assert_same_report(form)


@pytest.fixture
def read_count(monkeypatch):
    """The starts of the tree-fill reads made so far, and per deviating
    agent the number its partial sums made; clear both to start counting."""
    reads, by_agent = [], {}
    reader = play.TreeFills.reader
    parts = equil._Deviations.parts

    def counted_reader(self, tables):
        read = reader(self, tables)

        def counted(x):
            reads.append(x)
            return read(x)

        return counted

    def counted_parts(self, taste, pairs):
        before = len(reads)
        found = parts(self, taste, pairs)
        by_agent[self.agent] = by_agent.get(self.agent, 0) + len(reads) - before
        return found

    monkeypatch.setattr(play.TreeFills, "reader", counted_reader)
    monkeypatch.setattr(equil._Deviations, "parts", counted_parts)
    return reads, by_agent


@pytest.fixture
def update_count(monkeypatch):
    """The partial-sum updates of the sweep made so far, one per choice
    tuple that ``equil``'s products yield; clear it to start counting."""
    updates = []

    def product(*iterables):
        for found in itertools.product(*iterables):
            if found and isinstance(found[0], frozenset):
                updates.append(found)
            yield found

    monkeypatch.setattr(equil, "itertools", SimpleNamespace(
        **{**vars(itertools), "product": product}))
    return updates


class TestWorkCounts:
    """The sweep reads each term once under the profile and once per
    distinct slice of the deviating agent's menu in the term's tree; the
    term-by-term sweep it replaced read every term under every
    deviation.  The fills are the same.  A part is expanded into choice
    tuples only for a swept agent, or where it has several groupings, and
    then once: adding each term into every choice tuple of its groups took
    7,680 updates on the 6-atom race and 240 on the 3-atom one, and
    expanding every grouping, swept or not, 768 and 48.  At p = 2/3 every
    part has one grouping and both agents are bounded, so none is
    expanded; at p = 1/2 both agents are swept."""

    @pytest.mark.parametrize("atoms, p, updates, reads, rational", [
        (6, "2/3", 0, 240, True), (3, "2/3", 0, 60, True),
        (6, "1/2", 768, 216, False)])
    def test_partial_sum_updates(self, update_count, read_count, atoms, p,
                                 updates, reads, rational):
        _, by_agent = read_count
        sef, eu, s, _ = amd_instance(Fraction(p), atoms)
        update_count.clear()
        assert bool(check_dynamic_rationality(sef, eu, s)) is rational
        assert len(update_count) == updates
        assert sum(by_agent.values()) == reads

    def test_exit_race(self, read_count, fill_count):
        from test_equil import tree_fill_rationality
        reads, by_agent = read_count
        sef, eu, s, _ = amd_instance(Fraction(2, 3), 6)
        counts = []
        for sweep in (check_dynamic_rationality, tree_fill_rationality):
            reads.clear()
            fill_count.clear()
            assert sweep(sef, eu, s)
            counts.append((len(reads), len(fill_count)))
        # 60 terms per agent: 120 reads for the profile, and 60 terms x 2
        # slices for each agent's deviations
        assert counts == [(360, 192), (7800, 192)]
        assert by_agent == {1: 120, 2: 120}

    def test_coin_matching_case3(self, read_count, fill_count):
        from test_equil import coin_matching_checks, tree_fill_rationality
        from test_acceptance import _mp_profile
        reads, by_agent = read_count
        case, first, picks, p = coin_matching_checks()[9]
        assert case == 3
        sef, eu, s = _mp_profile(case, first, picks, p)
        assert len(strategies(sef, "j")) == 256
        reads.clear()
        fill_count.clear()
        check_dynamic_rationality(sef, eu, s)
        # 16 terms per agent, 2 slices each in every tree
        assert (len(reads), len(fill_count)) == (96, 48)
        assert by_agent == {"i": 32, "j": 32}
        reads.clear()
        fill_count.clear()
        tree_fill_rationality(sef, eu, s)
        # 32 for the profile, 4 x 16 for i, 256 x 16 for j
        assert (len(reads), len(fill_count)) == (4192, 48)


class TestClosureInvariance:
    @pytest.mark.parametrize("sef", ALL_INSTANCES[:3])
    def test_reduction_ignores_closure(self, sef):
        from exform.forest import closure
        for h in histories(sef.sdf.forest):
            hbar = closure(sef.sdf.forest, h)
            core = frozenset.intersection(*h)
            for profile in _all_profiles(sef):
                for w in core:
                    assert reduction_set(sef, w, profile, h) == \
                        reduction_set(sef, w, profile, hbar)


class TestScenarioTruncation:
    def test_two_period_tree(self):
        t = scenario_truncation(simple_sef(1), "o1")
        assert len(t.sdf.forest.nodes) == 7
        assert t.sdf.scenarios == ("o1",)
        assert t.report.valid
        assert len(t.choices["i"]) == 6

    def test_menu_game_tree(self):
        sef, _ = amd_sef(1)
        w1, w2 = sorted(sef.sdf.scenarios)
        t = scenario_truncation(sef, w1)
        assert len(t.sdf.forest.nodes) == 5
        assert t.report.valid
        # the favoured agent picks among three outcomes in two steps
        assert {frozenset({f"{w1}:D"}), frozenset({f"{w1}:H", f"{w1}:M"})} \
            <= t.choices[1]

    def test_single_scenario_form_is_its_own_truncation(self):
        sef, _ = amd_sef(1)
        w2 = sorted(sef.sdf.scenarios)[1]
        t = scenario_truncation(sef, w2)
        tt = scenario_truncation(t, w2)
        assert tt.sdf.forest == t.sdf.forest
        assert tt.choices == t.choices


class TestClosedHistoryMinimum:
    def test_principal_upset(self):
        sef = simple_sef(1)
        _, (x0, x1, x2) = simple_sdf()
        h = sef.sdf.forest.up(x1("o1"))
        assert closed_history_minimum(sef, h) == x1("o1")

    def test_random_family_recovers_the_move(self):
        sef = simple_sef(1)
        _, (x0, x1, x2) = simple_sdf()
        family = {w: sef.sdf.forest.up(x1(w)) for w in ("o1", "o2")}
        assert random_history_minimum(sef, family) == x1

    def test_mismatched_family_rejected(self):
        sef = simple_sef(1)
        _, (x0, x1, x2) = simple_sdf()
        family = {"o1": sef.sdf.forest.up(x1("o1")),
                  "o2": sef.sdf.forest.up(x2("o2"))}
        with pytest.raises(NotClosed):
            random_history_minimum(sef, family)

    def test_non_closed_input_rejected(self):
        sef = simple_sef(1)
        _, (x0, x1, x2) = simple_sdf()
        with pytest.raises(NotClosed):
            closed_history_minimum(sef, {x1("o1")})  # root missing


def assert_queries_match_walk(sef, profiles):
    """``outcome_report`` and ``outcome_from`` read, on every history and
    profile, the outcomes the stack walk below the core finds."""
    hs = sorted(histories(sef.sdf.forest), key=lambda h: sorted(map(sorted, h)))
    pairs = 0
    for profile in profiles:
        tables, memo = profile_tables(sef, profile), {}
        for h in hs:
            core = frozenset.intersection(*h)
            found = sorted(_compatible_below(sef, tables, core, memo))
            report = outcome_report(sef, profile, h)
            if len(found) == 1:
                expected, failure = found[0], None
            else:
                expected = MultipleOutcomes if found else NoOutcome
                failure = "multiple" if found else "no-outcome"
            assert (report.induced, report.failure) == (
                None if failure else expected, failure)
            try:
                got = outcome_from(sef, tables, core)
            except (NoOutcome, MultipleOutcomes) as err:
                got = type(err)
            assert got == expected
            pairs += 1
    return pairs


class TestOneQueryFill:
    """A single outcome query reads the core's tree fill; the stack walk it
    replaced is the oracle."""

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_bundled_forms(self, name):
        # every profile, not just the bundled one
        sef = load_example(name)[0]
        assert assert_queries_match_walk(sef, list(_all_profiles(sef)))

    @pytest.mark.parametrize("build", [underseparated_pseudo,
                                       disjoint_joint_pseudo,
                                       unique_first_pseudo])
    def test_pseudo_forms(self, build):
        pseudo = build()
        assert assert_queries_match_walk(pseudo, list(_all_profiles(pseudo)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_strict_forms(self, seed):
        rng = make_rng(seed)
        sef = random_strict_sef(rng)
        for form in (sef, coarsened(sef, rng), dealt_to_two(sef, rng)):
            profiles = list(itertools.islice(_all_profiles(form), 8))
            assert_queries_match_walk(form, profiles)


class TestOutcomeReport:
    def test_report_round_trip(self):
        sef, moves, profile = row1_profile()
        h = {sef.sdf.root_of("o1")}
        report = outcome_report(sef, profile, h)
        assert report.induced == "o1:11"
        assert report.failure is None
        assert report.reduction["o1:11"] == {"o1:11"}
        assert all(w not in r for w, r in report.reduction.items()
                   if w != "o1:11")


SRC = Path(__file__).resolve().parents[1] / "src" / "exform"


def named(source):
    """Every name, attribute and imported name the source uses; strings
    and comments do not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


class TestOneOutcomeEngine:
    """Compatible outcomes are filled in ``play`` alone, and the modules
    that read several outcomes of one profile read them through
    ``TreeFills``, not through one-off ``outcome_from`` walks."""

    def test_scan_sees_each_use(self):
        source = ("from .play import outcome_from as read\n"
                  "def f(sef):\n"
                  "    return play._compatible_below(sef), g, 'h'  # k\n")
        assert named(source) == {"outcome_from", "_compatible_below", "play",
                                 "sef", "g"}

    def test_fills_only_in_play(self):
        naming = [path.name for path in sorted(SRC.glob("*.py"))
                  if "_tree_fill" in named(path.read_text())]
        assert naming == ["play.py"]

    @pytest.mark.parametrize("module", ["equil.py", "cli.py"])
    def test_no_one_off_reads(self, module):
        assert "outcome_from" not in named((SRC / module).read_text())

    def test_profile_tables_carry_no_memo(self):
        sef, _, s, _ = load_example("simple")
        assert type(profile_tables(sef, s)) is dict
        assert not hasattr(play, "ProfileTables")
