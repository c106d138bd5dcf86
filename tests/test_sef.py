import itertools
import re
import time
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings

from conftest import action_path_inputs, comb_parts, unvalidated
from test_adapted import twelve_atoms
from exform import actionpath
from exform._util import canonical_text, powerset
from exform.actionpath import (
    ActionPathData,
    build_action_path_sef,
    classify_endogenous,
)
from exform.errors import (
    APAxiomViolation,
    APSEFAxiomViolation,
    BudgetExceeded,
    ExformError,
    InputError,
    StructureError,
)
from exform.adapted import check_adapted
from exform.forest import DecisionForest, immediate_predecessors
from exform.instances import (
    DISCRETE,
    SIMPLE_SCENARIOS,
    SIMPLE_SEF_ROWS,
    TRIVIAL,
    VARIANT_SEF_ROWS,
    amd_continue_region,
    amd_event_choice,
    amd_exit_region,
    amd_scenarios,
    amd_sef,
    amd_signal,
    load_example,
    simple_choice_first,
    simple_choice_second,
    simple_choice_second_any,
    simple_reference_choices,
    simple_sdf,
    simple_sef,
    variant_sef,
)
from exform.sdf import RandomMove, StochasticDecisionForest
from exform.sef import (
    StochasticExtensiveForm,
    check_heraclitus,
    check_recall_and_info,
    complete_choices,
    convert_strategy,
    info_sets,
    split_selves,
    strategies,
    strategy_from_moves,
    validate_sef,
)

ALL_ROWS = [simple_sef(n) for n in SIMPLE_SEF_ROWS]
ALL_VARIANTS = [variant_sef(n) for n in VARIANT_SEF_ROWS]
AMD = amd_sef(1)[0]


def const(v):
    return {w: v for w in SIMPLE_SCENARIOS}


class TestValidity:
    @pytest.mark.parametrize("sef", ALL_ROWS + ALL_VARIANTS + [AMD])
    def test_axioms_hold(self, sef):
        assert sef.report.valid
        assert all(v is True for v in sef.report.checked.values())

    def test_choice_counts(self):
        assert [len(s.choices["i"]) for s in ALL_ROWS] == \
            [6, 4, 10, 6, 8, 8, 12, 8]
        assert [len(s.choices["i"]) for s in ALL_VARIANTS] == [6, 8, 10]

    def test_strong_separation(self):
        assert simple_sef(1).report.valid
        assert simple_sef(2).report.valid
        assert AMD.report.valid

    def test_amd_bigger_signal_space(self):
        sef, _ = amd_sef(2)
        assert sef.report.valid
        assert len(sef.sdf.scenarios) == 8
        assert all(len(sef.choices[i]) == 4 for i in sef.agents)


def amd_choices_oracle(atoms, agent):
    """The agent's exit-race choices as amd_sef built them before each
    outcome's scenario was read once: {event: choice}, one per union of
    signal blocks, each outcome label split once per event."""
    scenarios = amd_scenarios(atoms)
    assignments = {w: int(w[1]) for w in scenarios}
    ex = amd_exit_region(assignments, agent)
    ct = amd_continue_region(assignments, agent)
    blocks = {}
    for w in scenarios:
        blocks.setdefault(amd_signal(w, agent), set()).add(w)
    choices = {}
    for combo in powerset(sorted(blocks)):
        event = frozenset().union(*[blocks[s] for s in combo])
        choices[event] = frozenset(
            w for w in ex if w.split(":")[0] in event) | frozenset(
            w for w in ct if w.split(":")[0] not in event)
    return choices


def _exiting_on(ex, ct):
    """The choice exiting exactly on an event, as a function of the event:
    the exit region's outcomes on it and the continue region's off it.
    Each outcome's scenario is read once.  (``exform.instances`` built
    the exit race's choices with it before it joined them from pieces.)"""
    ex, ct = ([(w.split(":")[0], w) for w in region] for region in (ex, ct))
    return lambda event: frozenset(w for s, w in ex if s in event) | \
        frozenset(w for s, w in ct if s not in event)


class TestAmdChoices:
    @pytest.mark.parametrize("atoms", [*range(1, 9), 12])
    def test_choice_sets_as_before(self, atoms):
        sef = twelve_atoms() if atoms == 12 else amd_sef(atoms)[0]
        for agent in sef.agents:
            oracle = amd_choices_oracle(atoms, agent)
            assert sef.choices[agent] == frozenset(oracle.values())
            assert len(sef.choices[agent]) == 2 ** atoms

    @pytest.mark.parametrize("agent", [1, 2])
    def test_event_choice_as_before(self, agent):
        for event, choice in amd_choices_oracle(3, agent).items():
            assert amd_event_choice(3, agent, event) == choice

    @pytest.mark.parametrize("agent", [1, 2])
    def test_event_choice_on_any_event(self, agent):
        # every event of the two-atom race, the signal-measurable ones
        # and those that split a signal block
        assignments = {w: int(w[1]) for w in amd_scenarios(2)}
        choose = _exiting_on(amd_exit_region(assignments, agent),
                             amd_continue_region(assignments, agent))
        for event in map(frozenset, powerset(amd_scenarios(2))):
            assert amd_event_choice(2, agent, event) == choose(event)


class TestAxiomViolations:
    def test_mismatched_information_at_shared_choice(self):
        # second-period choices offered at both stage-two moves clash with
        # exogenous information that differs between those moves
        sdf, moves = simple_sdf()
        x0, x1, x2 = moves
        info = {"i": {x0: TRIVIAL, x1: DISCRETE, x2: TRIVIAL}}
        choices = {"i": frozenset(
            [simple_choice_first(const(k)) for k in "12"]
            + [simple_choice_second_any(const(m)) for m in "12"])}
        report = validate_sef(sdf, ("i",), {"i": frozenset(moves)}, info,
                              {"i": simple_reference_choices(moves)}, choices)
        assert not report.valid
        assert {v[0] for v in report.violations} == {"axiom5"}
        assert report.checked["axiom5"] is False

    def test_missing_continuation(self):
        sdf, moves = simple_sdf()
        dropped = simple_choice_second("1", const("1"))
        choices = {"i": frozenset(
            [simple_choice_first(const(k)) for k in "12"]
            + [simple_choice_second(k, const(m))
               for k in "12" for m in "12" if (k, m) != ("1", "1")])}
        report = validate_sef(
            sdf, ("i",), {"i": frozenset(moves)},
            {"i": {m: TRIVIAL for m in moves}},
            {"i": simple_reference_choices(moves)}, choices)
        assert not report.valid
        assert "axiom4" in {v[0] for v in report.violations}
        assert dropped not in choices["i"]

    def _one_shot(self, outcomes):
        forest = DecisionForest(outcomes, [set(outcomes)] + [{w} for w in outcomes])
        projection = {x: "w" for x in forest.nodes}
        x0 = RandomMove({"w": frozenset(outcomes)})
        return StochasticDecisionForest(forest, ("w",), projection, [x0]), x0

    def test_unseparated_second_stage(self):
        # owning only the root, the agent cannot separate the two outcomes
        # below either stage-two node of a scenario
        sdf, moves = simple_sdf()
        x0 = moves[0]
        firsts = tuple(simple_choice_first(const(k)) for k in "12")
        report = validate_sef(sdf, ("i",), {"i": frozenset({x0})},
                              {"i": {x0: TRIVIAL}}, {"i": {x0: firsts}},
                              {"i": frozenset(firsts)})
        assert not report.valid
        assert report.checked["axiom3"] is False
        separation = [v for v in report.violations if v[0] == "axiom3"]
        assert len(separation) == 4
        assert {frozenset({y, y2}) for _, (_, y, y2) in separation} == {
            frozenset({frozenset({f"{w}:{a}1"}), frozenset({f"{w}:{a}2"})})
            for w in SIMPLE_SCENARIOS for a in "12"}

    def test_overlapping_slices(self):
        sdf, x0 = self._one_shot(["w:1", "w:2", "w:3"])
        info = {"i": {x0: frozenset({frozenset({"w"})})}}
        refs = {"i": {x0: (frozenset({"w:1"}),)}}
        choices = {"i": frozenset({frozenset({"w:1", "w:2"}),
                                   frozenset({"w:2", "w:3"})})}
        report = validate_sef(sdf, ("i",), {"i": frozenset({x0})}, info,
                              refs, choices)
        assert "axiom1" in {v[0] for v in report.violations}

    def test_incompatible_profile(self):
        # two agents at one move whose choices cannot be realized jointly
        sdf, x0 = self._one_shot(["w:11", "w:21", "w:22"])
        info = {i: {x0: frozenset({frozenset({"w"})})} for i in "ab"}
        refs = {i: {x0: (frozenset({"w:11"}),)} for i in "ab"}
        choices = {
            "a": frozenset({frozenset({"w:11"}), frozenset({"w:21", "w:22"})}),
            "b": frozenset({frozenset({"w:11", "w:21"}), frozenset({"w:22"})}),
        }
        report = validate_sef(sdf, ("a", "b"),
                              {i: frozenset({x0}) for i in "ab"},
                              info, refs, choices)
        assert "axiom2" in {v[0] for v in report.violations}

    def test_duplicated_move_breaks_evaluation(self):
        base, moves = simple_sdf()
        x0, x1, x2 = moves
        extra = x1.restricted({"o1"})
        sdf = StochasticDecisionForest(base.forest, base.scenarios,
                                       base.projection, list(moves) + [extra])
        owned = frozenset(list(moves) + [extra])
        info = {"i": {m: TRIVIAL for m in moves}}
        info["i"][extra] = frozenset({frozenset({"o1"})})
        report = validate_sef(sdf, ("i",), {"i": owned}, info,
                              {"i": simple_reference_choices(moves)},
                              {"i": frozenset()})
        assert not report.valid
        assert report.violations[0][0] == "evaluation"


class TestInformationSets:
    def test_distinct_menus_give_singletons(self):
        sets, preds = info_sets(simple_sef(1), "i")
        assert len(sets) == 3
        assert all(len(p.random_moves) == 1 for p in sets)

    def test_shared_menu_merges_stage_two(self):
        sef = simple_sef(2)
        sets, preds = info_sets(sef, "i")
        sizes = sorted(len(p.random_moves) for p in sets)
        assert sizes == [1, 2]
        merged = next(p for p in sets if len(p.random_moves) == 2)
        assert preds[merged] == frozenset().union(
            *[frozenset(m(w) for w in m.domain) for m in merged.random_moves])

    @pytest.mark.parametrize("sef", ALL_ROWS + ALL_VARIANTS + [AMD])
    def test_partition_properties(self, sef):
        # predecessor sets of choices tile the agent's moves; available
        # menus tile the choices; info sets biject onto predecessor sets
        for i in sef.agents:
            psets = {immediate_predecessors(sef.sdf.forest, c)
                     for c in sef.choices[i]}
            seen = set()
            for p in psets:
                assert not p & seen
                seen |= p
            assert seen == sef.moves_of(i)
            menus = {}
            for c in sef.choices[i]:
                menus.setdefault(immediate_predecessors(sef.sdf.forest, c),
                                 set()).add(c)
            assert frozenset().union(*menus.values()) == sef.choices[i]
            sets, preds = info_sets(sef, i)
            assert {preds[p] for p in sets} == psets
            assert len({preds[p] for p in sets}) == len(sets)
            for p in sets:
                domains = {m.domain for m in p.random_moves}
                assert len(domains) == 1
                assert len({sef.info[i][m] for m in p.random_moves}) == 1


class TestRecallAndInformation:
    EXPECTED = {
        1: (True, True, False), 2: (False, False, False),
        3: (True, True, False), 4: (False, False, False),
        5: (True, True, False), 6: (True, True, False),
        7: (True, True, True), 8: (False, False, True),
    }

    @pytest.mark.parametrize("row", sorted(SIMPLE_SEF_ROWS))
    def test_row_flags(self, row):
        flags = check_recall_and_info(simple_sef(row), "i")
        endo_recall, endo_info, exo_info = self.EXPECTED[row]
        assert flags["endogenous_recall"] == endo_recall
        assert flags["perfect_endogenous_info"] == endo_info
        assert flags["perfect_exogenous_info"] == exo_info
        assert flags["exogenous_recall"]

    def test_amd_flags(self):
        for i in AMD.agents:
            flags = check_recall_and_info(AMD, i)
            assert flags["endogenous_recall"]
            assert flags["exogenous_recall"]
            assert flags["perfect_endogenous_info"]
            assert not flags["perfect_exogenous_info"]

    @pytest.mark.parametrize("sef", ALL_ROWS + ALL_VARIANTS + [AMD])
    def test_perfect_information_implies_perfect_recall(self, sef):
        for i in sef.agents:
            flags = check_recall_and_info(sef, i)
            if flags["perfect_endogenous_info"] and \
                    flags["perfect_exogenous_info"]:
                assert flags["endogenous_recall"]
                assert flags["exogenous_recall"]


class TestHeraclitus:
    @pytest.mark.parametrize("sef", ALL_ROWS + ALL_VARIANTS + [AMD])
    def test_no_ordered_pair_shares_choices(self, sef):
        ok, witnesses = check_heraclitus(sef)
        assert ok and not witnesses

    def test_choice_spanning_two_levels_detected(self):
        # a pseudo structure whose single choice is offered both at a node
        # and at a strict ancestor; assembled without validation on purpose
        forest = DecisionForest("abc", [{"a", "b", "c"}, {"a", "b"},
                                        {"a"}, {"b"}, {"c"}])
        projection = {x: "w" for x in forest.nodes}
        top = RandomMove({"w": frozenset("abc")})
        mid = RandomMove({"w": frozenset("ab")})
        sdf = StochasticDecisionForest(forest, ("w",), projection, [top, mid])
        pseudo = unvalidated((sdf, ("i",), {"i": {top, mid}}, {"i": {}},
                              {"i": {}}, {"i": [{"a", "c"}]}))
        ok, witnesses = check_heraclitus(pseudo)
        assert not ok
        assert any(w[1] == frozenset("abc") and w[2] == frozenset("ab")
                   for w in witnesses if isinstance(w[1], frozenset))


class TestCompleteness:
    @pytest.mark.parametrize("sef", ALL_ROWS + ALL_VARIANTS + [AMD] + [
        load_example(name)[0] for name in
        ("amd", "mp-case1", "mp-case2", "mp-case3", "mp-case4")])
    def test_valid_forms_are_fixed_points(self, sef):
        completed = complete_choices(sef)
        for i in sef.agents:
            assert completed.choices[i] == sef.choices[i]

    def test_restores_dropped_choice(self):
        sdf, moves = simple_sdf()
        full = simple_sef(3)
        dropped = simple_choice_second("1", {"o1": "1", "o2": "2"})
        assert dropped in full.choices["i"]
        reduced = {"i": full.choices["i"] - {dropped}}
        with pytest.raises(StructureError):
            StochasticExtensiveForm(sdf, ("i",), full.agent_moves, full.info,
                                    full.refchoices, reduced)
        partial = StochasticExtensiveForm(sdf, ("i",), full.agent_moves,
                                          full.info, full.refchoices, reduced,
                                          allow_incomplete=True)
        completed = complete_choices(partial)
        assert completed.choices["i"] == full.choices["i"]


class TestStrategies:
    def test_counts(self):
        assert len(strategies(simple_sef(1), "i")) == 8
        assert len(strategies(simple_sef(2), "i")) == 4
        assert all(len(strategies(AMD, i)) == 2 for i in AMD.agents)

    def test_empty_menu_yields_no_strategy_within_budget(self, monkeypatch):
        # a 4-outcome comb whose bottom move lost both children's choices,
        # assembled without validation on purpose: menus (0, 2, 2) give
        # no strategy, and counting nothing fits any budget
        sdf, agents, agent_moves, info, refchoices, choices = comb_parts(4)
        bottom = frozenset({"w:2", "w:3"})
        kept = {c for c in choices["i"] if not c < bottom}
        pseudo = unvalidated((sdf, agents, agent_moves, info, refchoices,
                              {"i": kept}))
        sets, _ = info_sets(pseudo, "i")
        assert sorted(len(pseudo.available_at("i", next(iter(p.random_moves))))
                      for p in sets) == [0, 2, 2]
        monkeypatch.setenv("EXFORM_BUDGET", "3")
        assert strategies(pseudo, "i") == []

    def test_each_assignment_is_available(self):
        sef = simple_sef(7)
        for s in strategies(sef, "i"):
            for p, c in s.assignment.items():
                assert c in sef.available_at("i", next(iter(p.random_moves)))

    @pytest.mark.parametrize("form", ["infoset", "randommove", "move"])
    def test_conversion_shapes(self, form):
        sef = simple_sef(2)
        s = strategies(sef, "i")[0]
        table = convert_strategy(sef, s, form)
        expected = {"infoset": 2, "randommove": 3, "move": 6}
        assert len(table) == expected[form]

    def test_move_level_round_trip(self):
        sef = simple_sef(1)
        for s in strategies(sef, "i"):
            table = convert_strategy(sef, s, "move")
            back = strategy_from_moves(sef, "i", table)
            assert back.assignment == s.assignment

    def test_inconstant_move_assignment_rejected(self):
        from exform.errors import InputError
        sef = simple_sef(2)
        s = strategies(sef, "i")[0]
        table = dict(convert_strategy(sef, s, "move"))
        merged = next(p for p in s.assignment if len(p.random_moves) == 2)
        x = next(iter(merged.moves()))
        other = next(c for c in sef.available_at_move("i", x)
                     if c != s.assignment[merged])
        table[x] = other
        with pytest.raises(InputError):
            strategy_from_moves(sef, "i", table)


    def test_a_move_without_a_choice_is_named(self):
        # the empty map, and the map of a strategy short of one move
        sef = load_example("simple")[0]
        table = convert_strategy(sef, strategies(sef, "i")[0], "move")
        with pytest.raises(InputError, match=re.escape(
                f"no choice at the moves {canonical_text(set(table))}")):
            strategy_from_moves(sef, "i", {})
        for x in table:
            rest = {x2: c for x2, c in table.items() if x2 != x}
            with pytest.raises(InputError, match=re.escape(
                    f"no choice at the moves {canonical_text({x})}")):
                strategy_from_moves(sef, "i", rest)


class TestSplitSelves:
    def test_one_self_per_information_set(self):
        split, _ = split_selves(simple_sef(1))
        assert len(split.agents) == 3
        assert split.report.valid
        for i in split.agents:
            sets, _ = info_sets(split, i)
            assert len(sets) == 1

    def test_amd_is_already_split(self):
        split, eu = split_selves(AMD, eu={1: "u1", 2: "u2"})
        assert sorted(split.agents) == [(1, 0), (2, 0)]
        assert split.choices[(1, 0)] == AMD.choices[1]
        assert eu == {(1, 0): "u1", (2, 0): "u2"}


def simple_ap_data():
    paths = frozenset(
        (w, ((a,), (b,)))
        for w in SIMPLE_SCENARIOS for a in "12" for b in "12")
    return ActionPathData(agents=("i",), actions={"i": ("1", "2")},
                          times=(0, 1), scenarios=SIMPLE_SCENARIOS,
                          paths=paths)


def label(w, f):
    return f"{w}:" + "".join(p[0] for p in f)


P1 = (("1",),)
P2 = (("2",),)


def simple_ap_inputs(merge_stage_two):
    data = simple_ap_data()
    if merge_stage_two:
        hist = {"i": {0: [{()}], 1: [{P1, P2}]}}
    else:
        hist = {"i": {0: [{()}], 1: [{P1}, {P2}]}}
    info = {"i": {(0, ()): TRIVIAL, (1, P1): TRIVIAL, (1, P2): TRIVIAL}}
    return data, info, hist


def three_period_inputs():
    """One agent deciding at each of three periods, singleton histories."""
    paths = frozenset(
        ("w", ((a,), (b,), (c,))) for a in "12" for b in "12" for c in "12")
    data = ActionPathData(agents=("i",), actions={"i": ("1", "2")},
                          times=(0, 1, 2), scenarios=("w",), paths=paths)
    prefixes = {t: sorted({f[:t] for (_, f) in paths}) for t in (0, 1, 2)}
    hist = {"i": {t: [{p} for p in prefixes[t]] for t in (0, 1, 2)}}
    point = frozenset({frozenset({"w"})})
    info = {"i": {(t, p): point for t in (0, 1, 2) for p in prefixes[t]}}
    return data, info, hist


def one_shot_inputs():
    """Two agents moving once, simultaneously, in one scenario."""
    paths = frozenset(("w", ((a, b),)) for a in "12" for b in "12")
    data = ActionPathData(agents=("a", "b"),
                          actions={"a": ("1", "2"), "b": ("1", "2")},
                          times=(0,), scenarios=("w",), paths=paths)
    point = frozenset({frozenset({"w"})})
    hist = {i: {0: [{()}]} for i in "ab"}
    info = {i: {(0, ()): point} for i in "ab"}
    return data, info, hist


def one_period_inputs(n, discrete, actions=("1", "2")):
    """One agent, one time, n scenarios each admitting every action, and
    one history block with trivial or discrete information."""
    scenarios = tuple(f"w{k}" for k in range(n))
    data = ActionPathData(
        agents=("i",), actions={"i": actions}, times=(0,),
        scenarios=scenarios,
        paths=frozenset((w, ((a,),)) for w in scenarios for a in actions))
    info = frozenset(frozenset({w}) for w in scenarios) if discrete \
        else frozenset({frozenset(scenarios)})
    return data, {"i": {(0, ()): info}}, {"i": {0: [{()}]}}


def two_agent_inputs(periods=3, n=4):
    """Two agents with actions {1, 2} moving simultaneously at each period
    in n scenarios that admit every path, singleton histories and trivial
    information."""
    scenarios = tuple(f"w{k}" for k in range(n))
    profiles = list(itertools.product("12", repeat=2))
    paths = frozenset((w, f) for w in scenarios
                      for f in itertools.product(profiles, repeat=periods))
    data = ActionPathData(agents=("a", "b"),
                          actions={"a": ("1", "2"), "b": ("1", "2")},
                          times=tuple(range(periods)), scenarios=scenarios,
                          paths=paths)
    prefixes = {t: sorted({f[:t] for (_, f) in paths}) for t in data.times}
    trivial = frozenset({frozenset(scenarios)})
    hist = {i: {t: [{p} for p in prefixes[t]] for t in data.times}
            for i in "ab"}
    info = {i: {(t, p): trivial for t in data.times for p in prefixes[t]}
            for i in "ab"}
    return data, info, hist


# --- the path scans and brute-force searches of the action-path construction
# before its (scenario, prefix) index and the adapted-union engine, kept
# verbatim as oracles ---------------------------------------------------------

def oracle_node(data, w, prefix):
    """The outcomes of scenario w whose paths start with the prefix."""
    k = len(prefix)
    return frozenset((v, g) for (v, g) in data.paths
                     if v == w and g[:k] == prefix)


def oracle_forest(data):
    """The nodes and the timing map of the induced forest."""
    nodes = set()
    for (w, f) in data.paths:
        nodes.add(frozenset({(w, f)}))
        for t in data.times:
            nodes.add(data.node(w, data.prefix(f, t)))
    timing = {}
    moves = {x for x in nodes if len(x) > 1}
    for t in data.times:
        seen = {}
        for (w, f) in data.paths:
            prefix = data.prefix(f, t)
            node = data.node(w, prefix)
            if node not in moves:
                continue
            seen.setdefault(prefix, {})[w] = node
        for assignment in seen.values():
            timing[RandomMove(assignment)] = t
    return nodes, timing


def oracle_agent_choice_domain(data, agent, prefix, t):
    """
    Scenarios in which the agent has a real decision at the given time
    after the given strict prefix: two continuations must differ in the
    agent's action component.
    """
    idx = data.agents.index(agent)
    k = data.times.index(t)
    domain = set()
    for w in data.scenarios:
        seen = {f[k][idx] for (v, f) in data.paths
                if v == w and f[:k] == prefix}
        if len(seen) >= 2:
            domain.add(w)
    return frozenset(domain)


def oracle_in_ct(data, c, t):
    """Membership in the time-t choice family: nonempty, a real
    alternative everywhere, and all-or-nothing on undecided scenarios."""
    if not c:
        return False
    k = data.times.index(t)
    for (w, f) in c:
        if data.node(w, f[:k]) <= c:
            return False
    prefixes = {f[:k] for (_, f) in c}
    for prefix in prefixes:
        hit = set()
        miss = set()
        for (w, f) in data.paths:
            if f[:k] != prefix:
                continue
            node = data.node(w, prefix)
            if len(node) < 2:
                continue
            (hit if node & c else miss).add(w)
        if hit and miss:
            return False
    return True


def oracle_ap_choice(data, blocks, t, agent, g):
    """The set c(A_{<t}, i, g) for a block of prefixes and a partial map g."""
    k = data.times.index(t)
    idx = data.agents.index(agent)
    return frozenset(
        (w, f) for (w, f) in data.paths
        if f[:k] in blocks and w in g and f[k][idx] == g[w])


def oracle_rich_enough(data, c, blocks, t, domain):
    """Every (scenario, prefix) pair from the data must be realized in c."""
    k = data.times.index(t)
    for w in domain:
        for prefix in blocks:
            if not any(v == w and f[:k] == prefix for (v, f) in c):
                return False
    return True


def oracle_check_2(data, hist):
    """Every realized action must extend to an admissible adapted choice:
    a search over every map from the decision domain to the actions."""
    for i in data.agents:
        idx = data.agents.index(i)
        for (w, f) in data.paths:
            for t in data.times:
                k = data.times.index(t)
                prefix = f[:k]
                domain = oracle_agent_choice_domain(data, i, prefix, t)
                if w not in domain:
                    continue
                block = next(frozenset(b) for b in hist[i][t] if prefix in b)
                found = False
                for g_vals in itertools.product(data.actions[i],
                                                repeat=len(domain)):
                    g = dict(zip(sorted(domain, key=repr), g_vals))
                    if g[w] != f[k][idx]:
                        continue
                    c = oracle_ap_choice(data, block, t, i, g)
                    if oracle_in_ct(data, c, t) and \
                            oracle_rich_enough(data, c, block, t, domain):
                        found = True
                        break
                if not found:
                    raise APSEFAxiomViolation(2, (i, w, t))


def oracle_separation(data):
    """The separation check the construction ran after check 2: a first
    within-window disagreement decidable by an agent.  It never fails, so
    the construction no longer runs it."""
    for (w, f) in data.paths:
        for (v, f2) in data.paths:
            if v != w or f == f2:
                continue
            for k0, t0 in enumerate(data.times):
                if f[k0] == f2[k0]:
                    continue
                ok = False
                for k in range(k0 + 1):
                    t = data.times[k]
                    for i in data.agents:
                        idx = data.agents.index(i)
                        if f[k][idx] == f2[k][idx]:
                            continue
                        if w in oracle_agent_choice_domain(
                                data, i, f[:k], t) and \
                                w in oracle_agent_choice_domain(
                                    data, i, f2[:k], t):
                            ok = True
                if not ok:
                    raise APSEFAxiomViolation(3, (w, f, f2, t0))


def oracle_choices(data, hist, i, sdf, my_info, my_refs, mine):
    """The agent's choices: a search over every partial map from the
    scenarios to the actions, per history block."""
    mine_choices = set()
    for t in data.times:
        for block in hist[i].get(t, ()):
            block = frozenset(block)
            options = sorted(data.actions[i]) + [None]
            for combo in itertools.product(options,
                                           repeat=len(sdf.scenarios)):
                g = {w: a for w, a in zip(sdf.scenarios, combo)
                     if a is not None}
                if not g:
                    continue
                c = oracle_ap_choice(data, block, t, i, g)
                if not oracle_in_ct(data, c, t):
                    continue
                if not oracle_rich_enough(data, c, block, t, g):
                    continue
                if not check_adapted(sdf, c, my_info, my_refs, mine):
                    continue
                mine_choices.add(c)
    return frozenset(mine_choices)


def assert_indexed_as_scanned(data, hist):
    """
    The readers of the (scenario, prefix) index, and the choice-family
    test and slices of check 1 and the reference choices, as their
    scanning oracles read them: every node, every decision domain, the
    induced forest and timing, and each single-action candidate of every
    block and of each prefix.
    """
    for t in data.times:
        k = data.times.index(t)
        assert data.prefixes(t) == {f[:k] for (_, f) in data.paths}
        for prefix in data.prefixes(t):
            for w in data.scenarios:
                assert data.node(w, prefix) == oracle_node(data, w, prefix)
            for i in data.agents:
                assert actionpath.agent_choice_domain(data, i, prefix, t) \
                    == oracle_agent_choice_domain(data, i, prefix, t)
    for i in data.agents:
        for t in data.times:
            for block in hist.get(i, {}).get(t, ()):
                for prefixes in [block] + [{p} for p in block]:
                    for g in ({w: a for w in data.scenarios}
                              for a in data.actions[i]):
                        c = oracle_ap_choice(data, prefixes, t, i, g)
                        assert actionpath._ap_choice(
                            data, prefixes, t, i, g) == c
                        assert actionpath._in_ct(data, c, t) \
                            == oracle_in_ct(data, c, t)
    try:
        sdf, timing = actionpath.build_action_path_sdf(data, False)
    except APAxiomViolation:
        return
    assert (sdf.forest.nodes, timing) == oracle_forest(data)


def assert_as_oracle(data, info, hist):
    """
    Build the form, holding check 2's verdict, axiom and witness, and each
    agent's choices, to the oracles; past check 2 the separation oracle
    passes, and the choices are compared, the form valid or not.  Returns
    the last stage compared: "before check 2", "check 2" or "choices".
    """
    built = []

    def form(*args):
        built.append(args)
        return StochasticExtensiveForm(*args)

    error = None
    with mock.patch.object(actionpath, "StochasticExtensiveForm", form):
        try:
            build_action_path_sef(data, info, hist)
        except ExformError as err:
            error = err
    axiom = getattr(error, "axiom", None)
    if isinstance(error, InputError) or axiom in ("history", "history-info",
                                                  0, 1):
        return "before check 2"
    if axiom == 2:
        with pytest.raises(APSEFAxiomViolation) as exc:
            oracle_check_2(data, hist)
        assert (exc.value.axiom, exc.value.witness) == (2, error.witness)
        return "check 2"
    oracle_check_2(data, hist)
    oracle_separation(data)
    assert built, error
    sdf, agents, agent_moves, move_info, refchoices, choices = built[0]
    for i in agents:
        assert choices[i] == oracle_choices(data, hist, i, sdf, move_info[i],
                                            refchoices[i], agent_moves[i])
    return "choices"


class TestActionPathForms:
    @pytest.mark.parametrize("merge,row", [(False, 1), (True, 2)])
    def test_matches_direct_construction(self, merge, row):
        data, info, hist = simple_ap_inputs(merge)
        sef, timing, index = build_action_path_sef(data, info, hist)
        assert sef.report.valid
        relabelled = {frozenset(label(w, f) for (w, f) in c)
                      for c in sef.choices["i"]}
        assert relabelled == set(simple_sef(row).choices["i"])

    @pytest.mark.parametrize("merge,blocks", [(False, 3), (True, 2)])
    def test_information_sets_match_history_blocks(self, merge, blocks):
        data, info, hist = simple_ap_inputs(merge)
        sef, _, index = build_action_path_sef(data, info, hist)
        sets, _ = info_sets(sef, "i")
        assert len(sets) == blocks

    def test_index_recovers_every_move(self):
        data, info, hist = simple_ap_inputs(False)
        sef, timing, index = build_action_path_sef(data, info, hist)
        assert set(index.values()) == set(sef.sdf.random_moves)
        assert set(index) == {(0, ()), (1, P1), (1, P2)}
        assert all(timing[m] == t for (t, _), m in index.items())

    def test_three_period_singleton_histories(self):
        data, info, hist = three_period_inputs()
        sef, timing, index = build_action_path_sef(data, info, hist)
        assert sef.report.valid
        assert len(sef.sdf.random_moves) == 7
        assert len(sef.choices["i"]) == 14
        sets, _ = info_sets(sef, "i")
        assert len(sets) == 7
        flags = classify_endogenous(data, hist, "i")
        assert flags == {"perfect_endogenous_recall": True,
                         "perfect_endogenous_info": True}

    def test_simultaneous_one_shot_game(self):
        data, info, hist = one_shot_inputs()
        sef, _, _ = build_action_path_sef(data, info, hist)
        assert sef.report.valid
        assert len(sef.choices["a"]) == len(sef.choices["b"]) == 2
        for i in "ab":
            flags = check_recall_and_info(sef, i)
            assert not flags["perfect_endogenous_info"]
            cls = classify_endogenous(data, hist, i)
            assert not cls["perfect_endogenous_info"]
            assert cls["perfect_endogenous_recall"]

    def test_decision_domains_are_shared(self):
        # wherever some agent has a real decision after a prefix, the
        # undecided scenarios of that prefix coincide with that agent's
        from exform.actionpath import _ap_domain_of_prefix, agent_choice_domain
        data, _, _ = simple_ap_inputs(False)
        for t in data.times:
            k = data.times.index(t)
            for prefix in {f[:k] for (_, f) in data.paths}:
                whole = _ap_domain_of_prefix(data, prefix)
                for i in data.agents:
                    mine = agent_choice_domain(data, i, prefix, t)
                    if mine:
                        assert mine == frozenset(whole)

    def test_incomplete_history_structure_rejected(self):
        data, info, hist = simple_ap_inputs(False)
        hist = {"i": {0: [{()}], 1: [{P1}]}}
        with pytest.raises(APSEFAxiomViolation) as exc:
            build_action_path_sef(data, info, hist)
        assert exc.value.axiom == "history"

    def test_blockmates_must_share_information(self):
        data, info, hist = simple_ap_inputs(True)
        info = {"i": {(0, ()): TRIVIAL, (1, P1): TRIVIAL, (1, P2): DISCRETE}}
        with pytest.raises(APSEFAxiomViolation) as exc:
            build_action_path_sef(data, info, hist)
        assert exc.value.axiom == "history-info"

    def test_classification_agrees_with_direct_flags(self):
        for merge, row in [(False, 1), (True, 2)]:
            data, info, hist = simple_ap_inputs(merge)
            cls = classify_endogenous(data, hist, "i")
            direct = check_recall_and_info(simple_sef(row), "i")
            assert cls["perfect_endogenous_recall"] == \
                direct["endogenous_recall"]
            assert cls["perfect_endogenous_info"] == \
                direct["perfect_endogenous_info"]


def incomplete_history_inputs():
    data, info, _ = simple_ap_inputs(False)
    return data, info, {"i": {0: [{()}], 1: [{P1}]}}


def unshared_information_inputs():
    data, _, hist = simple_ap_inputs(True)
    return data, {"i": {(0, ()): TRIVIAL, (1, P1): TRIVIAL,
                        (1, P2): DISCRETE}}, hist


def unmatched_block_inputs():
    """One agent whose block at time 1 merges a prefix where it can take
    1 or 2 with one where it can take 2 or 3: only 2 extends to a choice,
    so the realized 1 fails check 2."""
    paths = frozenset(("w", ((a,), (b,))) for a, bs in (("1", "12"),
                                                       ("2", "23"))
                      for b in bs)
    data = ActionPathData(agents=("i",), actions={"i": ("1", "2", "3")},
                          times=(0, 1), scenarios=("w",), paths=paths)
    point = frozenset({frozenset({"w"})})
    hist = {"i": {0: [{()}], 1: [{P1, P2}]}}
    info = {"i": {(0, ()): point, (1, P1): point, (1, P2): point}}
    return data, info, hist


def unequal_domains_inputs():
    """One agent whose block at time 1 merges a prefix it decides in one
    scenario with one it decides in both: no choice at the first prefix
    is all-or-nothing on the second's scenarios, so check 2 fails."""
    paths = frozenset({("w0", (("1",), ("1",))), ("w0", (("1",), ("2",))),
                       ("w1", (("1",), ("1",)))}
                      | {(w, (("2",), (b,))) for w in ("w0", "w1")
                         for b in "12"})
    data = ActionPathData(agents=("i",), actions={"i": ("1", "2")},
                          times=(0, 1), scenarios=("w0", "w1"), paths=paths)
    trivial = frozenset({frozenset({"w0", "w1"})})
    hist = {"i": {0: [{()}], 1: [{P1, P2}]}}
    info = {"i": {(0, ()): trivial, (1, P1): trivial, (1, P2): trivial}}
    return data, info, hist


class TestActionPathOracle:
    """The choices and check 2 of the construction against the searches
    it retired (``oracle_choices``, ``oracle_check_2``)."""

    @pytest.mark.parametrize("inputs,stage", [
        (lambda: simple_ap_inputs(False), "choices"),
        (lambda: simple_ap_inputs(True), "choices"),
        (three_period_inputs, "choices"),
        (one_shot_inputs, "choices"),
        (lambda: one_period_inputs(3, True, ("1", "2", "3")), "choices"),
        (unmatched_block_inputs, "check 2"),
        (unequal_domains_inputs, "check 2"),
        (incomplete_history_inputs, "before check 2"),
        (unshared_information_inputs, "before check 2"),
    ], ids=["simple", "simple-merged", "three-periods", "one-shot",
            "three-actions", "unmatched-block", "unequal-domains",
            "incomplete-history", "unshared-information"])
    def test_existing_inputs(self, inputs, stage):
        assert assert_as_oracle(*inputs()) == stage

    def test_drawn_inputs(self):
        stages = Counter()

        @settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
        @given(action_path_inputs())
        def run(inputs):
            assert_indexed_as_scanned(inputs[0], inputs[2])
            stages[assert_as_oracle(*inputs)] += 1

        run()
        # enough draws reach check 2 and the choices; the few that fail
        # check 2 (1 to 21 of 300 in random runs) vary with the draw, and
        # the inputs above fail it on purpose
        assert stages["choices"] >= 100, stages
        assert stages["choices"] + stages["check 2"] >= 150, stages


class TestActionPathBudget:
    def test_twenty_scenarios_decide_at_once(self):
        start = time.perf_counter()
        sef, _, _ = build_action_path_sef(*one_period_inputs(20, False))
        assert time.perf_counter() - start < 2
        assert len(sef.choices["i"]) == 2

    def test_eleven_scenarios_decide_at_a_budget_of_100(self, monkeypatch):
        monkeypatch.setenv("EXFORM_BUDGET", "100")
        sef, _, _ = build_action_path_sef(*one_period_inputs(11, False))
        assert len(sef.choices["i"]) == 2

    def test_seventeen_discrete_scenarios_exceed_the_budget(self):
        # 2^17 adapted unions, more than the default cap of the join
        with pytest.raises(BudgetExceeded, match="adapted-choice"):
            build_action_path_sef(*one_period_inputs(17, True))

    def test_twelve_discrete_scenarios_decide(self):
        sef, _, _ = build_action_path_sef(*one_period_inputs(12, True))
        assert len(sef.choices["i"]) == 2 ** 12

    def test_two_agents_over_three_periods(self):
        # 21 moves per agent, each with one choice per action
        sef, _, _ = build_action_path_sef(*two_agent_inputs())
        assert len(sef.choices["a"]) == len(sef.choices["b"]) == 42

    def test_reference_action_sets_are_counted(self, monkeypatch):
        # 2^12 action sets at the one move, 12 joint profiles before them
        inputs = one_period_inputs(1, False, tuple(f"a{k}" for k in range(12)))
        monkeypatch.setenv("EXFORM_BUDGET", "1000")
        with pytest.raises(BudgetExceeded, match="reference-choice"):
            build_action_path_sef(*inputs)
        monkeypatch.delenv("EXFORM_BUDGET")
        sef, _, _ = build_action_path_sef(*inputs)
        assert len(sef.choices["i"]) == 12


def without_info_key():
    data, info, hist = simple_ap_inputs(False)
    del info["i"][(0, ())]
    return data, info, hist


def without_info_agent():
    data, _, hist = simple_ap_inputs(False)
    return data, {}, hist


def without_hist_agent():
    data, info, _ = simple_ap_inputs(False)
    return data, info, {}


class TestMalformedActionPathInput:
    @pytest.mark.parametrize("agents,times,match", [
        (("i", "j"), (0,), "'j'"),
        (("i",), (0, 0), "strictly increasing"),
    ], ids=["agent-without-actions", "repeated-time"])
    def test_malformed_data(self, agents, times, match):
        profile = ("1",) * len(agents)
        with pytest.raises(InputError, match=match):
            ActionPathData(agents=agents, actions={"i": ("1", "2")},
                           times=times, scenarios=("w",),
                           paths=frozenset({("w", (profile,) * len(times))}))

    @pytest.mark.parametrize("inputs,error,match", [
        (without_info_key, InputError, r"\(0, \(\)\)"),
        (without_info_agent, InputError, "'i'"),
        (without_hist_agent, APSEFAxiomViolation, "history"),
    ], ids=["info-key", "info-agent", "hist-agent"])
    def test_missing_entries(self, inputs, error, match):
        with pytest.raises(error, match=match) as exc:
            build_action_path_sef(*inputs())
        if error is APSEFAxiomViolation:
            assert exc.value.axiom == "history"
