import pytest

from conftest import comb_parts
from exform._util import powerset
from exform.actionpath import (
    ActionPathData,
    build_action_path_sef,
    classify_endogenous,
)
from exform.errors import APSEFAxiomViolation, StructureError
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


class TestAmdChoices:
    @pytest.mark.parametrize("atoms", range(3, 9))
    def test_choice_sets_as_before(self, atoms):
        sef, _ = amd_sef(atoms)
        for agent in sef.agents:
            oracle = amd_choices_oracle(atoms, agent)
            assert sef.choices[agent] == frozenset(oracle.values())
            assert len(sef.choices[agent]) == 2 ** atoms

    @pytest.mark.parametrize("agent", [1, 2])
    def test_event_choice_as_before(self, agent):
        for event, choice in amd_choices_oracle(3, agent).items():
            assert amd_event_choice(3, agent, event) == choice


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
        pseudo = object.__new__(StochasticExtensiveForm)
        pseudo._store(sdf, ("i",), {"i": {top, mid}}, {"i": {}}, {"i": {}},
                      {"i": [{"a", "c"}]})
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
        pseudo = object.__new__(StochasticExtensiveForm)
        pseudo._store(sdf, agents, agent_moves, info, refchoices, {"i": kept})
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
        paths = frozenset(
            ("w", ((a,), (b,), (c,))) for a in "12" for b in "12" for c in "12")
        data = ActionPathData(agents=("i",), actions={"i": ("1", "2")},
                              times=(0, 1, 2), scenarios=("w",), paths=paths)
        prefixes = {t: sorted({f[:t] for (_, f) in paths}) for t in (0, 1, 2)}
        hist = {"i": {t: [{p} for p in prefixes[t]] for t in (0, 1, 2)}}
        point = frozenset({frozenset({"w"})})
        info = {"i": {(t, p): point for t in (0, 1, 2) for p in prefixes[t]}}
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
        paths = frozenset(("w", ((a, b),)) for a in "12" for b in "12")
        data = ActionPathData(agents=("a", "b"),
                              actions={"a": ("1", "2"), "b": ("1", "2")},
                              times=(0,), scenarios=("w",), paths=paths)
        point = frozenset({frozenset({"w"})})
        hist = {i: {0: [{()}]} for i in "ab"}
        info = {i: {(0, ()): point} for i in "ab"}
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
                whole = _ap_domain_of_prefix(data, prefix, t)
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
