import re

import pytest

from conftest import make_rng, random_strict_sef, stdout_across_hash_seeds
from exform._util import canonical, canonical_text
from exform.actionpath import (
    ActionPathData,
    build_action_path_sdf,
    eis_from_filtration,
    timing_map,
)
from exform.errors import (
    APAxiomViolation,
    BudgetExceeded,
    ChoiceError,
    NotOrderConsistent,
    StructureError,
)
from exform.forest import (
    DecisionForest,
    immediate_predecessors,
    is_union_of_nodes,
)
from exform.instances import (
    EXAMPLES,
    SIMPLE_SCENARIOS,
    amd_sdf,
    amd_sef,
    load_example,
    scenario_maps,
    simple_choice_first,
    simple_choice_second,
    simple_choice_second_any,
    simple_reference_choices,
    simple_sdf,
    simple_split_sdf,
    simple_variant_sdf,
)
from exform.adapted import check_adapted
from exform.order import is_forest, roots_and_components
from exform.sdf import (
    RandomMove,
    SDFReport,
    StochasticDecisionForest,
    check_flags,
    check_recall,
    enumerate_recall_structures,
    induced_tree,
    is_available_at,
    is_complete,
    is_non_redundant,
    merge_random_moves,
    preimage,
    validate_reference_choices,
    validate_sdf,
    xgeq,
)

EXAMPLE_NAMES = sorted(EXAMPLES)
TRIV = frozenset({frozenset({"o1", "o2"})})
DISC = frozenset({frozenset({"o1"}), frozenset({"o2"})})


@pytest.fixture(scope="module")
def simple():
    return simple_sdf()


@pytest.fixture(scope="module")
def variant():
    return simple_variant_sdf()


@pytest.fixture(scope="module")
def amd():
    return amd_sdf()


class TestValidation:
    def test_bundled_instances_valid(self, simple, variant, amd):
        for sdf, _ in (simple, variant, amd):
            report = validate_sdf(sdf.forest, sdf.scenarios, sdf.projection,
                                  sdf.random_moves)
            assert report.valid

    def test_report_carries_roots_outside_its_verdict(self, amd):
        # the constructor indexes the roots validation found; they stay
        # out of the report's equality and repr
        sdf, _ = amd
        report = validate_sdf(sdf.forest, sdf.scenarios, sdf.projection,
                              sdf.random_moves)
        assert report == SDFReport(True)
        assert repr(report) == "SDFReport(valid=True, violations=())"
        assert {sdf.projection[r]: r for r in report.roots} \
            == {w: sdf.root_of(w) for w in sdf.scenarios}
        assert list(sdf._root) == list(sdf.scenarios)

    def test_terminal_valued_section_rejected(self, simple):
        sdf, _ = simple
        bad = RandomMove({"o1": frozenset({"o1:11"})})
        report = validate_sdf(sdf.forest, sdf.scenarios, sdf.projection,
                              set(sdf.random_moves) | {bad})
        assert not report.valid
        assert any(v[0] == "random_moves" for v in report.violations)

    def test_uncovered_move_rejected(self, simple):
        sdf, (x0, x1, x2) = simple
        report = validate_sdf(sdf.forest, sdf.scenarios, sdf.projection,
                              [x0, x1])
        assert not report.valid
        assert any(v[0] == "covering" for v in report.violations)

    def test_non_section_rejected(self, simple):
        sdf, (x0, x1, x2) = simple
        crossed = RandomMove({"o1": x1("o2"), "o2": x1("o1")})
        report = validate_sdf(sdf.forest, sdf.scenarios, sdf.projection,
                              [x0, crossed, x2])
        assert not report.valid
        assert any(v[:1] == ("random_moves",) for v in report.violations)

    def test_component_splitting_projection_rejected(self, simple):
        sdf, _ = simple
        projection = dict(sdf.projection)
        projection[frozenset({"o1:11"})] = "o2"
        report = validate_sdf(sdf.forest, sdf.scenarios, projection,
                              sdf.random_moves)
        assert not report.valid

    def test_constructor_raises_on_invalid(self, simple):
        sdf, (x0, x1, x2) = simple
        with pytest.raises(StructureError):
            StochasticDecisionForest(sdf.forest, sdf.scenarios,
                                     sdf.projection, [x0, x1])

    def test_least_node_off_the_projection_is_reported(self, simple):
        # two nodes off the projection and one fibre split: only the least
        # node off it is listed, whatever the order of the node set
        sdf, _ = simple
        projection = dict(sdf.projection)
        for x in ("o2:22", "o1:21"):
            del projection[frozenset({x})]
        projection[frozenset({"o2:11"})] = "o1"
        report = validate_sdf(sdf.forest, sdf.scenarios, projection,
                              sdf.random_moves)
        assert report.violations == (("projection", (
            "not total / out of range", frozenset({"o1:21"}))),)
        with pytest.raises(StructureError, match=re.escape(
                "invalid SDF: ('projection', ('not total / out of range', "
                "['o1:21']))")):
            StochasticDecisionForest(sdf.forest, sdf.scenarios, projection,
                                     sdf.random_moves)

    def test_violations_by_kind_then_payload(self, simple):
        sdf, (x0, x1, x2) = simple
        bad = RandomMove({"o1": frozenset({"o1:11"})})
        report = validate_sdf(sdf.forest, sdf.scenarios, sdf.projection,
                              [bad, x0])
        assert report.violations == (
            ("random_moves", ("value is not a move", "o1",
                              frozenset({"o1:11"}))),
            ("covering", ("uncovered move", frozenset({"o1:11", "o1:12"}))),
            ("covering", ("uncovered move", frozenset({"o1:21", "o1:22"}))),
            ("covering", ("uncovered move", frozenset({"o2:11", "o2:12"}))),
            ("covering", ("uncovered move", frozenset({"o2:21", "o2:22"}))))


class TestOrderOnSections:
    def test_root_dominates_stage_two(self, simple):
        _, (x0, x1, x2) = simple
        assert xgeq(x0, x1) and xgeq(x0, x2)
        assert not xgeq(x1, x0)
        assert not xgeq(x1, x2) and not xgeq(x2, x1)

    def test_restriction_is_below(self, simple):
        _, (x0, _, _) = simple
        assert xgeq(x0, x0.restricted({"o1"}))


class TestFlags:
    def test_simple_fully_well_behaved(self, simple):
        sdf, _ = simple
        flags = check_flags(sdf)
        assert flags.order_consistent
        assert flags.surely_nontrivial
        assert flags.maximal is True

    def test_variant_fully_well_behaved(self, variant):
        sdf, _ = variant
        flags = check_flags(sdf)
        assert (flags.order_consistent, flags.surely_nontrivial, flags.maximal) \
            == (True, True, True)

    def test_scenario_split_not_maximal(self):
        sdf = simple_split_sdf()
        flags = check_flags(sdf)
        assert flags.order_consistent
        assert flags.maximal is False
        assert "maximal" in flags.witnesses

    def test_amd_not_order_consistent(self, amd):
        sdf, (x1, x2) = amd
        flags = check_flags(sdf)
        assert not flags.order_consistent
        m1, m2, w = flags.witnesses["order_consistent"]
        assert {m1, m2} == {x1, x2}
        assert flags.maximal is None
        # the least failing triple, by a scan of every one
        failing = [(a, b, v) for a in sdf.random_moves
                   for b in sdf.random_moves for v in a.domain & b.domain
                   if a(v) >= b(v) and not xgeq(a, b)]
        assert (m1, m2, w) == min(failing, key=canonical) and len(failing) > 1

    def test_order_consistency_witness_across_hash_seeds(self):
        output = stdout_across_hash_seeds(["-c", (
            "from exform._util import canonical_text\n"
            "from exform.errors import NotOrderConsistent\n"
            "from exform.instances import amd_sdf\n"
            "from exform.sdf import check_flags, induced_tree\n"
            "sdf = amd_sdf()[0]\n"
            "m1, m2, w = check_flags(sdf).witnesses['order_consistent']\n"
            "print(canonical_text((m1.graph, m2.graph, w)))\n"
            "try:\n"
            "    induced_tree(sdf)\n"
            "except NotOrderConsistent as err:\n"
            "    print(err)\n")])
        assert output.splitlines()[0].endswith("'r1')")
        assert output.splitlines()[1].endswith("'r1')")

    def test_not_order_consistent_names_its_moves(self):
        # the two moves by their graphs, each node's outcomes in canonical
        # order, and the scenario where they fail
        output = stdout_across_hash_seeds(["-c", (
            "from exform.errors import NotOrderConsistent\n"
            "from exform.instances import amd_sdf\n"
            "from exform.sdf import induced_tree\n"
            "try:\n"
            "    induced_tree(amd_sdf()[0])\n"
            "except NotOrderConsistent as err:\n"
            "    print(err)\n")])
        assert output == (
            "witness pair: ((('r1', ['r1:D', 'r1:H', 'r1:M']), "
            "('r2', ['r2:H', 'r2:M'])), (('r1', ['r1:H', 'r1:M']), "
            "('r2', ['r2:D', 'r2:H', 'r2:M'])), 'r1')\n")

    def test_trivial_component_breaks_sure_nontriviality(self, simple):
        sdf, moves = simple
        outcomes = set(sdf.forest.outcomes) | {"o3:_"}
        nodes = set(sdf.forest.nodes) | {frozenset({"o3:_"})}
        forest = DecisionForest(outcomes, nodes)
        projection = dict(sdf.projection)
        projection[frozenset({"o3:_"})] = "o3"
        bigger = StochasticDecisionForest(forest, ("o1", "o2", "o3"),
                                          projection, moves)
        flags = check_flags(bigger)
        assert flags.order_consistent
        assert not flags.surely_nontrivial

    def test_merge_budget_raises(self, monkeypatch):
        # a merge search over its budget has decided nothing, so it raises
        # as every other search does, rather than report a value
        sdf = simple_split_sdf()
        monkeypatch.setenv("EXFORM_BUDGET", "3")
        with pytest.raises(BudgetExceeded, match="more than 3 candidate mergings"):
            check_flags(sdf)


class TestInducedTree:
    def test_simple_tree_shape(self, simple):
        sdf, (x0, x1, x2) = simple
        tree = induced_tree(sdf)
        assert len(tree.elements) == 11
        assert is_forest(tree)
        roots, components = roots_and_components(tree)
        assert roots == frozenset({x0})
        assert len(components) == 1

    def test_variant_tree_shape(self, variant):
        sdf, (x0, _, _) = variant
        tree = induced_tree(sdf)
        assert len(tree.elements) == 10
        roots, _ = roots_and_components(tree)
        assert roots == frozenset({x0})

    def test_evaluation_pair_counts(self, simple, variant):
        for (sdf, _), expected in ((simple, 14), (variant, 12)):
            tree = induced_tree(sdf)
            pairs = sum(len(y.domain) for y in tree.elements)
            assert pairs == expected

    def test_inconsistent_sdf_rejected(self, amd):
        sdf, _ = amd
        with pytest.raises(NotOrderConsistent):
            induced_tree(sdf)

    def test_split_sdf_lacks_root_section(self):
        sdf = simple_split_sdf()
        with pytest.raises(StructureError):
            induced_tree(sdf)


class TestRecall:
    def test_simple_admits_exactly_five_structures(self, simple):
        sdf, (x0, x1, x2) = simple
        found = enumerate_recall_structures(sdf, sdf.random_moves)
        assert len(found) == 5
        expected = [
            {x0: TRIV, x1: TRIV, x2: TRIV},
            {x0: TRIV, x1: DISC, x2: DISC},
            {x0: TRIV, x1: DISC, x2: TRIV},
            {x0: TRIV, x1: TRIV, x2: DISC},
            {x0: DISC, x1: DISC, x2: DISC},
        ]
        for structure in expected:
            assert structure in found

    def test_variant_admits_exactly_three_structures(self, variant):
        sdf, (x0, x1, x2) = variant
        found = enumerate_recall_structures(sdf, sdf.random_moves)
        assert len(found) == 3
        point = frozenset({frozenset({"o2"})})
        expected = [
            {x0: TRIV, x1: TRIV, x2: point},
            {x0: TRIV, x1: DISC, x2: point},
            {x0: DISC, x1: DISC, x2: point},
        ]
        for structure in expected:
            assert structure in found

    def test_losing_information_fails(self, simple):
        sdf, (x0, x1, x2) = simple
        assert not check_recall(sdf, {x0: DISC, x1: TRIV, x2: DISC},
                                sdf.random_moves)

    def test_budget_enforced(self, simple, monkeypatch):
        sdf, _ = simple
        monkeypatch.setenv("EXFORM_BUDGET", "2")
        with pytest.raises(BudgetExceeded):
            enumerate_recall_structures(sdf, sdf.random_moves)


class TestChoices:
    def test_predecessor_images(self, simple):
        sdf, (x0, x1, x2) = simple
        for f in scenario_maps():
            assert immediate_predecessors(sdf.forest, simple_choice_first(f)) \
                == x0.image
            for k in "12":
                m = x1 if k == "1" else x2
                assert immediate_predecessors(
                    sdf.forest, simple_choice_second(k, f)) == m.image
            assert immediate_predecessors(
                sdf.forest, simple_choice_second_any(f)) \
                == x1.image | x2.image

    def test_root_choice_is_redundant(self, simple):
        sdf, _ = simple
        assert not is_non_redundant(sdf, sdf.root_of("o1"))

    def test_reference_choices_validate(self, simple):
        sdf, moves = simple
        refs = simple_reference_choices(moves)
        validate_reference_choices(sdf, refs, moves)

    def test_availability_and_completeness(self, simple):
        sdf, (x0, x1, x2) = simple
        c = simple_choice_second("1", {"o1": "1", "o2": "2"})
        assert is_available_at(sdf, c, x1)
        assert not is_available_at(sdf, c, x2)
        assert is_complete(sdf, c, sdf.random_moves)
        assert is_non_redundant(sdf, c)

    def test_unavailable_reference_choice_rejected(self, simple):
        sdf, (x0, x1, x2) = simple
        refs = {x0: [simple_choice_second_any({"o1": "1", "o2": "1"})]}
        with pytest.raises(ChoiceError):
            validate_reference_choices(sdf, refs, [x0])

    def test_least_failing_reference_choice_reported(self, simple):
        # a failing choice at each move: the least (move, choice) is named,
        # in either order of the moves
        sdf, (x0, x1, x2) = simple
        refs = {x0: [{"o2:12", "o1:12", "z"}], x1: [{"y", "o1:11"}],
                x2: [frozenset()]}
        for moves in ([x0, x1, x2], [x2, x1, x0]):
            with pytest.raises(ChoiceError, match=re.escape(
                    "reference choice not a union of nodes: "
                    "['o1:11', 'y']")):
                validate_reference_choices(sdf, refs, moves)

    def test_non_union_rejected(self, simple):
        sdf, moves = simple
        refs = simple_reference_choices(moves)
        with pytest.raises(ChoiceError):
            check_adapted(sdf, set(), {}, refs, moves)


def _is_constant(f):
    return len(set(f.values())) == 1


class TestAdaptedness:
    """The measurable choices under each information structure."""

    STRUCTURES = [
        {"x0": TRIV, "x1": TRIV, "x2": TRIV},
        {"x0": TRIV, "x1": DISC, "x2": DISC},
        {"x0": TRIV, "x1": DISC, "x2": TRIV},
        {"x0": TRIV, "x1": TRIV, "x2": DISC},
        {"x0": DISC, "x1": DISC, "x2": DISC},
    ]

    @pytest.mark.parametrize("named", STRUCTURES)
    def test_against_measurability_rule(self, simple, named):
        sdf, moves = simple
        x0, x1, x2 = moves
        info = {x0: named["x0"], x1: named["x1"], x2: named["x2"]}
        refs = simple_reference_choices(moves)
        for f in scenario_maps():
            adapted = check_adapted(sdf, simple_choice_first(f), info, refs, moves)
            assert adapted == (_is_constant(f) or named["x0"] == DISC)
            for k, key in (("1", "x1"), ("2", "x2")):
                adapted = check_adapted(sdf, simple_choice_second(k, f),
                                        info, refs, moves)
                assert adapted == (_is_constant(f) or named[key] == DISC)
            adapted = check_adapted(sdf, simple_choice_second_any(f),
                                    info, refs, moves)
            assert adapted == (_is_constant(f)
                               or (named["x1"] == DISC and named["x2"] == DISC))


def simple_ap_data():
    paths = frozenset(
        (w, ((a,), (b,)))
        for w in SIMPLE_SCENARIOS for a in "12" for b in "12")
    return ActionPathData(agents=("p",), actions={"p": ("1", "2")},
                          times=(0, 1), scenarios=SIMPLE_SCENARIOS,
                          paths=paths)


def variant_ap_data():
    paths = frozenset(
        (w, ((a,), (b,)))
        for w in SIMPLE_SCENARIOS for a in "12" for b in "12"
        if not (w == "o1" and a == "2" and b == "2"))
    return ActionPathData(agents=("p",), actions={"p": ("1", "2")},
                          times=(0, 1), scenarios=SIMPLE_SCENARIOS,
                          paths=paths)


class TestActionPaths:
    def test_simple_reconstruction(self):
        sdf, timing = build_action_path_sdf(simple_ap_data())
        assert len(sdf.forest.nodes) == 14
        assert len(sdf.random_moves) == 3
        flags = check_flags(sdf)
        assert (flags.order_consistent, flags.surely_nontrivial, flags.maximal) \
            == (True, True, True)
        assert sorted(timing.values()) == [0, 1, 1]
        assert len(induced_tree(sdf).elements) == 11

    def test_variant_reconstruction(self):
        sdf, timing = build_action_path_sdf(variant_ap_data())
        assert len(sdf.forest.nodes) == 12
        assert len(sdf.random_moves) == 3
        domains = sorted(len(m.domain) for m in sdf.random_moves)
        assert domains == [1, 2, 2]
        assert len(induced_tree(sdf).elements) == 10

    def test_timing_strictly_decreasing_along_play(self):
        sdf, timing = build_action_path_sdf(simple_ap_data())
        node_time = timing_map(sdf, timing)
        for x, t in node_time.items():
            for y, u in node_time.items():
                if x > y:
                    assert t < u

    def test_idle_stage_violates_separation(self):
        paths = frozenset({("w", (("1",), ("1",))), ("w", (("1",), ("2",)))})
        data = ActionPathData(agents=("p",), actions={"p": ("1", "2")},
                              times=(0, 1), scenarios=("w",), paths=paths)
        with pytest.raises(APAxiomViolation) as exc:
            build_action_path_sdf(data)
        assert exc.value.axiom == 1

    def test_parallel_trees_violate_maximality(self):
        # both scenarios branch at time 0, but the two stage-two moves have
        # disjoint domains without an earlier divergence on common ground
        paths = frozenset(
            {("w1", (("1",), ("1",))), ("w1", (("1",), ("2",))),
             ("w1", (("2",), ("1",))),
             ("w2", (("2",), ("1",))), ("w2", (("2",), ("2",))),
             ("w2", (("1",), ("1",)))})
        data = ActionPathData(agents=("p",), actions={"p": ("1", "2")},
                              times=(0, 1), scenarios=("w1", "w2"), paths=paths)
        with pytest.raises(APAxiomViolation) as exc:
            build_action_path_sdf(data)
        assert exc.value.axiom == 3
        sdf, _ = build_action_path_sdf(data, require_maximal=False)
        assert check_flags(sdf).maximal is False

    def test_boundedness_needs_no_path_space_search(self, monkeypatch):
        # 2^4 ambient paths exceed the budget, but boundedness holds on
        # every finite grid and is not searched for
        paths = frozenset(("w", ((a,),) * 4) for a in "12")
        data = ActionPathData(agents=("p",), actions={"p": ("1", "2")},
                              times=(0, 1, 2, 3), scenarios=("w",),
                              paths=paths)
        monkeypatch.setenv("EXFORM_BUDGET", "10")
        sdf, timing = build_action_path_sdf(data)
        assert len(sdf.random_moves) == 1
        assert list(timing.values()) == [0]

    def test_malformed_data_rejected(self):
        from exform.errors import InputError
        with pytest.raises(InputError):
            ActionPathData(agents=("p",), actions={"p": ("1",)},
                           times=(1, 2), scenarios=("w",),
                           paths=frozenset({("w", (("1",), ("1",)))}))


class TestExogenousInformationRecipes:
    def test_filtration_alone(self):
        sdf, timing = build_action_path_sdf(simple_ap_data())
        info = eis_from_filtration(sdf, timing, {},
                                   {0: TRIV, 1: DISC})
        for m in sdf.random_moves:
            assert info[m] == (TRIV if timing[m] == 0 else DISC)
        assert check_recall(sdf, info, sdf.random_moves)

    def test_root_observation_spreads_downward(self):
        sdf, timing = build_action_path_sdf(simple_ap_data())
        root = next(m for m in sdf.random_moves if timing[m] == 0)
        info = eis_from_filtration(
            sdf, timing, {root: {"o1": "L", "o2": "R"}}, {0: TRIV, 1: TRIV})
        for m in sdf.random_moves:
            assert info[m] == DISC


# --- reference choices counted off the nodes' moves ---------------------------

def complete_oracle(p, agent_moves):
    """``is_complete`` of a choice whose immediate predecessors are p, one
    preimage per agent move: the check before the preimages were counted
    off the nodes' moves, kept as its oracle."""
    for m in agent_moves:
        hit = preimage(m, p)
        if hit and hit != m.domain:
            return False
    return True


def reference_oracle(sdf, refchoices, agent_moves):
    """``validate_reference_choices`` on ``complete_oracle``, verbatim
    apart from the oracle's name; the message it raises, or None."""
    failed = []
    for m in agent_moves:
        for c in refchoices.get(m, ()):
            if not is_union_of_nodes(sdf.forest, c):
                why = ("reference choice not a union of nodes: "
                       + canonical_text(frozenset(c)))
            elif not is_non_redundant(sdf, c):
                why = f"redundant reference choice at {m!r}"
            elif not complete_oracle(
                    p := immediate_predecessors(sdf.forest, c), agent_moves):
                why = f"incomplete reference choice at {m!r}"
            elif preimage(m, p) != m.domain:
                why = f"reference choice unavailable at {m!r}"
            else:
                continue
            failed.append((m, c, why))
    return min(failed, key=canonical)[2] if failed else None


def reference_message(sdf, refchoices, agent_moves):
    try:
        validate_reference_choices(sdf, refchoices, agent_moves)
    except ChoiceError as err:
        return str(err)
    return None


def reference_forms():
    forms = [load_example(name)[0] for name in EXAMPLE_NAMES]
    forms.append(amd_sef(3)[0])
    forms += [random_strict_sef(make_rng(seed)) for seed in range(12)]
    return forms


def drawn_references(form, i, rng):
    """The agent's reference choices with some replaced by another move's,
    by a union of nodes or by a random set of outcomes, at times with one
    off the forest, so that every failure is reached."""
    sdf = form.sdf
    nodes = sorted(sdf.forest.nodes, key=sorted)
    outcomes = sorted(sdf.forest.outcomes)
    moves = sorted(form.agent_moves[i], key=canonical)
    refs = dict(form.refchoices[i])
    for m in moves:
        if rng.random() < 0.5:
            continue
        kind = rng.randrange(3)
        if kind == 0:
            refs[m] = form.refchoices[i][rng.choice(moves)]
        elif kind == 1:
            refs[m] = [frozenset().union(*rng.sample(
                nodes, rng.randint(1, 3))) for _ in range(2)]
        else:
            refs[m] = [frozenset(rng.sample(outcomes, rng.randint(
                1, len(outcomes)))) | ({"alien"} if rng.random() < 0.3
                                       else set())]
    return refs


class TestReferenceChoicesCounted:
    @pytest.mark.parametrize("k", range(len(EXAMPLE_NAMES) + 13))
    def test_as_the_preimage_scan(self, k):
        form = reference_forms()[k]
        rng = make_rng(k)
        for i in form.agents:
            moves = form.agent_moves[i]
            tries = [form.refchoices[i]]
            tries += [drawn_references(form, i, rng) for _ in range(30)]
            for refs in tries:
                assert reference_message(form.sdf, refs, moves) \
                    == reference_oracle(form.sdf, refs, moves)
            # completeness on every other agent's moves as well
            everything = form.sdf.random_moves
            for c in [c for cs in form.choices.values() for c in cs][:60]:
                assert is_complete(form.sdf, c, moves) == complete_oracle(
                    immediate_predecessors(form.sdf.forest, c), moves)
                assert is_complete(form.sdf, c, everything) == complete_oracle(
                    immediate_predecessors(form.sdf.forest, c), everything)

    def test_each_failure_reached(self):
        kinds = set()
        for k, form in enumerate(reference_forms()):
            rng = make_rng(k)
            for i in form.agents:
                for _ in range(30):
                    message = reference_message(
                        form.sdf, drawn_references(form, i, rng),
                        form.agent_moves[i])
                    kinds.add(message and message.split(" at ")[0]
                              .split(":")[0])
        assert kinds >= {None, "reference choice not a union of nodes",
                         "redundant reference choice",
                         "incomplete reference choice",
                         "reference choice unavailable"}


class TestHashOnce:
    def test_hash_is_the_graphs(self):
        moves = set()
        for name in EXAMPLE_NAMES:
            moves |= load_example(name)[0].sdf.random_moves
        for m in sorted(moves, key=canonical):
            parts = [m.restricted({w}) for w in m.domain]
            parts.append(m.restricted(sorted(m.domain)[::2]))
            merged = merge_random_moves(parts)
            for move in [m, *parts, merged, RandomMove(dict(m.graph))]:
                assert hash(move) == hash(move.graph)
            assert merged == m and hash(merged) == hash(m)

    def test_graph_of_mixed_labels_in_repr_order(self):
        # int and str scenario labels do not compare: the graph is sorted
        # by repr, and the canonical key follows the graph, so "'a'" comes
        # before "(10" and "(10" before "(2"
        x = {w: frozenset({f"{w}:{k}" for k in "ab"}) for w in (2, "a", 10)}
        for order in ([2, "a", 10], [10, 2, "a"], ["a", 10, 2]):
            m = RandomMove({w: x[w] for w in order})
            assert m.graph == (("a", x["a"]), (10, x[10]), (2, x[2]))
            assert m.canonical_key == (2, [
                (2, [(0, repr(w)), (1, sorted(map(canonical, x[w])))])
                for w in ("a", 10, 2)])
