"""
Oracles for the indexed fast paths: the SDF's per-scenario index against
a node scan, the memoised outcome map against forward play from the
history, and the grouped Axiom 1 pass against the pairwise loop.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_strict_sef
from exform.errors import (
    InputError,
    MultipleOutcomes,
    NoOutcome,
    NotAHistory,
)
from exform.forest import DecisionForest, closure, immediate_predecessors
from exform.instances import (
    MP_SCENARIOS,
    amd_sdf,
    amd_sef,
    load_example,
    mp_choice_second,
    mp_sdf,
    mp_sef,
    simple_sdf,
    simple_split_sdf,
    simple_variant_sdf,
    ultimatum_sef,
)
from exform.play import StrategyProfile, outcome_from, profile_tables
from exform.sdf import RandomMove, StochasticDecisionForest
from exform.sef import (
    StochasticExtensiveForm,
    _axiom1_violations,
    strategies,
)

EXAMPLES = ["simple", "simple-variant", "amd", "mp-case1", "mp-case2",
            "mp-case3", "mp-case4", "ultimatum"]


def bundled_sdfs():
    sdfs = [simple_sdf()[0], simple_split_sdf(), simple_variant_sdf()[0],
            amd_sdf()[0], amd_sef(2)[0].sdf, mp_sdf()[0],
            ultimatum_sef()[0].sdf]
    return sdfs + [load_example(name)[0].sdf for name in EXAMPLES]


# --- (a) the SDF index against a node scan ----------------------------------

def scan_tree(sdf, w):
    return frozenset(x for x in sdf.forest.nodes if sdf.projection[x] == w)


def scan_root(sdf, w):
    return max(scan_tree(sdf, w), key=len)


def scan_scenario(sdf, o):
    (w,) = [w for w in sdf.scenarios if o in scan_root(sdf, w)]
    return w


def assert_index_matches_scan(sdf):
    for w in sdf.scenarios:
        assert sdf.tree_of(w) == scan_tree(sdf, w)
        assert sdf.root_of(w) == scan_root(sdf, w)
    for o in sdf.forest.outcomes:
        assert sdf.scenario_of_outcome(o) == scan_scenario(sdf, o)


class TestScenarioIndex:
    @pytest.mark.parametrize("sdf", bundled_sdfs(), ids=repr)
    def test_bundled_forests(self, sdf):
        assert_index_matches_scan(sdf)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_strict_forms(self, seed):
        assert_index_matches_scan(random_strict_sef(make_rng(seed)).sdf)

    def test_unknown_scenario_tree(self):
        sdf, _ = simple_sdf()
        with pytest.raises(InputError, match="unknown scenario"):
            sdf.tree_of("nope")

    def test_unknown_scenario_root(self):
        sdf, _ = simple_sdf()
        with pytest.raises(InputError, match="unknown scenario"):
            sdf.root_of("nope")

    def test_unknown_outcome(self):
        sdf, _ = simple_sdf()
        with pytest.raises(InputError, match="unknown outcome"):
            sdf.scenario_of_outcome("nope")


# --- (b) the memoised outcome map against forward play -----------------------

def all_profiles(sef):
    per_agent = [strategies(sef, i) for i in sef.agents]
    for combo in itertools.product(*per_agent):
        yield StrategyProfile(dict(zip(sef.agents, combo)))


def _compatible_outcomes(sef, tables, h):
    """Forward play: descend from the minimum of the closed history,
    keeping only outcomes that survive each active agent's choice."""
    forest = sef.sdf.forest
    hbar = closure(forest, h)
    core = frozenset.intersection(*hbar)
    start = min(hbar, key=len)
    found = []
    stack = [(start, core)]
    while stack:
        x, allowed = stack.pop()
        if len(x) == 1:
            (w,) = x
            if w in allowed:
                found.append(w)
            continue
        active = sef.active_agents(x)
        if active:
            meet = frozenset(x)
            for i in active:
                meet &= tables[i][x]
            assert meet, "a joint choice emptied a move"
            allowed = allowed & meet
        for y in forest.children(x):
            if y & allowed:
                stack.append((y, allowed))
    return found


def history_outcome(sef, tables, x):
    """What forward play from the history up(x) induces: the outcome, or
    the error ``outcome_from`` raises for none or several."""
    found = _compatible_outcomes(sef, tables, sef.sdf.forest.up(x))
    if len(found) == 1:
        return found[0]
    return NoOutcome if not found else MultipleOutcomes


def memo_outcome(sef, tables, x):
    try:
        return outcome_from(sef, tables, x)
    except (NoOutcome, MultipleOutcomes) as err:
        return type(err)


def assert_outcome_map_matches(sef, profiles):
    moves = sorted(sef.sdf.forest.moves(), key=sorted)
    for profile in profiles:
        tables = profile_tables(sef, profile)
        first = {x: memo_outcome(sef, tables, x) for x in moves}
        # asked in reverse, every move is answered from the filled memo
        for x in reversed(moves):
            assert first[x] == history_outcome(sef, tables, x)
            assert memo_outcome(sef, tables, x) == first[x]


class TestOutcomeMap:
    @pytest.mark.parametrize("name", EXAMPLES)
    def test_bundled_examples_every_profile(self, name):
        sef = load_example(name)[0]
        assert_outcome_map_matches(sef, all_profiles(sef))

    def test_simultaneous_move_every_profile(self):
        # two agents active at one move: each outcome must survive both
        outcomes = ["w:11", "w:12", "w:21", "w:22"]
        sdf = one_shot(outcomes)
        (x0,) = sdf.random_moves
        point = frozenset({frozenset({"w"})})
        menus = {"a": [frozenset({"w:11", "w:12"}), frozenset({"w:21", "w:22"})],
                 "b": [frozenset({"w:11", "w:21"}), frozenset({"w:12", "w:22"})]}
        sef = StochasticExtensiveForm(
            sdf, ("a", "b"), {i: frozenset({x0}) for i in "ab"},
            {i: {x0: point} for i in "ab"}, {i: {x0: menus[i]} for i in "ab"},
            {i: frozenset(menus[i]) for i in "ab"})
        assert_outcome_map_matches(sef, all_profiles(sef))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_strict_forms(self, seed):
        rng = make_rng(seed)
        sef = random_strict_sef(rng)
        pool = strategies(sef, "i")
        picked = rng.sample(pool, min(8, len(pool)))
        assert_outcome_map_matches(
            sef, [StrategyProfile({"i": s}) for s in picked])

    def test_underseparated_pseudo_structure(self):
        # one choice that never separates w:1 from w:2, assembled without
        # validation on purpose: the root has several outcomes
        sdf = one_shot(["w:1", "w:2", "w:3"])
        (x0,) = sdf.random_moves
        pseudo = object.__new__(StochasticExtensiveForm)
        pseudo.sdf = sdf
        pseudo.agents = ("i",)
        pseudo.agent_moves = {"i": frozenset({x0})}
        pseudo.choices = {"i": frozenset({frozenset({"w:1", "w:2"})})}
        assert_outcome_map_matches(pseudo, all_profiles(pseudo))
        tables = profile_tables(pseudo, next(all_profiles(pseudo)))
        with pytest.raises(MultipleOutcomes):
            outcome_from(pseudo, tables, sdf.root_of("w"))

    def test_terminal_node_is_not_a_history(self):
        sef = load_example("simple")[0]
        tables = profile_tables(sef, next(all_profiles(sef)))
        for x in sef.sdf.forest.terminals():
            with pytest.raises(NotAHistory):
                outcome_from(sef, tables, x)


# --- (c) grouped Axiom 1 against the pairwise loop ----------------------------

def pairwise_axiom1(sdf, agents, choices):
    """The pairwise Axiom 1 loop the grouped pass replaced, kept verbatim
    as its oracle (the predecessor memo is the SDF's own)."""
    violations = []
    checked = {}

    def P(c):
        return immediate_predecessors(sdf.forest, c)

    checked["axiom1"] = True
    slice_cache = {}

    def slices(c):
        if c not in slice_cache:
            slice_cache[c] = {w: c & sdf.root_of(w) for w in sdf.scenarios}
        return slice_cache[c]

    for i in agents:
        for c, c2 in itertools.combinations(sorted(choices[i], key=sorted), 2):
            if not P(c) & P(c2):
                continue
            if P(c) != P(c2):
                violations.append(("axiom1", (i, c, c2, "predecessors differ")))
                checked["axiom1"] = False
                continue
            for w in sdf.scenarios:
                cw = slices(c)[w]
                c2w = slices(c2)[w]
                if cw != c2w and cw & c2w:
                    violations.append(("axiom1", (i, c, c2, w)))
                    checked["axiom1"] = False
    return violations


def grouped_axiom1(sdf, agents, choices):
    return [v for i in agents for v in _axiom1_violations(sdf, i, choices[i])]


def one_shot(outcomes):
    forest = DecisionForest(outcomes, [set(outcomes)] + [{w} for w in outcomes])
    projection = {x: "w" for x in forest.nodes}
    x0 = RandomMove({"w": frozenset(outcomes)})
    return StochasticDecisionForest(forest, ("w",), projection, [x0])


class TestGroupedAxiom1:
    def assert_agrees(self, sdf, agents, choices, expect_violations=True):
        expected = pairwise_axiom1(sdf, agents, choices)
        assert grouped_axiom1(sdf, agents, choices) == expected
        assert bool(expected) == expect_violations

    def test_overlapping_slices(self):
        sdf = one_shot(["w:1", "w:2", "w:3"])
        choices = {"i": frozenset({frozenset({"w:1", "w:2"}),
                                   frozenset({"w:2", "w:3"})})}
        self.assert_agrees(sdf, ("i",), choices)

    def test_overlapping_unequal_predecessor_sets(self):
        # {a} is offered at {a, b} only, {a, c, d} at {a, b} and the root
        nodes = [set("abcd"), set("ab"), set("cd")] + [{v} for v in "abcd"]
        forest = DecisionForest("abcd", nodes)
        projection = {x: "w" for x in forest.nodes}
        moves = [RandomMove({"w": frozenset(x)}) for x in forest.moves()]
        sdf = StochasticDecisionForest(forest, ("w",), projection, moves)
        wide, narrow = frozenset("acd"), frozenset("a")
        assert immediate_predecessors(sdf.forest, narrow) \
            < immediate_predecessors(sdf.forest, wide)
        choices = {"i": frozenset({wide, narrow, frozenset("b"),
                                   frozenset("c"), frozenset("d")})}
        self.assert_agrees(sdf, ("i",), choices)

    def test_valid_forms_have_none(self):
        for sef in [load_example(name)[0] for name in EXAMPLES]:
            self.assert_agrees(sef.sdf, sef.agents, sef.choices,
                               expect_violations=False)

    def test_coin_matching_case3_perturbed(self):
        sef, _ = mp_sef(3)
        second = dict.fromkeys(MP_SCENARIOS, "1")
        # a second choice after the first action 1 only: its predecessor
        # set overlaps the merged choices' without being equal
        after_one = mp_choice_second("1", second)
        # a merged choice whose slice on one scenario plays 1 after 1 but
        # 2 after 2: it overlaps both merged slices there
        w = MP_SCENARIOS[5]
        mixed = (mp_choice_second(".", second) - {f"{w}:21"}) | {f"{w}:22"}
        choices = dict(sef.choices)
        choices["j"] = sef.choices["j"] | {after_one, mixed}
        expected = pairwise_axiom1(sef.sdf, sef.agents, choices)
        kinds = {v[1][3] for v in expected}
        assert kinds == {"predecessors differ", w}
        self.assert_agrees(sef.sdf, sef.agents, choices)
