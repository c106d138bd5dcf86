"""
Oracles for the indexed fast paths: the SDF's per-scenario index against
a node scan, the memoised outcome map against forward play from the
history, the grouped Axiom 1 pass against the pairwise loop, and the
forest's order index and the form's menu index against the scan-and-cache
accessors they replaced.
"""

import itertools
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (comb_parts, forests, make_rng, meet_oracle,
                      offered_index, predecessor_groups, random_strict_sef,
                      unvalidated)
from exform._util import canonical
from exform.errors import (
    ChoiceError,
    ExformError,
    InputError,
    MultipleOutcomes,
    NoOutcome,
    NotAHistory,
)
from exform.forest import (
    DecisionForest,
    closure,
    immediate_predecessors,
    is_union_of_nodes,
)
from exform.instances import (
    MP_SCENARIOS,
    amd_instance,
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
from exform.adapted import SliceTable
from exform.order import Poset
from exform.equil import (
    bayes_beliefs,
    check_dynamic_consistency,
    check_dynamic_rationality,
    expected_payoff,
    units,
    verify_equilibrium,
)
from exform.play import (
    StrategyProfile,
    check_wellposed_direct,
    outcome_from,
    profile_tables,
    scenario_outcomes,
)
from exform.sdf import (
    RandomMove,
    StochasticDecisionForest,
    preimage,
)
from exform.sef import (
    InfoSet,
    StochasticExtensiveForm,
    _axiom1_violations,
    _menu,
    info_sets,
    strategies,
)
from test_slices import slices_of

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
        pseudo = unvalidated((sdf, ("i",), {"i": {x0}}, {"i": {}}, {"i": {}},
                              {"i": [{"w:1", "w:2"}]}))
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
    as its oracle, with a predecessor memo of its own (the forest keeps
    none) and its pairs in canonical order."""
    violations = []
    checked = {}
    preds = {}

    def P(c):
        if c not in preds:
            preds[c] = immediate_predecessors(sdf.forest, c)
        return preds[c]

    checked["axiom1"] = True
    slice_cache = {}

    def slices(c):
        if c not in slice_cache:
            slice_cache[c] = {w: c & sdf.root_of(w) for w in sdf.scenarios}
        return slice_cache[c]

    for i in agents:
        for c, c2 in itertools.combinations(sorted(choices[i], key=canonical),
                                            2):
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
    # Axiom 1 reads slices only, so the table needs no agent data
    tables = {i: SliceTable(sdf, {}, {}, {}, choices[i]) for i in agents}
    return [v for i in agents for v in _axiom1_violations(
        predecessor_groups(tables[i]), tables[i], i)]


def one_shot(outcomes):
    forest = DecisionForest(outcomes, [set(outcomes)] + [{w} for w in outcomes])
    projection = {x: "w" for x in forest.nodes}
    x0 = RandomMove({"w": frozenset(outcomes)})
    return StochasticDecisionForest(forest, ("w",), projection, [x0])


class TestGroupedAxiom1:
    def assert_agrees(self, sdf, agents, choices, expect_violations=True):
        expected = pairwise_axiom1(sdf, agents, choices)
        assert sorted(grouped_axiom1(sdf, agents, choices), key=canonical) \
            == sorted(expected, key=canonical)
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


# --- (d) the order and menu indexes against the scans they replaced ---------

class CachedForest:
    """The scan-and-cache accessors ``DecisionForest`` had before its order
    index, kept verbatim as that index's oracle."""

    def __init__(self, forest):
        self._outcomes = forest.outcomes
        self._nodes = forest.nodes

    @property
    def outcomes(self):
        return self._outcomes

    @property
    def nodes(self):
        return self._nodes

    def up(self, x):
        """All nodes weakly preceding x in play, i.e. supersets of x."""
        cache = self.__dict__.setdefault("_up_cache", {})
        if x not in cache:
            cache[x] = frozenset(y for y in self._nodes if y >= x)
        return cache[x]

    def down(self, x):
        """All nodes weakly following x in play, i.e. subsets of x."""
        cache = self.__dict__.setdefault("_down_cache", {})
        if x not in cache:
            cache[x] = frozenset(y for y in self._nodes if y <= x)
        return cache[x]

    def chain_of(self, w):
        """The decision path of an outcome: all nodes containing it."""
        if w not in self._outcomes:
            raise InputError(f"unknown outcome: {w!r}")
        return frozenset(x for x in self._nodes if w in x)

    def maximal_chains(self):
        """The decision paths: in a rooted forest every maximal chain is the
        up-set of a minimal node."""
        if "_chains_cache" not in self.__dict__:
            self._chains_cache = {self.up(t) for t in self.terminals()}
        return self._chains_cache

    def moves(self):
        if "_moves_cache" not in self.__dict__:
            self._moves_cache = frozenset(
                x for x in self._nodes if self.down(x) != {x})
        return self._moves_cache

    def terminals(self):
        return self._nodes - self.moves()

    def roots(self):
        return frozenset(x for x in self._nodes if self.up(x) == {x})

    def parent(self, x):
        """The immediate predecessor of a non-root node."""
        strictly_above = self.up(x) - {x}
        if not strictly_above:
            return None
        return min(strictly_above, key=len)

    def children(self, x):
        cache = self.__dict__.setdefault("_children_cache", {})
        if x not in cache:
            cache[x] = frozenset(y for y in self._nodes
                                 if y < x and self.parent(y) == x)
        return cache[x]

    def as_poset(self):
        """The node family as a Poset; roots are the maximal elements."""
        return Poset(self._nodes,
                     [(a, b) for a in self._nodes for b in self._nodes if a <= b])


def cached_predecessors(forest, c):
    """
    The moves at which c is on offer: all x whose up-set equals the strict
    up-set of some node inside c with the nodes below c removed.  That
    remainder is an upper part of a chain, so it is the up-set of its
    shortest member.  Memoised on the forest; c must be a nonempty union
    of nodes.
    """
    c = frozenset(c)
    cache = forest.__dict__.setdefault("_pred_cache", {})
    if c in cache:
        return cache[c]
    if not is_union_of_nodes(forest, c):
        raise ChoiceError(f"not a nonempty union of nodes: {sorted(map(repr, c))}")
    down_c = frozenset(y for y in forest.nodes if y <= c)
    result = set()
    for y in down_c:
        above = forest.up(y) - down_c
        if above:
            result.add(min(above, key=len))
    cache[c] = frozenset(result)
    return cache[c]


class CachedMenus:
    """The scan-and-cache menus ``StochasticExtensiveForm`` had before its
    menu index, kept verbatim as that index's oracle; predecessors come
    from the forest oracle, through ``is_available_at``'s body inlined."""

    def __init__(self, form):
        self.sdf = form.sdf
        self.agents = form.agents
        self.agent_moves = form.agent_moves
        self.choices = form.choices
        self.forest = CachedForest(form.sdf.forest)

    def moves_of(self, i):
        cache = self.__dict__.setdefault("_moves_of_cache", {})
        if i not in cache:
            cache[i] = frozenset(m(w) for m in self.agent_moves[i]
                                 for w in m.domain)
        return cache[i]

    def active_agents(self, x):
        cache = self.__dict__.setdefault("_active_cache", {})
        if x not in cache:
            cache[x] = tuple(i for i in self.agents if x in self.moves_of(i))
        return cache[x]

    def available_at(self, i, m):
        cache = self.__dict__.setdefault("_available_cache", {})
        if (i, m) not in cache:
            cache[(i, m)] = frozenset(
                c for c in self.choices[i] if preimage(
                    m, cached_predecessors(self.forest, c)) == m.domain)
        return cache[(i, m)]

    def available_at_move(self, i, x):
        cache = self.__dict__.setdefault("_available_move_cache", {})
        if (i, x) not in cache:
            forest = self.forest
            cache[(i, x)] = frozenset(
                c for c in self.choices[i]
                if x in cached_predecessors(forest, c))
        return cache[(i, x)]


def cached_info_sets(sef, i):
    """
    The partition of the agent's random moves by equality of available
    choices, together with the bijection onto predecessor sets.  Both are
    computed once per form and agent and returned read-only.
    """
    cache = sef.__dict__.setdefault("_info_sets_cache", {})
    if i in cache:
        return cache[i]
    by_menu = {}
    for m in sorted(sef.agent_moves[i], key=canonical):
        by_menu.setdefault(sef.available_at(i, m), []).append(m)
    sets = []
    preds = {}
    for menu, members in by_menu.items():
        p = InfoSet(i, frozenset(members))
        sets.append(p)
        preds[p] = frozenset(m(w) for m in members for w in m.domain)
    cache[i] = (tuple(sets), MappingProxyType(preds))
    return cache[i]


def assert_order_index_matches(forest, tried):
    oracle = CachedForest(forest)
    for name in ("moves", "terminals", "roots", "maximal_chains", "as_poset"):
        assert getattr(forest, name)() == getattr(oracle, name)()
    for x in forest.nodes:
        for name in ("up", "down", "parent", "children"):
            assert getattr(forest, name)(x) == getattr(oracle, name)(x)
    for w in forest.outcomes:
        assert forest.chain_of(w) == oracle.chain_of(w)
    for c in tried:
        try:
            expected = cached_predecessors(oracle, c)
        except ChoiceError:
            with pytest.raises(ChoiceError):
                immediate_predecessors(forest, c)
        else:
            assert immediate_predecessors(forest, c) == expected


def assert_menu_index_matches(form):
    oracle = CachedMenus(form)
    nodes = sorted(form.sdf.forest.nodes, key=sorted)
    # every random move, the agent's or not, each one-scenario part, and
    # each mix of half of one with the rest of another
    randoms = sorted(form.sdf.random_moves, key=lambda m: repr(m.graph))
    mixed = set()
    for m, m2 in itertools.permutations(randoms, 2):
        half = sorted(m.domain, key=repr)[:(len(m.domain) + 1) // 2]
        mixed.add(RandomMove(dict(m2.graph) | dict(m.restricted(half).graph)))
    moves = sorted(set(randoms) | mixed | {
        m.restricted({w}) for m in randoms for w in m.domain},
        key=lambda m: repr(m.graph))
    offered = offered_index(form)
    for x in nodes:
        assert form.active_agents(x) == oracle.active_agents(x)
    for i in form.agents:
        assert form.moves_of(i) == oracle.moves_of(i)
        for x in nodes:
            assert form.available_at_move(i, x) \
                == oracle.available_at_move(i, x) \
                == offered.get((i, x), frozenset())
        for m in moves:
            assert form.available_at(i, m) == oracle.available_at(i, m) \
                == meet_oracle(offered, i, m)
        for m in form.agent_moves[i]:
            assert form._index.menu_of[i, m] == meet_oracle(offered, i, m)
        # the groups are a fresh table's choices by predecessor set, and
        # the distinct slices the index keeps are that table's
        table = SliceTable(form.sdf, {}, {}, {}, form.choices[i])
        groups = form._index.groups[i]
        assert groups == predecessor_groups(table)
        assert all(groups.values())
        assert sum(map(len, groups.values())) \
            == len(frozenset().union(*groups.values()))
        for w in form.sdf.scenarios:
            assert form._index.distinct[i][w] == table.distinct(w)
        sets, preds = info_sets(form, i)
        expected_sets, expected_preds = cached_info_sets(oracle, i)
        assert sets == expected_sets
        assert dict(preds) == dict(expected_preds)


def grouped_oracle(form, table, p, menu):
    """The information set's menu grouped by slice in each tree where the
    set has moves, each member looked up on its own: the per-member
    grouping ``_menu_index`` made before the slice table kept each slice's
    choices, kept verbatim apart from the set's moves read off the set."""
    sdf = form.sdf
    moves = {}
    for x in p.moves():
        moves.setdefault(table.position[sdf.projection[x]], []).append(x)
    grouped = {}
    for k, xs in moves.items():
        by_slice = {}
        for c in menu:
            by_slice.setdefault(slices_of(table, c)[k], []).append(c)
        grouped[table.roots[k]] = (tuple(xs),
                                   tuple(map(tuple, by_slice.values())))
    return grouped


def assert_groups_cover(form, exact):
    """Each information set's groups in the menu index against the
    per-member grouping: the same moves per tree, and each old group inside
    a new group of one slice, or, when ``exact``, the same groups."""
    sdf = form.sdf
    for i in form.agents:
        table = SliceTable(sdf, {}, {}, {}, form.choices[i])
        sets, _ = info_sets(form, i)
        for p in sets:
            expected = grouped_oracle(form, table, p, _menu(form, p))
            got = form._index.grouped[p]
            assert got.keys() == expected.keys()
            for root, (xs, groups) in expected.items():
                assert got[root][0] == xs
                new = [frozenset(g) for g in got[root][1]]
                assert all(len({c & root for c in g}) == 1 for g in new)
                if exact:
                    assert set(new) == set(map(frozenset, groups))
                    assert len(new) == len(groups)
                for g in groups:
                    assert any(set(g) <= g2 and g[0] & root
                               == next(iter(g2)) & root for g2 in new)


def pseudo_forms():
    """The forms the tests assemble without validation: the 4-comb whose
    bottom move lost its choices, a choice offered at two levels, one
    move shared by two agents whose choices are disjoint, and a whole
    root, a choice offered nowhere, beside a choice offered at the root."""
    sdf, agents, agent_moves, info, refchoices, choices = comb_parts(4)
    comb = unvalidated((sdf, agents, agent_moves, info, refchoices, {"i": {
        c for c in choices["i"] if not c < frozenset({"w:2", "w:3"})}}))
    forest = DecisionForest("abc", [{"a", "b", "c"}, {"a", "b"},
                                    {"a"}, {"b"}, {"c"}])
    top = RandomMove({"w": frozenset("abc")})
    mid = RandomMove({"w": frozenset("ab")})
    two_levels = unvalidated((StochasticDecisionForest(
        forest, ("w",), {x: "w" for x in forest.nodes}, [top, mid]),
        ("i",), {"i": {top, mid}}, {"i": {}}, {"i": {}}, {"i": [{"a", "c"}]}))
    one = one_shot(["w:1", "w:2"])
    none = {"a": {}, "b": {}}
    shared = unvalidated((one, ("a", "b"), {i: one.random_moves for i in "ab"},
                          none, none, {"a": [{"w:1"}], "b": [{"w:2"}]}))
    nowhere = unvalidated((one, ("i",), {"i": one.random_moves}, {"i": {}},
                           {"i": {}}, {"i": [{"w:1"}, {"w:1", "w:2"}]}))
    return [comb, two_levels, shared, nowhere]


class TestIndexesAgainstCaches:
    @given(forests(), st.data())
    @settings(deadline=None, max_examples=60)
    def test_hypothesis_forests(self, f, data):
        outcomes = sorted(f.outcomes)
        subsets = data.draw(st.lists(st.sets(st.sampled_from(outcomes)),
                                     max_size=8))
        tried = list(f.nodes) + subsets + [set(), {outcomes[0], "alien"}]
        assert_order_index_matches(f, tried)

    @pytest.mark.parametrize("name", EXAMPLES + ["amd3"])
    def test_bundled_examples(self, name):
        form = amd_sef(3)[0] if name == "amd3" else load_example(name)[0]
        forest = form.sdf.forest
        rng = make_rng(len(name))
        outcomes = sorted(forest.outcomes)
        tried = list(forest.nodes) + [c for cs in form.choices.values()
                                      for c in cs]
        tried += [rng.sample(outcomes, rng.randint(1, len(outcomes)))
                  for _ in range(40)]
        assert_order_index_matches(forest, tried)
        assert_menu_index_matches(form)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_random_strict_forms(self, seed):
        form = random_strict_sef(make_rng(seed))
        assert_order_index_matches(form.sdf.forest, form.sdf.forest.nodes)
        assert_menu_index_matches(form)

    def test_exit_race_menus_as_met(self):
        # every agent move of the 6-atom race, each one-scenario part and
        # each half, against the meet of its values' menus
        form = amd_sef(6)[0]
        offered = offered_index(form)
        for i in form.agents:
            for m in sorted(form.agent_moves[i], key=canonical):
                domain = sorted(m.domain)
                parts = [m, m.restricted(domain[::2]), *(
                    m.restricted({w}) for w in domain)]
                for part in parts:
                    assert form.available_at(i, part) \
                        == meet_oracle(offered, i, part)
                for x in m.image:
                    assert form.available_at_move(i, x) \
                        == offered.get((i, x), frozenset())

    @pytest.mark.parametrize("form", pseudo_forms(), ids=repr)
    def test_pseudo_forms(self, form):
        assert_menu_index_matches(form)
        # choices offered at a set's move but off its menu may join a group
        assert_groups_cover(form, exact=False)


def held(obj, seen=None):
    """The entries an object's attributes hold, counted through nested
    dicts, lists, tuples and objects; a set counts its members."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, (dict, MappingProxyType)):
        return len(obj) + sum(held(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return len(obj) + sum(held(v, seen) for v in obj)
    if isinstance(obj, (set, frozenset)):
        return len(obj)
    if hasattr(obj, "__dict__"):
        return held(vars(obj), seen)
    return 0


class TestMenusSortedOnce:
    def test_validation_sorts_no_menu_and_a_read_sorts_it_once(self):
        # the strategies and well-posedness read each menu in canonical
        # order; a form that never needs the order never sorts it
        form = load_example("mp-case3")[0]
        assert form._index.menus == {}
        for i in form.agents:
            for p in info_sets(form, i)[0]:
                menu = _menu(form, p)
                assert menu == tuple(sorted(form.available_at(
                    i, next(iter(p.random_moves))), key=sorted))
                assert _menu(form, p) is menu


class TestMenusHeldPerGroup:
    def test_each_choice_is_held_once_per_group_and_per_menu(self):
        # the 6-atom race: per agent one move over 72 scenarios and 64
        # choices of one predecessor set.  Kept per move, the offered
        # sets would hold each choice 72 times
        form = amd_sef(6)[0]
        index = form._index
        seen = set()
        held([getattr(index, name) for name in (
            "moves", "info_sets", "active", "menus", "grouped", "distinct",
            "root", "walks")], seen)
        menus = {id(menu): menu for menu in index.menu_of.values()}
        groups = {i: predecessor_groups(SliceTable(
            form.sdf, {}, {}, {}, form.choices[i])) for i in form.agents}
        grouped = sum(len(cs) for gs in groups.values() for cs in gs.values())
        assert grouped + sum(map(len, menus.values())) == 2 * 2 * 64
        # beside the choices: the index's fields and the keys of its menus,
        # of its agents' groups and of each agent's groups
        assert held(index, seen) == grouped + sum(map(len, menus.values())) \
            + len(index) + len(index.menu_of) + len(groups) + sum(
                map(len, groups.values()))


class TestQueriesKeepNothing:
    def test_predecessor_and_menu_queries_leave_the_form_as_it_was(self):
        form = load_example("amd")[0]
        forest = form.sdf.forest
        rng = make_rng(5)
        outcomes = sorted(forest.outcomes)
        unions = {frozenset(rng.sample(outcomes, rng.randint(1, 20)))
                  for _ in range(600)}
        i = form.agents[0]
        (m,) = form.agent_moves[i]
        domain = sorted(m.domain)
        parts = {m.restricted(rng.sample(domain, rng.randint(1, len(domain))))
                 for _ in range(600)}
        # the index is built by the first menu query
        form.available_at(i, m)
        before = held(forest), held(form)
        for c in sorted(unions, key=sorted)[:500]:
            immediate_predecessors(forest, c)
        for part in sorted(parts, key=lambda m: repr(m.graph))[:500]:
            form.available_at(i, part)
        assert (held(forest), held(form)) == before

    @pytest.mark.parametrize("name", ["amd", "mp-case1"])
    def test_sweeps_leave_the_form_as_it_was(self, name):
        form, eu, profile, _ = load_example(name)
        # the menu index is built by the first menu query, and it keeps
        # each menu in canonical order from the first read of that order
        for i in form.agents:
            for p in info_sets(form, i)[0]:
                _menu(form, p)
        parts = form, form.sdf, form.sdf.forest
        before = [held(part) for part in parts]
        assert check_dynamic_rationality(form, eu, profile)
        assert check_wellposed_direct(form)
        assert [held(part) for part in parts] == before

    @pytest.mark.parametrize("name", ["amd", "mp-case3"])
    def test_verify_and_reads_leave_the_form_as_it_was(self, name):
        # a memo kept on the form for its lifetime would show here
        form, eu, profile, expected = load_example(name)
        parts = form, form.sdf, form.sdf.forest
        before = [held(part) for part in parts]
        verify_equilibrium(form, eu, profile)
        bayes_beliefs(form, expected["prior"], profile)
        scenario_outcomes(form, profile)
        for unit in units(form):
            expected_payoff(form, eu, profile, *unit)
        assert [held(part) for part in parts] == before

    def test_exit_race_beliefs_and_consistency_leave_the_form_as_it_was(self):
        # the member maps and assessed nodes live for one check only
        form, eu, profile, prior = amd_instance(Fraction(2, 3), 6)
        parts = form, form.sdf, form.sdf.forest
        before = [held(part) for part in parts]
        for p in (Fraction(1, 2), Fraction(5, 6)):
            other = amd_instance(p, 6)[2]
            bayes_beliefs(form, prior, other)
            check_dynamic_consistency(form, eu, other)
        assert check_dynamic_consistency(form, eu, profile)
        assert bayes_beliefs(form, prior, profile) == eu.beliefs
        assert [held(part) for part in parts] == before


class TestNonNodes:
    NOT_A_NODE = frozenset({"o1:11", "o1:22"})

    def test_order_lookups_name_the_set(self):
        forest = load_example("simple")[0].sdf.forest
        assert self.NOT_A_NODE <= forest.outcomes
        assert self.NOT_A_NODE not in forest.nodes
        for lookup in (forest.up, forest.parent, forest.children):
            with pytest.raises(InputError, match="not a node.*o1:11.*o1:22"):
                lookup(self.NOT_A_NODE)

    def test_outcome_from_a_non_node_is_an_error(self):
        form = load_example("simple")[0]
        tables = profile_tables(form, next(all_profiles(form)))
        with pytest.raises(ExformError):
            outcome_from(form, tables, self.NOT_A_NODE)
