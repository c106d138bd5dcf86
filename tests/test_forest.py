import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forests
from exform._util import canonical
from exform.errors import ChoiceError, NotAHistory
from exform.forest import (
    DecisionForest,
    closure,
    histories,
    immediate_predecessors,
    is_history,
    _laminar_with_singletons,
    is_union_of_nodes,
    validate_decision_forest,
)
from exform.instances import amd_sef, mp_sdf
from exform.order import is_forest as poset_is_forest


def two_period_outcomes():
    return [f"{w}:{a}{b}" for w in ("o1", "o2") for a in "12" for b in "12"]


def two_period_nodes():
    """The running two-scenario, two-period example: 6 moves + 8 terminals."""
    nodes = []
    for w in ("o1", "o2"):
        nodes.append({f"{w}:{a}{b}" for a in "12" for b in "12"})
        for a in "12":
            nodes.append({f"{w}:{a}{b}" for b in "12"})
            for b in "12":
                nodes.append({f"{w}:{a}{b}"})
    return nodes


SIMPLE = DecisionForest(two_period_outcomes(), two_period_nodes())


class TestValidation:
    def test_simple_instance_valid(self):
        report = validate_decision_forest(two_period_outcomes(), two_period_nodes())
        assert report.valid

    def test_all_singletons_valid(self):
        outcomes = ["u", "v", "w"]
        report = validate_decision_forest(outcomes, [{w} for w in outcomes])
        assert report.valid

    def test_dropping_a_singleton_breaks_duality(self):
        nodes = [x for x in two_period_nodes() if x != {"o1:11"}]
        report = validate_decision_forest(two_period_outcomes(), nodes)
        assert not report.valid
        assert report.failure == "duality"

    def test_incomparable_ancestors_rejected(self):
        report = validate_decision_forest(
            "uvz", [{"u", "v"}, {"v", "z"}, {"u"}, {"v"}, {"z"}])
        assert not report.valid
        assert report.failure == "rooted_forest"

    def test_node_with_single_child_breaks_duality(self):
        report = validate_decision_forest("uv", [{"u", "v"}, {"u"}])
        assert not report.valid


class TestMovesTerminals:
    def test_simple_counts(self):
        assert len(SIMPLE.moves()) == 6
        assert len(SIMPLE.terminals()) == 8

    def test_disjoint_union(self):
        assert SIMPLE.moves() | SIMPLE.terminals() == SIMPLE.nodes
        assert not SIMPLE.moves() & SIMPLE.terminals()

    def test_trivial_forest_has_no_moves(self):
        f = DecisionForest("uv", [{"u"}, {"v"}])
        assert f.moves() == frozenset()

    @given(forests())
    def test_roots_partition_outcomes(self, f):
        roots = f.roots()
        assert frozenset().union(*roots) == f.outcomes
        assert sum(len(r) for r in roots) == len(f.outcomes)

    @given(forests())
    def test_poset_view_is_rooted_forest(self, f):
        assert poset_is_forest(f.as_poset())


class TestImmediatePredecessors:
    def test_first_action_choice_offered_at_roots(self):
        c = {w for w in SIMPLE.outcomes if w.split(":")[1][0] == "1"}
        assert immediate_predecessors(SIMPLE, c) == SIMPLE.roots()

    def test_second_action_choice_offered_at_all_second_moves(self):
        c = {w for w in SIMPLE.outcomes if w.split(":")[1][1] == "1"}
        expected = frozenset(x for x in SIMPLE.moves() if x not in SIMPLE.roots())
        assert immediate_predecessors(SIMPLE, c) == expected

    def test_root_as_choice_has_no_predecessor(self):
        root = next(iter(SIMPLE.roots()))
        assert immediate_predecessors(SIMPLE, root) == frozenset()

    def test_non_union_rejected(self):
        # in a valid forest all singletons are nodes, so only the empty set
        # and alien outcomes can fail the union-of-nodes check
        with pytest.raises(ChoiceError):
            immediate_predecessors(SIMPLE, set())
        with pytest.raises(ChoiceError):
            immediate_predecessors(SIMPLE, {"o1:11", "nope"})

    @given(forests(max_outcomes=6))
    @settings(deadline=None)
    def test_scenario_restriction_identity(self, f):
        # restricting a choice to a union of root components restricts its
        # predecessor set to the nodes of those components
        roots = sorted(f.roots(), key=sorted)
        for c in [x for x in f.nodes if x not in f.roots()]:
            for root in roots:
                restricted = c & root
                if not restricted:
                    continue
                lhs = immediate_predecessors(f, restricted)
                rhs = immediate_predecessors(f, c) & frozenset(
                    x for x in f.nodes if x <= root)
                assert lhs == rhs


class TestDualityRoundTrip:
    @given(forests(max_outcomes=12))
    @settings(deadline=None)
    def test_rebuild_from_maximal_chains(self, f):
        # rebuild each node as the set of decision paths passing through it;
        # the rebuilt family must be order-isomorphic to the original
        paths = {w: f.chain_of(w) for w in f.outcomes}
        rebuilt = {x: frozenset(w for w in f.outcomes if x in paths[w])
                   for x in f.nodes}
        assert all(rebuilt[x] == x for x in f.nodes)
        report = validate_decision_forest(f.outcomes, rebuilt.values())
        assert report.valid


class TestHistories:
    def test_histories_are_move_upsets(self):
        hs = histories(SIMPLE)
        assert len(hs) == 6
        for h in hs:
            assert is_history(SIMPLE, h)

    def test_root_singleton_chain_is_closed_history(self):
        root = next(iter(SIMPLE.roots()))
        h = frozenset({root})
        assert is_history(SIMPLE, h)
        assert closure(SIMPLE, h) == h

    def test_closure_of_punctured_upset(self):
        x = next(iter(SIMPLE.moves() - SIMPLE.roots()))
        h = SIMPLE.up(x) - {x}
        assert closure(SIMPLE, h) == h  # the root chain is already closed

    def test_maximal_chain_is_not_history(self):
        w = next(iter(SIMPLE.outcomes))
        assert not is_history(SIMPLE, SIMPLE.chain_of(w))
        with pytest.raises(NotAHistory):
            closure(SIMPLE, SIMPLE.chain_of(w))

    @given(forests(max_outcomes=8))
    def test_history_cores_agree_with_closure(self, f):
        # a move fits under the intersection of h iff it fits under that of
        # the closure of h
        for h in histories(f):
            closed = closure(f, h)
            core = frozenset.intersection(*h)
            closed_core = frozenset.intersection(*closed)
            for x in f.moves():
                assert (x <= core) == (x <= closed_core)


def is_history_by_scan(forest, h):
    h = frozenset(frozenset(x) for x in h)
    if not h or not h <= forest.nodes:
        return False
    for a in h:
        for b in h:
            if not (a <= b or b <= a):
                return False
        if not forest.up(a) <= h:  # upward closed
            return False
    maximal = h in forest.maximal_chains()
    return not maximal


def closure_by_search(forest, h):
    """The history together with its infimum, when that infimum exists."""
    h = frozenset(frozenset(x) for x in h)
    if not is_history_by_scan(forest, h):
        raise NotAHistory(f"not a history: {sorted(map(sorted, h))}")
    core = frozenset.intersection(*h)
    below = [x for x in forest.nodes if x <= core
             and all(x <= y for y in h)]
    if not below:
        return h
    inf = max(below, key=len)
    if all(x <= inf for x in below):
        return h | {inf}
    return h


def assert_histories_match_scans(forest, tried):
    for h in tried:
        expected = is_history_by_scan(forest, h)
        assert is_history(forest, h) == expected
        if expected:
            assert closure(forest, h) == closure_by_search(forest, h)
        else:
            with pytest.raises(NotAHistory):
                closure(forest, h)


def history_candidates(forest, rng, samples):
    """Every up-set, every up-set without its smallest member, every
    maximal chain, and random node subsets."""
    nodes = sorted(forest.nodes, key=sorted)
    tried = [forest.up(x) for x in nodes]
    tried += [forest.up(x) - {x} for x in nodes]
    tried += list(forest.maximal_chains())
    tried += [rng.sample(nodes, rng.randint(0, len(nodes)))
              for _ in range(samples)]
    return tried


class TestHistoriesAgainstScans:
    @given(forests(max_outcomes=8), st.randoms(use_true_random=False))
    @settings(deadline=None)
    def test_hypothesis_forests(self, f, rng):
        assert_histories_match_scans(f, history_candidates(f, rng, 20))

    def test_bundled_forms(self):
        rng = random.Random(11)
        for form in bundled_forms():
            f = form.sdf.forest
            assert_histories_match_scans(f, history_candidates(f, rng, 200))


def test_union_of_nodes_detection():
    assert is_union_of_nodes(SIMPLE, {"o1:11"})
    assert is_union_of_nodes(SIMPLE, {w for w in SIMPLE.outcomes})
    assert not is_union_of_nodes(SIMPLE, set())
    assert is_union_of_nodes(SIMPLE, {"o1:11", "o2:21"})


# --- oracles: the scans the memoised forest primitives replaced -------------

def union_of_nodes_by_scan(forest, c):
    """True iff c is a (nonempty) union of members of the forest."""
    c = frozenset(c)
    if not c or not c <= forest.outcomes:
        return False
    covered = frozenset().union(*[x for x in forest.nodes if x <= c]) \
        if any(x <= c for x in forest.nodes) else frozenset()
    return covered == c


def predecessors_by_scan(forest, c):
    """
    The moves at which c is on offer: all x whose strict up-set equals the
    strict up-set of some node inside c with the nodes below c removed.
    """
    c = frozenset(c)
    if not union_of_nodes_by_scan(forest, c):
        raise ChoiceError(f"not a nonempty union of nodes: {sorted(map(repr, c))}")
    down_c = frozenset(y for y in forest.nodes if y <= c)
    result = set()
    for x in forest.nodes:
        up_x = forest.up(x)
        for y in down_c:
            if forest.up(y) - down_c == up_x:
                result.add(x)
                break
    return frozenset(result)


def chains_by_cover_walk(outcomes, nodes):
    """All maximal chains, as root-to-leaf paths of the cover relation."""
    result = set()
    roots = [x for x in nodes if not any(y > x for y in nodes)]

    def descend(path, current):
        children = [y for y in nodes
                    if y < current and not any(y < z < current for z in nodes)]
        if not children:
            result.add(frozenset(path))
            return
        for child in children:
            descend(path + [child], child)

    for root in roots:
        descend([root], root)
    return result


def assert_primitives_match_oracles(forest, tried):
    assert all(frozenset({w}) in forest.nodes for w in forest.outcomes)
    assert forest.maximal_chains() \
        == chains_by_cover_walk(forest.outcomes, forest.nodes)
    for c in tried:
        union = union_of_nodes_by_scan(forest, c)
        assert is_union_of_nodes(forest, c) == union
        if union:
            assert immediate_predecessors(forest, c) \
                == predecessors_by_scan(forest, c)
        else:
            with pytest.raises(ChoiceError):
                immediate_predecessors(forest, c)


def bundled_forms():
    from exform.instances import amd_sef, mp_sef, simple_sef, ultimatum_sef, \
        variant_sef
    return [simple_sef(1), simple_sef(2), variant_sef(1), amd_sef(1)[0],
            amd_sef(2)[0], mp_sef(1)[0], mp_sef(2)[0], ultimatum_sef()[0]]


class TestPrimitivesAgainstScans:
    @given(forests(), st.data())
    @settings(deadline=None, max_examples=60)
    def test_hypothesis_forests(self, f, data):
        outcomes = sorted(f.outcomes)
        subsets = data.draw(st.lists(st.sets(st.sampled_from(outcomes)),
                                     max_size=8))
        tried = list(f.nodes) + subsets + [set(), {outcomes[0], "alien"}]
        assert_primitives_match_oracles(f, tried)

    def test_bundled_forms(self):
        rng = random.Random(7)
        for form in bundled_forms():
            f = form.sdf.forest
            outcomes = sorted(f.outcomes)
            tried = list(f.nodes) + [set(), {outcomes[0], "alien"}]
            tried += [c for i in form.agents for c in form.choices[i]]
            tried += [c for i in form.agents
                      for cs in form.refchoices[i].values() for c in cs]
            tried += [rng.sample(outcomes, rng.randint(1, len(outcomes)))
                      for _ in range(40)]
            assert_primitives_match_oracles(f, tried)


# --- oracle: validation with a second subset scan for the minimal nodes -------

def validate_by_scans(outcomes, nodes):
    """validate_decision_forest as it was when the minimal nodes came from
    a second scan over all node pairs instead of from the up-sets, with
    its scans in canonical order."""
    from exform.forest import ValidationReport
    outcomes = frozenset(outcomes)
    nodes = frozenset(frozenset(x) for x in nodes)
    ordered = sorted(nodes, key=canonical)
    if not outcomes:
        return ValidationReport(False, "duality", "empty outcome set")
    for x in ordered:
        if not x:
            return ValidationReport(False, "rooted_forest", "empty node")
        if not x <= outcomes:
            return ValidationReport(False, "rooted_forest", ("alien outcomes", x))
    up = {}
    for x in ordered:
        above = [y for y in ordered if y >= x]
        for i, a in enumerate(above):
            for b in above[i + 1:]:
                if not (a <= b or b <= a):
                    return ValidationReport(False, "rooted_forest",
                                            ("incomparable ancestors", x, a, b))
        up[x] = frozenset(above)
    outcomes = sorted(outcomes, key=canonical)
    chains = {}
    for w in outcomes:
        chain = frozenset(x for x in nodes if w in x)
        if not chain:
            return ValidationReport(False, "duality", ("outcome in no node", w))
        chains[w] = chain
    maximal = {up[x] for x in nodes if not any(y < x for y in nodes)}
    if set(chains.values()) != maximal:
        missing = maximal - set(chains.values())
        extra = [w for w, c in chains.items() if c not in maximal]
        return ValidationReport(False, "duality",
                                ("chain mismatch", sorted(missing, key=canonical), extra))
    if len(set(chains.values())) != len(outcomes):
        collide = [w for w in outcomes
                   if sum(1 for v in outcomes if chains[v] == chains[w]) > 1]
        return ValidationReport(False, "duality", ("chains collide", collide))
    return ValidationReport(True)


def validate_by_up_sets(outcomes, nodes):
    """validate_decision_forest as it was before its one largest-first pass:
    every family went through the scans that now run only when that pass
    rejects it, here in canonical order."""
    from exform.forest import ValidationReport
    outcomes = frozenset(outcomes)
    nodes = frozenset(frozenset(x) for x in nodes)
    ordered = sorted(nodes, key=canonical)
    if not outcomes:
        return ValidationReport(False, "duality", "empty outcome set")
    for x in ordered:
        if not x:
            return ValidationReport(False, "rooted_forest", "empty node")
        if not x <= outcomes:
            return ValidationReport(False, "rooted_forest", ("alien outcomes", x))
    up = {}
    for x in ordered:
        above = [y for y in ordered if y >= x]
        for i, a in enumerate(above):
            for b in above[i + 1:]:
                if not (a <= b or b <= a):
                    return ValidationReport(False, "rooted_forest",
                                            ("incomparable ancestors", x, a, b))
        # finite chains always carry a maximum, so rootedness follows
        up[x] = frozenset(above)
    outcomes = sorted(outcomes, key=canonical)
    chains = {}
    for w in outcomes:
        chain = frozenset(x for x in nodes if w in x)
        if not chain:
            return ValidationReport(False, "duality", ("outcome in no node", w))
        chains[w] = chain
    # in a rooted forest the maximal chains are the up-sets of minimal
    # nodes, the nodes in no other node's up-set
    above_others = {a for x in nodes for a in up[x] if a != x}
    maximal = {up[x] for x in nodes if x not in above_others}
    if set(chains.values()) != maximal:
        missing = maximal - set(chains.values())
        extra = [w for w, c in chains.items() if c not in maximal]
        return ValidationReport(False, "duality",
                                ("chain mismatch", sorted(missing, key=canonical), extra))
    if len(set(chains.values())) != len(outcomes):
        collide = [w for w in outcomes
                   if sum(1 for v in outcomes if chains[v] == chains[w]) > 1]
        return ValidationReport(False, "duality", ("chains collide", collide))
    return ValidationReport(True)


@st.composite
def broken_families(draw):
    """A drawn forest's outcomes and nodes after one to three edits: drop a
    node or every node below one, add a drawn pair or subset (possibly
    empty or with an alien outcome), or drop or add an outcome."""
    f = draw(forests())
    outcomes = set(f.outcomes)
    nodes = [set(x) for x in f.nodes]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["drop node", "drop below", "add subset",
                                     "add pair", "add alien", "drop outcome",
                                     "add outcome"]))
        pool = sorted(outcomes) or ["w0"]
        if edit == "drop node" and nodes:
            nodes.pop(draw(st.integers(0, len(nodes) - 1)))
        elif edit == "drop below" and nodes:
            top = nodes[draw(st.integers(0, len(nodes) - 1))]
            nodes = [x for x in nodes if not x < top]
        elif edit == "add pair":
            nodes.append(set(draw(st.lists(st.sampled_from(pool), min_size=2,
                                           max_size=2))))
        elif edit in ("add subset", "add alien"):
            subset = draw(st.sets(st.sampled_from(pool)))
            nodes.append(subset | {"alien"} if edit == "add alien" else subset)
        elif edit == "drop outcome" and len(outcomes) > 1:
            outcomes.discard(draw(st.sampled_from(pool)))
        elif edit == "add outcome":
            outcomes.add(f"w{len(pool) + 10}")
    return outcomes, nodes


class TestValidationAgainstScans:
    @given(forests())
    @settings(deadline=None, max_examples=80)
    def test_valid_forests(self, f):
        report = validate_decision_forest(f.outcomes, f.nodes)
        assert report == validate_by_scans(f.outcomes, f.nodes) and report
        assert report == validate_by_up_sets(f.outcomes, f.nodes)

    @given(broken_families())
    @settings(deadline=None, max_examples=300)
    def test_edited_families(self, family):
        outcomes, nodes = family
        report = validate_decision_forest(outcomes, nodes)
        assert report == validate_by_scans(outcomes, nodes)
        assert report == validate_by_up_sets(outcomes, nodes)

    def test_bundled_and_workload_forests(self):
        # the largest-first pass accepts each of them on its own
        for forest in [form.sdf.forest for form in bundled_forms()] + [
                amd_sef(6)[0].sdf.forest, mp_sdf()[0].forest]:
            assert _laminar_with_singletons(forest.outcomes, forest.nodes)
            assert validate_decision_forest(forest.outcomes, forest.nodes) \
                == validate_by_up_sets(forest.outcomes, forest.nodes)

    @given(broken_families())
    @settings(deadline=None, max_examples=300)
    def test_one_pass_accepts_only_valid_families(self, family):
        # past the checks on the outcomes and each node, the pass accepts
        # only what the scans accept
        outcomes = frozenset(family[0])
        nodes = frozenset(map(frozenset, family[1]))
        if outcomes and all(x and x <= outcomes for x in nodes) \
                and _laminar_with_singletons(outcomes, nodes):
            assert validate_by_up_sets(outcomes, nodes)

    def test_edits_reach_every_failure(self):
        # the edited families above reach a chain mismatch, which reads
        # the minimal nodes, and each other kind of report
        seen = set()

        @given(broken_families())
        @settings(deadline=None, max_examples=300)
        def probe(family):
            report = validate_by_scans(*family)
            witness = report.witness
            seen.add(witness[0] if isinstance(witness, tuple) else witness)

        probe()
        assert {"chain mismatch", "chains collide", "incomparable ancestors",
                "alien outcomes", "outcome in no node", "empty node",
                None} <= seen
