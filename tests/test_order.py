from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import comb_sef, forest_posets, posets
from exform._util import budget, powerset
from exform.errors import BudgetExceeded, InputError, StructureError
from exform.order import (
    DM_CAP,
    CompletionReport,
    Cuts,
    Poset,
    _require_rooted_forest,
    bounds,
    check_dense_completion,
    dm_completion,
    is_complete_lattice,
    is_forest,
    order_predicates,
    roots_and_components,
)


def chain(n):
    elems = [f"c{i}" for i in range(n)]
    return Poset(elems, [(elems[i], elems[j]) for i in range(n) for j in range(i, n)])


def antichain(labels):
    return Poset(labels, [(x, x) for x in labels])


DIAMOND = Poset(
    "abcd",
    [(x, x) for x in "abcd"] + [("a", "b"), ("a", "c"), ("a", "d"),
                                ("b", "d"), ("c", "d")])


# --- oracles: the Poset scans that nothing outside the tests calls ----------

def relation(poset):
    """Every pair (a, b) with a <= b."""
    return frozenset((a, b) for a in poset.elements for b in poset.up(a))


def minimal(poset):
    return frozenset(x for x in poset.elements if poset.down(x) == {x})


def is_chain(poset, subset):
    subset = list(subset)
    return all(poset.leq(a, b) or poset.leq(b, a)
               for i, a in enumerate(subset) for b in subset[i + 1:])


def maximum_of(poset, subset):
    """The maximum of a subset, or None if it has no greatest member."""
    subset = frozenset(subset)
    return next((x for x in subset if x in poset.elements
                 and subset <= poset.down(x)), None)


def minimum_of(poset, subset):
    subset = frozenset(subset)
    return next((x for x in subset if x in poset.elements
                 and subset <= poset.up(x)), None)


class TestPosetConstruction:
    def test_rejects_unknown_label(self):
        with pytest.raises(InputError):
            Poset(["a"], [("a", "a"), ("a", "b")])

    def test_rejects_missing_reflexivity(self):
        with pytest.raises(InputError):
            Poset(["a", "b"], [("a", "a"), ("a", "b")])

    def test_rejects_asymmetry_violation(self):
        with pytest.raises(InputError):
            Poset("ab", [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])

    def test_rejects_missing_transitivity(self):
        with pytest.raises(InputError):
            Poset("abc", [(x, x) for x in "abc"] + [("a", "b"), ("b", "c")])


class TestBounds:
    def test_empty_subset_bounds_are_everything(self):
        p = antichain("ab")
        assert bounds(p, set()) == (frozenset("ab"), frozenset("ab"))

    def test_principal_sets_on_two_chain(self):
        p = chain(2)
        upper, lower = bounds(p, {"c0"})
        assert upper == frozenset({"c0", "c1"})
        assert lower == frozenset({"c0"})

    def test_diamond_pair(self):
        upper, lower = bounds(DIAMOND, {"b", "c"})
        assert upper == frozenset({"d"})
        assert lower == frozenset({"a"})

    def test_unknown_label_errors(self):
        with pytest.raises(InputError):
            bounds(chain(2), {"zz"})

    @given(posets())
    def test_brute_force_definition(self, p):
        for a in p.elements:
            subset = {a}
            upper, lower = bounds(p, subset)
            assert upper == frozenset(x for x in p.elements if p.leq(a, x))
            assert lower == frozenset(x for x in p.elements if p.leq(x, a))


class TestForestPredicates:
    def test_chain_is_forest(self):
        assert is_forest(chain(4))

    def test_diamond_is_not_forest(self):
        # b and c are incomparable members of the up-set of a
        assert not is_forest(DIAMOND)

    def test_disjoint_chains_are_forest(self):
        p = Poset("abcd", [(x, x) for x in "abcd"] + [("a", "b"), ("c", "d")])
        assert is_forest(p)

    def test_roots_and_components_two_chains(self):
        p = Poset("abcd", [(x, x) for x in "abcd"] + [("a", "b"), ("c", "d")])
        roots, components = roots_and_components(p)
        assert roots == frozenset({"b", "d"})
        assert components == frozenset({frozenset("ab"), frozenset("cd")})

    def test_single_chain_one_component(self):
        roots, components = roots_and_components(chain(3))
        assert len(components) == 1
        assert roots == frozenset({"c2"})

    def test_roots_error_on_non_forest(self):
        with pytest.raises(StructureError):
            roots_and_components(DIAMOND)

    @given(forest_posets())
    def test_components_partition_elements(self, p):
        roots, components = roots_and_components(p)
        assert frozenset().union(*components) == p.elements
        assert sum(len(c) for c in components) == len(p.elements)
        for c in components:
            assert len(c & roots) == 1


class TestOrderPredicates:
    def test_single_node_all_true(self):
        flags = order_predicates(chain(1))
        assert flags == {
            "weakly_up_discrete": True,
            "up_discrete": True,
            "coherent": True,
            "regular": True,
        }

    def test_non_forest_rejected(self):
        with pytest.raises(StructureError):
            order_predicates(DIAMOND)

    @given(forest_posets())
    def test_finite_forests_are_up_discrete_and_regular(self, p):
        flags = order_predicates(p)
        assert flags["up_discrete"]
        assert flags["regular"]
        assert flags["weakly_up_discrete"]
        assert flags["coherent"]

    @given(forest_posets())
    @settings(deadline=None)
    def test_exhaustive_search_agrees(self, p):
        assert order_predicates(p) == order_predicates_by_search(p)

    def test_comb_is_decided_where_the_search_runs_out(self):
        # the deepest decision path of a 16-outcome comb has 2^16 - 1
        # nonempty subchains, and the comb more than 2^16 in all
        poset = comb_sef(16).sdf.forest.as_poset()
        assert all(order_predicates(poset).values())
        with pytest.raises(BudgetExceeded):
            order_predicates_by_search(poset)


# --- oracle: the chain searches that finiteness settles ---------------------

CHAINS_CAP = 2 ** 16


def _maximal_chains(poset):
    # In a rooted forest every maximal chain is the up-set of a minimal element.
    return frozenset(poset.up(m) for m in minimal(poset))


def all_chains(poset):
    """Every nonempty chain of a rooted forest, enumerated exhaustively."""
    cap = budget(CHAINS_CAP)
    seen = set()
    for mc in _maximal_chains(poset):
        for subset in powerset(sorted(mc, key=repr)):
            if subset:
                seen.add(frozenset(subset))
                if len(seen) > cap:
                    raise BudgetExceeded(f"more than {cap} chains")
    return seen


def histories(poset):
    """
    Nonempty, non-maximal, upward closed chains of a rooted forest.

    In a finite forest these are exactly the principal up-sets of the
    non-minimal elements.
    """
    _require_rooted_forest(poset)
    maximal_chains = _maximal_chains(poset)
    result = set()
    for x in poset.elements:
        h = poset.up(x)
        if h not in maximal_chains:
            result.add(h)
    return result


def order_predicates_by_search(poset):
    """
    The four order-theoretic forest predicates, evaluated exhaustively.

    weakly_up_discrete: for every non-terminal x, every maximal chain of the
        strict down-set of x has a maximum.
    up_discrete: every nonempty chain has a maximum.
    coherent: every history without a minimum admits a continuation chain
        with a maximum (vacuous when all histories have minima).
    regular: for every non-maximal x, the strict up-set of x has an infimum.
    """
    _require_rooted_forest(poset)

    up_discrete = all(maximum_of(poset, c) is not None
                      for c in all_chains(poset))

    weakly = True
    for x in poset.elements:
        strict_down = poset.down(x) - {x}
        if not strict_down:
            continue  # terminal: nothing to check
        for m in strict_down:
            if poset.down(m) & strict_down == {m}:  # minimal within the strict down-set
                chain = poset.up(m) & strict_down
                if maximum_of(poset, chain) is None:
                    weakly = False

    coherent = True
    for h in histories(poset):
        if minimum_of(poset, h) is not None:
            continue
        continuations = [c for c in all_chains(poset)
                         if not (c & h) and is_chain(poset, c | h)
                         and all(poset.leq(y, x) for y in c for x in h)]
        if not any(maximum_of(poset, c) is not None for c in continuations):
            coherent = False

    regular = True
    for x in poset.elements:
        strict_up = poset.up(x) - {x}
        if strict_up and poset.infimum_of(strict_up) is None:
            regular = False

    return {
        "weakly_up_discrete": weakly,
        "up_discrete": up_discrete,
        "coherent": coherent,
        "regular": regular,
    }


def complete_by_ordered_pairs(poset):
    """
    True iff the finite poset is a complete lattice.

    For finite posets it suffices that all pairwise joins and meets exist
    along with a top and a bottom.
    """
    if not poset.elements:
        return False
    if maximum_of(poset, poset.elements) is None:
        return False
    if minimum_of(poset, poset.elements) is None:
        return False
    for a in poset.elements:
        for b in poset.elements:
            if poset.supremum_of({a, b}) is None:
                return False
            if poset.infimum_of({a, b}) is None:
                return False
    return True


def brute_force_complete(lattice):
    """Direct definition: every subset has a supremum and an infimum."""
    from exform._util import powerset
    for subset in powerset(sorted(lattice.elements, key=repr)):
        if lattice.supremum_of(subset) is None:
            return False
        if lattice.infimum_of(subset) is None:
            return False
    return True


class TestDMCompletion:
    def test_two_antichain_gives_four_lattice(self):
        lattice, embedding = dm_completion(antichain("ab"))
        assert len(lattice.elements) == 4
        assert frozenset() in lattice.elements
        assert frozenset("ab") in lattice.elements
        assert embedding["a"] == frozenset({"a"})

    def test_three_chain_maps_onto_three_chain(self):
        lattice, embedding = dm_completion(chain(3))
        assert len(lattice.elements) == 3
        assert set(embedding.values()) == set(lattice.elements)

    def test_singleton(self):
        lattice, _ = dm_completion(chain(1))
        assert len(lattice.elements) == 1

    @given(posets(max_size=5))
    def test_complete_lattice_shortcut_matches_brute_force(self, p):
        lattice = dm_completion(p)[0].as_poset()
        assert is_complete_lattice(lattice) == brute_force_complete(lattice)

    def test_empty_poset_is_not_a_lattice(self):
        assert not is_complete_lattice(Poset([], []))

    @given(posets(max_size=6))
    @settings(deadline=None, max_examples=150)
    def test_pairwise_meets_match_every_ordered_pair(self, p):
        # random posets are seldom lattices, their completions always are
        lattice, _ = dm_completion(p)
        for q in (p, lattice.as_poset()):
            assert is_complete_lattice(q) == complete_by_ordered_pairs(q)

    @given(posets())
    @settings(deadline=None)
    def test_dm_is_dense_completion(self, p):
        lattice, embedding = dm_completion(p)
        report = check_dense_completion(p, lattice, embedding)
        assert report.dense, report.detail
        assert report.is_lattice_complete

    @given(posets(max_size=7))
    @settings(deadline=None, max_examples=40)
    def test_dm_up_to_seven_elements(self, p):
        lattice, embedding = dm_completion(p)
        assert check_dense_completion(p, lattice, embedding).dense

    @given(st.integers(min_value=1, max_value=7))
    def test_chains_complete_to_chains(self, n):
        lattice, _ = dm_completion(chain(n))
        assert is_chain(lattice, lattice.elements)
        assert len(lattice.elements) == n


class TestCheckDenseCompletion:
    def test_identity_on_complete_lattice(self):
        lattice, _ = dm_completion(antichain("ab"))
        phi = {x: x for x in lattice.elements}
        assert check_dense_completion(lattice.as_poset(), lattice, phi).dense

    def test_extra_middle_point_is_not_dense(self):
        # 2-antichain into the 4-lattice padded with a fifth point between
        # bottom and top that bounds neither image point tightly
        labels = ["bot", "x", "y", "mid", "top"]
        leq = [(a, a) for a in labels]
        leq += [("bot", z) for z in ["x", "y", "mid", "top"]]
        leq += [("x", "top"), ("y", "top"), ("mid", "top")]
        lattice = Poset(labels, leq)
        report = check_dense_completion(antichain("ab"), lattice,
                                        {"a": "x", "b": "y"})
        assert not report.dense

    def test_dense_implies_complete_invariant(self):
        report = CompletionReport(dense=True, is_lattice_complete=True, embedding={})
        assert report.dense <= report.is_lattice_complete

    def test_non_embedding_reported(self):
        lattice, _ = dm_completion(chain(2))
        collapse = {x: frozenset({"c0"}) for x in ["c0", "c1"]}
        report = check_dense_completion(chain(2), lattice, collapse)
        assert not report.dense


def completion_extension(poset, lattice, phi, other, psi):
    """
    Canonical candidate embedding of one completion into another: each
    lattice point maps to the supremum of the psi-images lying below it.

    Returns the map, or None if some required supremum is missing.
    """
    result = {}
    for a in lattice.elements:
        below = [psi[x] for x in poset.elements if lattice.leq(phi[x], a)]
        sup = other.supremum_of(below)
        if sup is None:
            return None
        result[a] = sup
    return result


class TestSmallness:
    @given(posets(max_size=5))
    @settings(deadline=None, max_examples=40)
    def test_dm_embeds_into_any_dense_completion(self, p):
        # A dense completion built independently: DM applied twice commutes,
        # so DM(P) itself plays the role of the other completion M; the
        # canonical extension map must then be an order embedding.
        lattice, phi = dm_completion(p)
        other, psi = dm_completion(p)
        other = other.as_poset()
        ext = completion_extension(p, lattice, phi, other, psi)
        assert ext is not None
        for a in lattice.elements:
            for b in lattice.elements:
                assert lattice.leq(a, b) == other.leq(ext[a], ext[b])
        for x in p.elements:
            assert ext[phi[x]] == psi[x]

    def test_extension_into_padded_completion(self):
        # 2-antichain completed by the 4-lattice, then mapped into the
        # 4-lattice again through relabeled copies.
        p = antichain("ab")
        lattice, phi = dm_completion(p)
        relabel = {a: frozenset({x + "!" for x in a}) for a in lattice.elements}
        other = Poset(relabel.values(),
                      [(relabel[a], relabel[b]) for a in lattice.elements
                       for b in lattice.elements if lattice.leq(a, b)])
        psi = {x: relabel[phi[x]] for x in p.elements}
        ext = completion_extension(p, lattice, phi, other, psi)
        assert ext == relabel


# --- oracles: the order layer as scans over pairs and subsets ---------------

def check_relation_by_scan(elements, leq):
    """The relation checks of the pair-scanning Poset constructor."""
    elements = frozenset(elements)
    pairs = frozenset((a, b) for (a, b) in leq)
    for (a, b) in pairs:
        if a not in elements or b not in elements:
            raise InputError(f"relation mentions unknown label: {(a, b)!r}")
    # No silent reflexive-transitive closure: a malformed relation is an error.
    for x in elements:
        if (x, x) not in pairs:
            raise InputError(f"relation not reflexive at {x!r}")
    for (a, b) in pairs:
        if a != b and (b, a) in pairs:
            raise InputError(f"relation not antisymmetric on {(a, b)!r}")
    for (a, b) in pairs:
        for c in elements:
            if (b, c) in pairs and (a, c) not in pairs:
                raise InputError(f"relation not transitive via {(a, b, c)!r}")
    return pairs


def bounds_by_scan(poset, subset):
    """Upper and lower bound sets of a subset; everything for the empty set."""
    subset = frozenset(subset)
    unknown = subset - poset.elements
    if unknown:
        raise InputError(f"unknown labels: {sorted(map(repr, unknown))}")
    upper = frozenset(x for x in poset.elements
                      if all(poset.leq(a, x) for a in subset))
    lower = frozenset(x for x in poset.elements
                      if all(poset.leq(x, a) for a in subset))
    return upper, lower


def maximum_by_scan(poset, subset):
    pairs = relation(poset)
    for x in subset:
        if all((y, x) in pairs for y in subset):
            return x
    return None


def minimum_by_scan(poset, subset):
    pairs = relation(poset)
    for x in subset:
        if all((x, y) in pairs for y in subset):
            return x
    return None


def _upper_closure(poset, subset):
    return bounds_by_scan(poset, subset)[0]


def _lower_closure(poset, subset):
    return bounds_by_scan(poset, subset)[1]


def dm_completion_by_scan(poset):
    """
    The Dedekind-MacNeille completion: all subsets A with A^{ul} = A,
    ordered by inclusion, together with the embedding x -> down-set of x.
    """
    cap = budget(DM_CAP)
    if 2 ** len(poset.elements) > cap:
        raise BudgetExceeded(
            f"2^{len(poset.elements)} subsets exceed the budget {cap}")
    closed = set()
    for subset in powerset(sorted(poset.elements, key=repr)):
        a = frozenset(subset)
        if _lower_closure(poset, _upper_closure(poset, a)) == a:
            closed.add(a)
    leq = [(a, b) for a in closed for b in closed if a <= b]
    lattice = Poset(closed, leq)
    embedding = {x: poset.down(x) for x in poset.elements}
    return lattice, embedding


@st.composite
def relations(draw):
    """A poset's relation with up to three changes, each of which breaks
    one of its checks: a reflexive pair dropped, the reverse of a strict
    pair added, a pair that two others imply dropped, or a pair with the
    unknown label "z" added."""
    p = draw(posets(max_size=5))
    labels = sorted(p.elements)
    pairs = set(relation(p))
    for change in draw(st.lists(st.sampled_from(
            ["reflexive", "antisymmetric", "transitive", "unknown"]),
            max_size=3)):
        strict = sorted((a, b) for (a, b) in pairs if a != b)
        implied = [(a, c) for (a, c) in strict
                   if any((a, b) in pairs and (b, c) in pairs
                          for b in labels if b not in (a, c))]
        if change == "reflexive":
            x = draw(st.sampled_from(labels))
            pairs.discard((x, x))
        elif change == "antisymmetric" and strict:
            a, b = draw(st.sampled_from(strict))
            pairs.add((b, a))
        elif change == "transitive" and implied:
            pairs.discard(draw(st.sampled_from(implied)))
        elif change == "unknown":
            pairs.add((draw(st.sampled_from(labels)), "z"))
    return labels, sorted(pairs)


class TestAgainstScans:
    @given(relations())
    @settings(max_examples=300)
    def test_relation_checks(self, rel):
        elements, leq = rel
        try:
            pairs = check_relation_by_scan(elements, leq)
        except InputError as err:
            with pytest.raises(InputError) as got:
                Poset(elements, leq)
            assert str(got.value) == str(err)
            return
        p = Poset(elements, leq)
        assert relation(p) == pairs
        for x in elements:
            assert p.up(x) == frozenset(y for y in elements if (x, y) in pairs)
            assert p.down(x) == frozenset(y for y in elements
                                          if (y, x) in pairs)

    @pytest.mark.parametrize("leq, kind", [
        ([("a", "a"), ("b", "b"), ("a", "?")], "unknown label"),
        ([("a", "a"), ("a", "b")], "not reflexive"),
        ([("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")], "not antisymmetric"),
        ([("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
         "not transitive"),
        # several witnesses c among many elements: the first of them in
        # the elements' order is named
        ([(x, x) for x in "abcdefghijklmnopqrstuvwxyz"] + [("a", "b")]
         + [("b", c) for c in "wxyz"], "not transitive"),
    ])
    def test_each_failure_names_the_same_witness(self, leq, kind):
        elements = sorted({x for pair in leq for x in pair} - {"?"})
        with pytest.raises(InputError) as want:
            check_relation_by_scan(elements, leq)
        with pytest.raises(InputError) as got:
            Poset(elements, leq)
        assert kind in str(want.value)
        assert str(got.value) == str(want.value)

    @given(posets(), st.data())
    def test_bounds_and_extrema(self, p, data):
        labels = sorted(p.elements)
        subset = data.draw(st.sets(st.sampled_from(labels)))
        assert bounds(p, subset) == bounds_by_scan(p, subset)
        with_unknown = data.draw(st.lists(st.sampled_from(labels + ["z"])))
        for members in (subset, with_unknown):
            assert maximum_of(p, members) == maximum_by_scan(p, members)
            assert minimum_of(p, members) == minimum_by_scan(p, members)

    @given(posets(max_size=8))
    @settings(deadline=None, max_examples=150)
    def test_same_cuts(self, p):
        lattice, embedding = dm_completion(p)
        want, want_embedding = dm_completion_by_scan(p)
        assert lattice.elements == want.elements
        assert {(a, b) for a in lattice.elements for b in lattice.elements
                if lattice.leq(a, b)} == relation(want)
        assert embedding == want_embedding


class TestCutBudget:
    # the 3-antichain has 5 cuts: the empty set, three points, everything;
    # the cap counts cuts x elements, 15 here
    def test_a_cap_of_cuts_times_elements_decides(self, monkeypatch):
        monkeypatch.setenv("EXFORM_BUDGET", "15")
        lattice, _ = dm_completion(antichain("abc"))
        assert len(lattice.elements) == 5

    def test_one_cut_over_the_cap_is_undecided(self, monkeypatch):
        monkeypatch.setenv("EXFORM_BUDGET", "14")
        with pytest.raises(BudgetExceeded,
                           match="^more than 4 cuts of a 3-element poset$"):
            dm_completion(antichain("abc"))

    def test_default_cap_bounds_the_family(self):
        # the 32-element crown's 2^16 cuts x 32 elements fit 2^22; the
        # 34-element crown's 2^17 cuts x 34 do not, and the closure stops
        # before it holds them all
        assert len(dm_completion(crown(16))[0]) == 2 ** 16
        with pytest.raises(BudgetExceeded,
                           match="^more than 123361 cuts of a 34-element poset$"):
            dm_completion(crown(17))


# --- oracles: the bound questions as scans, before the principal-set index --

def supremum_by_scan(poset, subset):
    return minimum_of(poset, bounds(poset, subset)[0])


def infimum_by_scan(poset, subset):
    return maximum_of(poset, bounds(poset, subset)[1])


def complete_by_pairwise_bounds(poset):
    """A top, and a greatest lower bound of every pair, each found by
    scanning the bound sets."""
    if not poset.elements:
        return False
    if maximum_of(poset, poset.elements) is None:
        return False
    return all(infimum_by_scan(poset, {a, b}) is not None
               for a, b in combinations(poset.elements, 2))


def forest_by_chains(poset):
    return all(is_chain(poset, poset.up(x)) for x in poset.elements)


def roots_and_components_by_scan(poset):
    if not forest_by_chains(poset):
        raise StructureError("not a forest")
    root_of = {x: maximum_of(poset, poset.up(x)) for x in poset.elements}
    roots = frozenset(root_of.values())
    components = frozenset(
        frozenset(x for x in poset.elements if root_of[x] == r) for r in roots)
    return roots, components


def assert_bounds_agree(poset, subsets):
    for subset in subsets:
        assert poset.supremum_of(subset) == supremum_by_scan(poset, subset)
        assert poset.infimum_of(subset) == infimum_by_scan(poset, subset)
    assert is_complete_lattice(poset) == complete_by_pairwise_bounds(poset)
    assert is_forest(poset) == forest_by_chains(poset)
    try:
        want = roots_and_components_by_scan(poset)
    except StructureError:
        with pytest.raises(StructureError, match="not a forest"):
            roots_and_components(poset)
    else:
        assert roots_and_components(poset) == want


def every_subset(poset):
    return [frozenset(s) for s in powerset(sorted(poset.elements, key=repr))]


BOWTIE_WITH_TOP = Poset(
    ["a", "b", "c", "d", "t"],
    [(x, x) for x in "abcdt"] + [(x, y) for x in "ab" for y in "cdt"]
    + [("c", "t"), ("d", "t")])


class TestAgainstBoundScans:
    @given(posets())
    @settings(deadline=None)
    def test_random_posets(self, p):
        assert_bounds_agree(p, every_subset(p))

    @given(forest_posets())
    def test_random_forests(self, p):
        assert is_forest(p)
        assert_bounds_agree(p, every_subset(p))

    @given(posets(max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_dm_lattices(self, p):
        lattice = dm_completion(p)[0].as_poset()
        assert is_complete_lattice(lattice)
        pairs = [frozenset(pair) for pair in combinations(lattice.elements, 2)]
        assert_bounds_agree(lattice, pairs + [frozenset(lattice.elements)])

    @pytest.mark.parametrize("poset, lattice, forest", [
        # no top: two maximal elements, and no meet of a and b either
        (antichain("ab"), False, True),
        # a top, but c and d have the two maximal lower bounds a and b
        (BOWTIE_WITH_TOP, False, False),
        # a lattice whose up-set of a holds the incomparable b and c
        (DIAMOND, True, False),
        # a forest of two chains, with no top
        (Poset("abcd", [(x, x) for x in "abcd"] + [("a", "b"), ("c", "d")]),
         False, True),
        (chain(4), True, True),
        (Poset([], []), False, True),
    ])
    def test_named_posets(self, poset, lattice, forest):
        assert is_complete_lattice(poset) == lattice
        assert is_forest(poset) == forest
        assert_bounds_agree(poset, every_subset(poset))

    def test_bowtie_pair_has_no_meet_but_two_maximal_lower_bounds(self):
        lower = bounds(BOWTIE_WITH_TOP, {"c", "d"})[1]
        assert lower == frozenset("ab")
        assert BOWTIE_WITH_TOP.infimum_of({"c", "d"}) is None
        assert BOWTIE_WITH_TOP.supremum_of({"a", "b"}) is None
        assert BOWTIE_WITH_TOP.supremum_of({"c", "d"}) == "t"

    def test_unknown_labels_still_raise(self):
        for ask in (DIAMOND.supremum_of, DIAMOND.infimum_of):
            with pytest.raises(InputError, match="unknown labels"):
                ask({"a", "zz"})


# --- the one-pass check of a cut family against the definitions ------------

def crown(half):
    """a_i < b_j for i != j: 2 * half elements, 2^half cuts."""
    low = [f"a{i}" for i in range(half)]
    high = [f"b{i}" for i in range(half)]
    return Poset(low + high, [(x, x) for x in low + high]
                 + [(a, b) for i, a in enumerate(low)
                    for j, b in enumerate(high) if i != j])


def by_definitions(poset, family, phi):
    """The dense-completion check on the family as an explicit Poset."""
    return check_dense_completion(poset, family.as_poset(), phi)


def assert_definitions_agree(poset, family, phi):
    report = check_dense_completion(poset, family, phi)
    assert report == by_definitions(poset, family, phi)
    assert report.is_lattice_complete == is_complete_lattice(family.as_poset())
    return report


NAMED = {"empty": Poset([], []),
         **{f"chain{n}": chain(n) for n in (1, 2, 5, 18)},
         **{f"antichain{n}": antichain([f"x{i}" for i in range(n)])
            for n in (1, 2, 5, 18)},
         **{f"crown{2 * half}": crown(half) for half in range(1, 10)}}


class TestCutFamilyPass:
    @given(posets())
    @settings(deadline=None)
    def test_random_posets(self, p):
        lattice, phi = dm_completion(p)
        report = assert_definitions_agree(p, lattice, phi)
        assert report.dense and report.is_lattice_complete

    @pytest.mark.parametrize("name", NAMED)
    def test_named_posets(self, name):
        poset = NAMED[name]
        lattice, phi = dm_completion(poset)
        report = assert_definitions_agree(poset, lattice, phi)
        assert report.dense and report.is_lattice_complete

    def test_empty_poset_completes_to_one_cut(self):
        lattice, phi = dm_completion(Poset([], []))
        assert lattice.elements == {frozenset()}
        assert check_dense_completion(Poset([], []), lattice, phi) \
            == CompletionReport(True, True, {})

    def test_dm_path_builds_no_poset_over_the_cuts(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a relation over the cuts was built")
        monkeypatch.setattr(Cuts, "as_poset", refuse)
        monkeypatch.setattr("exform.order.is_complete_lattice", refuse)
        p = crown(8)
        lattice, phi = dm_completion(p)
        assert check_dense_completion(p, lattice, phi).dense

    def test_dm_path_decodes_no_cut(self, monkeypatch):
        # the cuts stay int masks through the check and the count that
        # `exform dm` makes; only a read of ``elements`` decodes them
        decoded = []
        monkeypatch.setattr(Cuts, "elements",
                            property(lambda cuts: decoded.append(cuts)))
        p = crown(8)
        lattice, phi = dm_completion(p)
        assert check_dense_completion(p, lattice, phi).dense
        assert len(lattice) == 2 ** 8
        assert not decoded

    @given(posets(), st.data())
    @settings(deadline=None)
    def test_a_cut_dropped(self, p, data):
        lattice, phi = dm_completion(p)
        spare = sorted(lattice.elements - set(phi.values()), key=sorted)
        if not spare:
            return
        family = Cuts(lattice.elements - {data.draw(st.sampled_from(spare))})
        assert not assert_definitions_agree(p, family, phi).dense

    @given(posets(), st.data())
    @settings(deadline=None)
    def test_a_non_cut_added(self, p, data):
        lattice, phi = dm_completion(p)
        others = [frozenset(s) for s in powerset(sorted(p.elements))
                  if frozenset(s) not in lattice.elements]
        others.append(frozenset({"z"}))
        family = Cuts(lattice.elements | {data.draw(st.sampled_from(others))})
        assert not assert_definitions_agree(p, family, phi).dense

    @given(posets(), st.data())
    @settings(deadline=None)
    def test_an_image_swapped(self, p, data):
        lattice, phi = dm_completion(p)
        below = sorted((a, b) for (a, b) in relation(p) if a != b)
        if not below:
            return
        a, b = data.draw(st.sampled_from(below))
        swapped = {**phi, a: phi[b], b: phi[a]}
        assert not assert_definitions_agree(p, lattice, swapped).dense

    def test_swapping_twins_is_still_dense(self):
        # an automorphism of the poset: not x -> down-set of x, so the
        # definitions decide, and the map is a dense completion
        lattice, phi = dm_completion(antichain("ab"))
        swapped = {"a": phi["b"], "b": phi["a"]}
        report = assert_definitions_agree(antichain("ab"), lattice, swapped)
        assert report.dense

    def test_mutations_of_a_crown(self):
        p = crown(4)
        lattice, phi = dm_completion(p)
        spare = sorted(lattice.elements - set(phi.values()), key=sorted)
        families = [Cuts(lattice.elements - {cut}) for cut in spare]
        families += [Cuts(lattice.elements | {frozenset(s)})
                     for s in powerset(sorted(p.elements))
                     if frozenset(s) not in lattice.elements][:40]
        for family in families:
            assert not assert_definitions_agree(p, family, phi).dense
        assert not assert_definitions_agree(
            p, lattice, {**phi, "a0": phi["b1"], "b1": phi["a0"]}).dense

    def test_report_is_truthy_iff_dense(self):
        lattice, _ = dm_completion(chain(2))
        collapse = {x: frozenset({"c0"}) for x in ["c0", "c1"]}
        report = check_dense_completion(chain(2), lattice, collapse)
        assert not report
        assert CompletionReport(True, True, {})
        assert not CompletionReport(False, True, {})
