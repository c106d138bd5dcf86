import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import comb_sef, forest_posets, posets
from exform._util import budget, powerset
from exform.errors import BudgetExceeded, InputError, StructureError
from exform.order import (
    CompletionReport,
    Poset,
    _require_rooted_forest,
    bounds,
    check_dense_completion,
    completion_extension,
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
    return frozenset(poset.up(m) for m in poset.minimal())


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

    up_discrete = all(poset.maximum_of(c) is not None for c in all_chains(poset))

    weakly = True
    for x in poset.elements:
        strict_down = poset.down(x) - {x}
        if not strict_down:
            continue  # terminal: nothing to check
        for m in strict_down:
            if poset.down(m) & strict_down == {m}:  # minimal within the strict down-set
                chain = poset.up(m) & strict_down
                if poset.maximum_of(chain) is None:
                    weakly = False

    coherent = True
    for h in histories(poset):
        if poset.minimum_of(h) is not None:
            continue
        continuations = [c for c in all_chains(poset)
                         if not (c & h) and poset.is_chain(c | h)
                         and all(poset.leq(y, x) for y in c for x in h)]
        if not any(poset.maximum_of(c) is not None for c in continuations):
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
    if poset.maximum_of(poset.elements) is None:
        return False
    if poset.minimum_of(poset.elements) is None:
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
        lattice, _ = dm_completion(p)
        assert is_complete_lattice(lattice) == brute_force_complete(lattice)

    def test_empty_poset_is_not_a_lattice(self):
        assert not is_complete_lattice(Poset([], []))

    @given(posets(max_size=6))
    @settings(deadline=None, max_examples=150)
    def test_pairwise_meets_match_every_ordered_pair(self, p):
        # random posets are seldom lattices, their completions always are
        lattice, _ = dm_completion(p)
        for q in (p, lattice):
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
        assert lattice.is_chain(lattice.elements)
        assert len(lattice.elements) == n


class TestCheckDenseCompletion:
    def test_identity_on_complete_lattice(self):
        lattice, _ = dm_completion(antichain("ab"))
        phi = {x: x for x in lattice.elements}
        assert check_dense_completion(lattice, lattice, phi).dense

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


class TestSmallness:
    @given(posets(max_size=5))
    @settings(deadline=None, max_examples=40)
    def test_dm_embeds_into_any_dense_completion(self, p):
        # A dense completion built independently: DM applied twice commutes,
        # so DM(P) itself plays the role of the other completion M; the
        # canonical extension map must then be an order embedding.
        lattice, phi = dm_completion(p)
        other, psi = dm_completion(p)
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
