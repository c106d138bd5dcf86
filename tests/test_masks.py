"""
The slice table on outcome masks against the frozenset table it replaced,
kept below verbatim apart from its name: every record, entry and adapted
verdict, the offered map as sets, and the menus read off the records in
order (frozensets filled in another order may iterate in another one),
the reports with their Axiom 1, 2, 4 and 6 witnesses in canonical order,
and the completed choices.  Also: the walks up the forest and the cuts by
a root per build, the down-sets Axiom 4 reads, and the witness order of a
form that fails Axiom 4 at several nodes.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (forests, make_rng, meet_oracle, offered_oracle,
                      random_strict_sef, unvalidated)
from exform._util import canonical
from exform.forest import immediate_predecessors
from exform.instances import amd_sef, mp_sef
from exform.adapted import slice_table
from exform.sdf import StochasticDecisionForest, _require_partition
from exform.sef import _menu, complete_choices, info_sets, validate_sef
from test_slices import (
    BUNDLED,
    _menus,
    dropped,
    entry_of,
    parts_of,
    records,
    slices_of,
)
from test_validate import (
    adapted_unions_oracle,
    assert_validates_as_oracle,
    bits_table,
)

# --- the frozenset table -----------------------------------------------------

def _join(fixed, entry):
    """
    The (known, value) bits ``fixed`` with a slice's entry added, or None
    when the slice is a whole root or its bits disagree with known ones:
    ``(value ^ v) & known & mask`` is not 0.
    """
    if entry is None:
        return None
    (known, value), (mask, bits) = fixed, entry
    if (value ^ bits) & known & mask:
        return None
    return known | mask, value | bits


class FrozenSliceTable:
    """
    An agent's choices, each cut once by the root of every scenario's
    tree.  Every node of a tree lies inside its root, so x <= c iff
    x <= c & root: a choice's predecessor set is the union of its slices'
    sets, and each distinct (scenario, slice) is walked up the forest once.
    ``slices`` maps each choice to its slice on each scenario, in scenario
    order, interned per tree so that equal slices are one object;
    ``preds`` maps it to its predecessor set, and per tree, ``trees`` maps
    each distinct slice cut or read there to its record: (the slice, its
    predecessor set, the choices cut to it when it is nonempty), read by
    this class alone.

    Adaptedness is read one slice at a time: a move m defined at w offers
    slice s iff m(w) is an immediate predecessor of s, and jointly with a
    reference choice r iff m(w) precedes s & r.  ``entry(w, s)`` reads
    these as two ints over the agent's variables: one availability
    variable per move, and where the move offers s, one measurability
    variable per (move, reference choice, block of the move's partition);
    ``mask`` holds the variables the slice sets and ``value`` their bits.
    A choice is adapted iff no slice is a whole root and, joined scenario
    by scenario, each entry agrees with the bits known so far: then
    availability is constant on each move's domain, and joint availability
    on each block.  The variables are laid out on the first entry read, so
    a malformed partition is reported by the check that first reads one.
    The table refers to no form, so it is freed when the call that built
    it returns.
    """

    def __init__(self, sdf, agent_moves, info, refchoices, choices=()):
        self.forest = sdf.forest
        self.scenarios = sdf.scenarios
        self.position = {w: k for k, w in enumerate(sdf.scenarios)}
        self.roots = [sdf.root_of(w) for w in sdf.scenarios]
        self.trees = [{} for _ in self.roots]
        self.entries = [{} for _ in self.roots]
        self.slices, self.preds = {}, {}
        self.shared = {}   # equal predecessor sets are kept once
        self.agent = agent_moves, info, refchoices
        for c in choices:
            self.cut(c)

    def _record(self, k, s):
        """The record of a slice of tree k, walked once."""
        got = self.trees[k].get(s)
        if got is None:
            p = immediate_predecessors(self.forest, s) \
                if s and s != self.roots[k] else frozenset()
            got = self.trees[k][s] = (s, self.shared.setdefault(p, p), [])
        return got

    def cut(self, c):
        """Record the choice's slices, predecessor set and memberships."""
        records = []
        for k, (tree, root) in enumerate(zip(self.trees, self.roots)):
            s = c & root   # most slices repeat: look them up inline
            record = tree.get(s) or self._record(k, s)
            if s:
                record[2].append(c)
            records.append(record)
        self.slices[c] = tuple(s for s, _, _ in records)
        preds = frozenset().union(*[p for _, p, _ in records])
        self.preds[c] = self.shared.setdefault(preds, preds)

    def distinct(self, w):
        """The cut choices' distinct nonempty slices on w, sorted."""
        tree = self.trees[self.position[w]]
        return sorted((s for s, _, cs in tree.values() if cs), key=sorted)

    def slices_at(self, w, x):
        """The distinct slices on the scenario of the choices offered at x,
        a move of its tree: x precedes c iff it precedes c's slice there."""
        return [s for s, p, _ in self.trees[self.position[w]].values()
                if x in p]

    def groups_at(self, w, x):
        """The choices offered at x, grouped by slice as in ``slices_at``."""
        return tuple(tuple(cs) for _, p, cs
                     in self.trees[self.position[w]].values() if x in p)

    def overlapping(self):
        """(k, members, members2) for each pair of distinct slices of tree
        k that overlap and share a nonempty predecessor set; two choices
        with one predecessor set have slices with one in every tree."""
        for k, tree in enumerate(self.trees):
            for (s, p, cs), (s2, p2, cs2) in itertools.combinations(
                    tree.values(), 2):
                if p and p == p2 and s & s2:
                    yield k, cs, cs2

    @functools.cached_property
    def at(self):
        """Per scenario, each agent move defined there as (its availability
        bit, its node, [(measurability bit, reference choice)])."""
        agent_moves, info, refchoices = self.agent
        at = {w: [] for w in self.scenarios}
        count = itertools.count()
        for m in agent_moves:
            _require_partition(info.get(m), m)
            available = 1 << next(count)
            refs = [frozenset(r) for r in refchoices.get(m, ())]
            for block in info[m]:
                joint = [(1 << next(count), r) for r in refs]
                for w in block:
                    at[w].append((available, m(w), joint))
        return at

    def entry(self, w, s):
        """(mask, value) of slice s on scenario w, or None when s is the
        whole root; read once, off the walk of the slice's predecessors."""
        k = self.position[w]
        memo = self.entries[k]
        if s in memo:
            return memo[s]
        at = self.at[w]   # laid out, and its partitions checked, once
        s, offered, _ = self._record(k, s)
        if s == self.roots[k]:
            memo[s] = None
            return None
        mask = value = 0
        for available, x, joint in at:
            mask |= available
            if x in offered:
                value |= available
                for var, r in joint:
                    mask |= var
                    both = s & r
                    if both and x in (offered if both == s else
                                      immediate_predecessors(self.forest, both)):
                        value |= var
        memo[s] = mask, value
        return memo[s]

    def adapted(self, c):
        """Whether the cut choice is adapted: its slices' entries join."""
        fixed = (0, 0)
        for w, s, memo in zip(self.scenarios, self.slices[c], self.entries):
            # an entry read is a pair; entry() reads the rest
            fixed = _join(fixed, memo.get(s) or self.entry(w, s))
            if fixed is None:
                return False
        return True


def frozen_table(form, i, choices):
    return FrozenSliceTable(form.sdf, form.agent_moves[i], form.info[i],
                            form.refchoices[i], choices)


def frozen_offered(form, i, table):
    """Each move's choices offered there, as the menu index listed them
    from each choice's predecessor set before it read the records."""
    offered = {}
    for c in form.choices[i]:
        for x in table.preds[c]:
            offered.setdefault(x, []).append(c)
    return offered


def frozen_menus(form, i, offered):
    """The information sets and their sorted menus, from the lists."""
    frozen = {(i, x): frozenset(cs) for x, cs in offered.items()}
    by_menu = {}
    for m in sorted(form.agent_moves[i], key=canonical):
        by_menu.setdefault(frozenset.intersection(*[
            frozen.get((i, m(w)), frozenset()) for w in m.domain]),
            []).append(m)
    return [(frozenset(ms), tuple(sorted(menu, key=sorted)))
            for menu, ms in by_menu.items()]


def complete_oracle(form):
    """The choices of the completion: each agent's choices and every
    nonempty adapted union of the oracle's search, in its order, stored
    as a form stores them."""
    result = {}
    for i in form.agents:
        bits, closure = bits_table(form, i), set(form.choices[i])
        for members, menu in _menus(form, i):
            closure.update(c for c in adapted_unions_oracle(
                form, bits, i, members, menu, void=True) if c)
        result[i] = frozenset(frozenset(c) for c in frozenset(closure))
    return result


# --- comparison --------------------------------------------------------------

def assert_table_as_frozen(form):
    """Each agent's table, its choices cut and joined in one batch,
    against the frozenset table: records, entries, verdicts, predecessor
    sets and every reader, each frozenset in the same iteration order but
    the offered sets and the choices' predecessor sets, which a batch
    unions per component and which are compared as sets."""
    sdf = form.sdf
    for i in form.agents:
        frozen = frozen_table(form, i, form.choices[i])
        table = slice_table(form, i, ())
        assert table.cut(form.choices[i]) \
            == [c for c in form.choices[i] if not frozen.adapted(c)]
        for c in form.choices[i]:
            assert list(map(list, slices_of(table, c))) \
                == list(map(list, frozen.slices[c]))
            assert table.preds[c] == frozen.preds[c]
        for k, w in enumerate(sdf.scenarios):
            made = records(table, w)
            assert [(list(s), list(p), cs) for s, p, cs in made] \
                == [(list(s), list(p), cs) for s, p, cs
                    in frozen.trees[k].values()]
            for s, _, _ in made:
                assert entry_of(table, w, s) == frozen.entry(w, s)
            assert table.distinct(w) == frozen.distinct(w)
            for x in sdf.tree_of(w):
                assert table.slices_at(x) == frozen.slices_at(w, x)
                assert table.groups_at(x) == frozen.groups_at(w, x)
        assert list(table.overlapping()) == list(frozen.overlapping())
        offered = frozen_offered(form, i, frozen)
        got = {x: form.available_at_move(i, x) for x in sdf.forest.moves()}
        assert offered_oracle(table) \
            == {x: cs for x, cs in got.items() if cs} \
            == {x: frozenset(cs) for x, cs in offered.items()}
        for m in sdf.random_moves:
            assert form.available_at(i, m) == meet_oracle(
                {(i, x): cs for x, cs in got.items()}, i, m)
        sets, _ = info_sets(form, i)
        assert [(p.random_moves, _menu(form, p)) for p in sets] \
            == frozen_menus(form, i, offered)


def assert_as_frozen(parts, complete=True):
    """The tables, the menus and the report against the oracles, and on
    a valid form its completion; returns the report."""
    report = assert_validates_as_oracle(parts)
    form = unvalidated(parts)
    assert_table_as_frozen(form)
    if report.valid and complete:
        expected = complete_oracle(form)
        completed = complete_choices(form).choices
        assert {i: list(cs) for i, cs in completed.items()} \
            == {i: list(cs) for i, cs in expected.items()}
    return report


def drops(form):
    """Per agent, the form's parts with one choice dropped, and the
    choice when each of its slices is still a slice of a choice left on
    its menu: then it is an adapted union of the menu's slices, and
    Axiom 6 must report it."""
    sdf = form.sdf
    for i in form.agents:
        for members, menu in _menus(form, i):
            for c in menu:
                rest = [c2 for c2 in menu if c2 != c]
                covered = all(c & sdf.root_of(w) in {c2 & sdf.root_of(w)
                                                      for c2 in rest}
                              for w in sdf.scenarios)
                yield parts_of(form, {**form.choices,
                                      i: form.choices[i] - {c}}), \
                    (i, c) if covered else None


def assert_drops_fail_axiom6(form):
    witnessed = 0
    for parts, missing in drops(form):
        report = assert_as_frozen(parts, complete=False)
        if missing is not None:
            assert report.checked["axiom6"] is False
            assert ("axiom6", missing) in report.violations
            witnessed += 1
    return witnessed


class TestAsFrozen:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled(self, name):
        assert assert_as_frozen(parts_of(BUNDLED[name]())).valid

    @pytest.mark.parametrize("case", range(1, 5))
    def test_coin_matching(self, case):
        assert assert_as_frozen(parts_of(mp_sef(case)[0])).valid

    @pytest.mark.parametrize("k", range(3, 11))
    def test_exit_race(self, k):
        # at ten atoms the completion's search runs over its budget
        form = amd_sef(k)[0]
        assert assert_as_frozen(parts_of(form), complete=k < 10).valid

    # the forms where some choice's slices are all other choices' slices
    # on its menu; in the others every choice has a slice of its own
    @pytest.mark.parametrize("name", ["amd", "mp-case1", "mp-case2",
                                      "mp-case4", "simple3", "simple7",
                                      "variant2", "variant3"])
    def test_dropped_choices_fail_axiom6(self, name):
        assert assert_drops_fail_axiom6(BUNDLED[name]())

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_strict_forms_and_their_drops(self, seed):
        form = random_strict_sef(make_rng(seed))
        assert assert_as_frozen(parts_of(form)).valid
        assert_as_frozen(parts_of(form, dropped(form, random.Random(seed))),
                         complete=False)


# --- work per build ----------------------------------------------------------

class CountedRoot(frozenset):
    """A root that records each set cut by it."""

    def __new__(cls, root, cuts):
        made = super().__new__(cls, root)
        made.cuts = cuts
        return made

    def __and__(self, other):
        self.cuts.append((self, other))
        return frozenset.__and__(self, other)

    def __rand__(self, other):
        self.cuts.append((self, other))
        return frozenset.__and__(other, self)


def distinct_slices(form):
    """Per agent, its choices' distinct (tree, slice) pairs, each cut on
    its own."""
    roots = [form.sdf.root_of(w) for w in form.sdf.scenarios]
    return {i: {(k, c & root) for c in form.choices[i]
                for k, root in enumerate(roots)} for i in form.agents}


BUILDS = {f"mp-case{case}": lambda case=case: mp_sef(case)[0]
          for case in range(1, 5)}
BUILDS["amd6"] = lambda: amd_sef(6)[0]


class TestWorkCounts:
    """Each distinct (tree, slice) is cut from the outcomes once while a
    form is validated; the frozenset table cut every (choice, tree) pair,
    192, 320, 4,160, 384 and 9,216 cuts.  The walks up the forest are
    pinned in ``test_validate.TestWalks``."""

    @pytest.mark.parametrize("name, records", [
        ("mp-case1", 96), ("mp-case2", 64), ("mp-case3", 64),
        ("mp-case4", 96), ("amd6", 288)])
    def test_one_cut_per_record(self, monkeypatch, name, records):
        form = BUILDS[name]()
        slices = distinct_slices(form)
        assert sum(map(len, slices.values())) == records
        cuts, made = [], {}
        root_of = StochasticDecisionForest.root_of
        monkeypatch.setattr(
            StochasticDecisionForest, "root_of", lambda sdf, w:
            made.setdefault(w, CountedRoot(root_of(sdf, w), cuts)))
        assert validate_sef(*parts_of(form)).valid
        # one cut per record: none per (choice, tree) pair
        assert len(cuts) == records
        assert {(frozenset(root), c & frozenset(root))
                for root, c in list(cuts)} == {
            (form.sdf.root_of(form.sdf.scenarios[k]), s)
            for i in form.agents for k, s in slices[i]}


# --- Axiom 4's down-sets -----------------------------------------------------

class TestDownSets:
    @given(forests())
    @settings(deadline=None)
    def test_down_sets_as_the_scan(self, f):
        down = f.down_sets()
        assert down.keys() == f.moves()
        for x in f.moves():
            assert down[x] == f.down(x) \
                == frozenset(y for y in f.nodes if y <= x)

    def test_axiom4_witnesses_in_order(self):
        # drops that leave several nodes below a move unpreservable
        several = 0
        for name in ["simple", "simple3", "ultimatum", "variant2"]:
            form = BUNDLED[name]()
            for parts, _ in drops(form):
                report = assert_validates_as_oracle(parts)
                several += sum(v[0] == "axiom4"
                               for v in report.violations) >= 2
        assert several >= 4
