"""
Form validation from one slice table per agent, against the code it
replaced: the earlier ``_validate``, ``_axiom1_violations``,
``_adapted_unions`` and the adapted table's (variable, bit) lists with
their ``bits`` and ``fix``, kept below verbatim apart from their names,
the table they are handed, the total move order of the search's first
move, their violations put in canonical order, and an Axiom 6 search
over its budget left to raise.  The join's unions are compared with the
whole search of ``test_adapted``.  Also: the walks up
the forest per build, that a built form keeps nothing of its slice
tables, the information-set order across hash seeds, the coin-matching
action maps against their earlier builder, and the canonical order.
"""

import gc
import itertools
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exform.adapted
import exform.forest
import exform.sdf
from conftest import make_rng, random_strict_sef, stdout_across_hash_seeds
from exform._util import budget, canonical, canonical_text, sorted_violations
from exform.errors import BudgetExceeded, ChoiceError, ExformError
from exform.forest import immediate_predecessors, is_union_of_nodes
from exform.instances import (
    _MP_COORD,
    MP_CASES,
    MP_SCENARIOS,
    _mp_seconds,
    amd_sef,
    mp_blocks,
    mp_choice_first,
    mp_choice_second,
    mp_maps,
    mp_sef,
)
from exform.adapted import ADAPTED_CAP, SliceTable, slice_table
from exform.sdf import (
    RandomMove,
    _require_partition,
    validate_reference_choices,
)
from exform.sef import (
    AXIOM2_CAP,
    SEF_KINDS,
    SEFReport,
    _axiom1_violations,
    validate_sef,
)
from test_adapted import assert_joined_as_searched
from test_index import assert_groups_cover
from test_play import coarsened
from test_slices import (
    BUNDLED,
    _menus,
    _slices,
    dropped,
    entry_of,
    parts_of,
    records,
    slices_of,
    slices_oracle,
    unvalidated,
)

# --- the code the slice tables replaced ------------------------------------------

class BitsTable:
    """
    An agent's adaptedness, read one scenario slice at a time.  Inside
    scenario w a choice acts through its slice s = c & root_of(w): a move
    m defined at w offers it iff m(w) is an immediate predecessor of s,
    and jointly with a reference choice r iff m(w) precedes s & r.
    ``bits(w, s)`` memoises these as (variable, bit) pairs: one
    availability variable per move, and where the move offers s, one
    measurability variable per (move, reference choice, block of the
    move's partition).  A choice is adapted iff no slice is a whole root
    and the pairs of all its slices agree: availability is then constant
    on each move's domain, and joint availability on each block.
    """

    def __init__(self, sdf, agent_moves, info, refchoices):
        self.forest = sdf.forest
        self.roots = {w: sdf.root_of(w) for w in sdf.scenarios}
        # per scenario, each agent move defined there as (its availability
        # variable, its node, [(measurability variable, reference choice)])
        self.at = {w: [] for w in sdf.scenarios}
        self.memo = {}
        count = itertools.count()
        for m in agent_moves:
            _require_partition(info.get(m), m)
            available = next(count)
            refs = [frozenset(r) for r in refchoices.get(m, ())]
            for block in info[m]:
                joint = [(next(count), r) for r in refs]
                for w in block:
                    self.at[w].append((available, m(w), joint))

    def bits(self, w, s):
        """The (variable, bit) pairs of slice s on scenario w, or None when
        s is the whole root."""
        if (w, s) not in self.memo:
            self.memo[w, s] = None if s == self.roots[w] else self._read(w, s)
        return self.memo[w, s]

    def _read(self, w, s):
        forest = self.forest
        offered = immediate_predecessors(forest, s) \
            if s and self.at[w] else frozenset()
        found = []
        for available, x, joint in self.at[w]:
            found.append((available, x in offered))
            if x in offered:
                found.extend((var, bool(s & r) and x in immediate_predecessors(
                    forest, s & r)) for var, r in joint)
        return found

    def fix(self, fixed, w, s):
        """
        Add the bits of slice s on scenario w to ``fixed`` and return the
        variables newly fixed; None, leaving ``fixed`` as it was, when s is
        a whole root or one of its bits disagrees.
        """
        bits = self.bits(w, s)
        if bits is None:
            return None
        new = []
        for var, bit in bits:
            if var not in fixed:
                fixed[var] = bit
                new.append(var)
            elif fixed[var] != bit:
                for undo in new:
                    del fixed[undo]
                return None
        return new

    def adapted(self, c):
        fixed = {}
        return all(self.fix(fixed, w, c & root) is not None
                   for w, root in self.roots.items())


def bits_table(form, i):
    return BitsTable(form.sdf, form.agent_moves[i], form.info[i],
                     form.refchoices[i])


def axiom1_oracle(sdf, i, choices):
    """
    Axiom 1 for one agent in one pass over predecessor-set groups: every
    pair of choices from two distinct groups whose predecessor sets
    overlap, and every pair from one group whose slices on a scenario
    differ and overlap.  The violations come in canonical order, and so
    do the two choices of each pair.
    """
    order = sorted(choices, key=canonical)
    rank = {c: k for k, c in enumerate(order)}
    groups = {}
    for c in order:
        p = immediate_predecessors(sdf.forest, c)
        if p:
            groups.setdefault(p, []).append(c)
    found = []

    def pair(c, c2):
        return (c, c2) if rank[c] < rank[c2] else (c2, c)

    for (p, members), (p2, members2) in itertools.combinations(
            groups.items(), 2):
        if p & p2:
            for c in members:
                for c2 in members2:
                    first, second = pair(c, c2)
                    found.append(((rank[first], rank[second], -1),
                                  (i, first, second, "predecessors differ")))
    for members in groups.values():
        if len(members) < 2:
            continue
        for k, w in enumerate(sdf.scenarios):
            root = sdf.root_of(w)
            by_slice = {}
            for c in members:
                cw = c & root
                if cw:
                    by_slice.setdefault(cw, []).append(c)
            for (cw, cs), (c2w, cs2) in itertools.combinations(
                    by_slice.items(), 2):
                if cw & c2w:
                    for c in cs:
                        for c2 in cs2:
                            first, second = pair(c, c2)
                            found.append(((rank[first], rank[second], k),
                                          (i, first, second, w)))
    return sorted((("axiom1", v) for _, v in found), key=canonical)


def adapted_unions_oracle(form, table, i, members, menu, void=False):
    """
    Every adapted union of one slice of the menu per active scenario of
    the information set, the empty slice included when ``void``.  The
    search backtracks over the scenarios and takes a slice only if its
    bits in the agent's table agree with those already fixed, so every
    leaf is adapted.  It visits the scenarios block by block of the set's
    first move, which tests each measurability bit soon after it is
    fixed.  Each slice tried is a search node; past the cap it raises
    BudgetExceeded.
    """
    cap = budget(ADAPTED_CAP)
    first = min(members, key=canonical)
    blocks = sorted((sorted(b, key=repr) for b in form.info[i][first]),
                    key=repr)
    visit = [w for block in blocks for w in block] + sorted(
        {w for m in members for w in m.domain} - first.domain, key=repr)
    options = [[frozenset()] * void + slices_oracle(form.sdf, menu, w)
               for w in visit]
    # the inactive scenarios hold the empty slice
    fixed = {}
    for w in set(form.sdf.scenarios) - set(visit):
        table.fix(fixed, w, frozenset())
    # one iterator per scenario taken so far; no recursive closure, whose
    # reference cycle would keep the table alive until the cycle collector
    levels, chosen, undo = [iter(options[0])], [], []
    nodes = 0
    while levels:
        s = next(levels[-1], None)
        if s is None:
            levels.pop()
            if chosen:
                chosen.pop()
                for var in undo.pop():
                    del fixed[var]
            continue
        nodes += 1
        if nodes > cap:
            raise BudgetExceeded(f"more than {cap} adapted-choice search nodes")
        new = table.fix(fixed, visit[len(levels) - 1], s)
        if new is None:
            continue
        if len(levels) < len(visit):
            chosen.append(s)
            undo.append(new)
            levels.append(iter(options[len(levels)]))
            continue
        yield frozenset().union(s, *chosen)
        for var in new:
            del fixed[var]


def validate_oracle(form):
    """``validate_sef`` on stored data, through the form's own menu index
    and adapted-choice tables, its violations in canonical order."""
    axiom2_cap = budget(AXIOM2_CAP)
    sdf, agents, agent_moves = form.sdf, form.agents, form.agent_moves
    info, refchoices, choices = form.info, form.refchoices, form.choices
    violations = []
    checked = {}
    tables = {}

    def table_of(i):
        if i not in tables:
            tables[i] = bits_table(form, i)
        return tables[i]

    for i in agents:
        if not agent_moves[i] <= sdf.random_moves:
            violations.append(("agent_moves", (i, "not random moves")))
            return SEFReport(False, tuple(violations), checked)
        values = [m(w) for m in agent_moves[i] for w in m.domain]
        if len(set(values)) != len(values):
            violations.append(("evaluation", (i, "not injective")))
        try:
            validate_reference_choices(sdf, refchoices[i], agent_moves[i])
        except ChoiceError as err:
            violations.append(("reference", (i, str(err))))
        for c in choices[i]:
            if not is_union_of_nodes(sdf.forest, c):
                violations.append(("choice", (
                    i, f"not a nonempty union of nodes: {canonical_text(c)}")))
            elif not table_of(i).adapted(c):
                violations.append(("adapted", (i, c)))
    if violations:
        return SEFReport(False, sorted_violations(violations, SEF_KINDS),
                         checked)

    # Axiom 1: predecessor sets of an agent's choices must not properly
    # overlap, and overlapping choices agree or are disjoint per scenario
    found = [v for i in agents for v in axiom1_oracle(sdf, i, choices[i])]
    violations.extend(found)
    checked["axiom1"] = not found

    # Axiom 2: profiles of available choices of active agents are jointly
    # compatible with the move
    checked["axiom2"] = True
    count = 0
    for x in sdf.forest.moves():
        menus = [form.available_at_move(i, x) for i in form.active_agents(x)]
        for profile in itertools.product(*menus):
            count += 1
            if count > axiom2_cap:
                raise BudgetExceeded("too many available-choice profiles")
            meet = frozenset(x)
            for c in profile:
                meet &= c
            if not meet:
                violations.append(("axiom2", (x, profile)))
                checked["axiom2"] = False

    # Axiom 3: disjoint nodes of a shared scenario are separated by
    # disjoint choices of one agent; inside one tree a choice acts through
    # its slice there
    checked["axiom3"] = True
    for w in sdf.scenarios:
        tree = sdf.tree_of(w)
        sliced = [slices_oracle(sdf, choices[i], w) for i in agents]
        for y, y2 in itertools.combinations(sorted(tree, key=canonical), 2):
            if not y & y2 and not any(
                    y <= s and y2 <= s2 and not s & s2
                    for slices in sliced for s in slices for s2 in slices):
                violations.append(("axiom3", (w, y, y2)))
                checked["axiom3"] = False

    # Axiom 4: active agents can preserve any strictly future node
    checked["axiom4"] = True
    for x in sdf.forest.moves():
        below = sdf.forest.down(x) - {x}
        for i in form.active_agents(x):
            menu = form.available_at_move(i, x)
            for y in below:
                if not any(y <= c for c in menu):
                    violations.append(("axiom4", (i, x, y)))
                    checked["axiom4"] = False

    # Axiom 5: random moves sharing an available choice share exogenous
    # information and reference choices
    checked["axiom5"] = True
    for i in agents:
        for m in agent_moves[i]:
            for m2 in agent_moves[i]:
                if m == m2 or not (form.available_at(i, m)
                                   & form.available_at(i, m2)):
                    continue
                same_info = info[i][m] == info[i][m2]
                same_refs = frozenset(map(frozenset, refchoices[i][m])) \
                    == frozenset(map(frozenset, refchoices[i][m2]))
                if not (same_info and same_refs):
                    violations.append(("axiom5", (i, m, m2)))
                    checked["axiom5"] = False

    # Axiom 6: completeness, every adapted union of slices of an
    # information set's menu is a choice
    missing = []
    for i in agents:
        for members, menu in _menus(form, i):
            missing.extend(
                ("axiom6", (i, c)) for c in adapted_unions_oracle(
                    form, table_of(i), i, members, menu)
                if c not in choices[i])
    violations.extend(missing)
    checked["axiom6"] = not missing

    return SEFReport(not violations, sorted_violations(violations, SEF_KINDS),
                     checked)


# --- variants ---------------------------------------------------------------------

def twinned(form, choices=None):
    """
    The form's parts with a twin of its first agent, owning the same
    moves, information, reference choices and choices: at each of those
    moves two sibling choices of the two agents meet emptily, so Axiom 2
    fails, and where the agent's menu repeats a slice the witnesses
    interleave the slices.
    """
    i = form.agents[0]
    twin = ("twin", i)
    choices = form.choices if choices is None else choices

    def add(per_agent):
        return {**per_agent, twin: per_agent[i]}

    return (form.sdf, form.agents + (twin,), add(form.agent_moves),
            add(form.info), add(form.refchoices), add(choices))


def overlapped(form, rng):
    """The form's choices with up to three random unions of outcomes added,
    none holding a whole root: Axiom 1 sees overlapping predecessor sets and
    slices, and Axioms 3, 4 and 6 see choices outside any partition."""
    sdf = form.sdf
    outcomes = sorted(sdf.forest.outcomes)
    roots = [sdf.root_of(w) for w in sdf.scenarios]
    extra = set()
    for _ in range(3):
        c = frozenset(rng.sample(outcomes, rng.randint(1, len(outcomes))))
        if not any(root <= c for root in roots):
            extra.add(c)
    i = form.agents[0]
    return {**form.choices, i: form.choices[i] | extra}


# --- comparison -------------------------------------------------------------------

def assert_validates_as_oracle(parts):
    """The report of validate_sef equals the oracle's, violation order
    included; where the oracle raises, validate_sef raises the same class.
    Returns the report, or None where both raised."""
    try:
        expected = validate_oracle(unvalidated(parts))
    except ExformError as err:
        with pytest.raises(type(err)):
            validate_sef(*parts)
        return None
    report = validate_sef(*parts)
    assert report.violations == expected.violations
    assert report.checked == expected.checked
    assert report.valid == expected.valid
    return report


def assert_tables_agree(form):
    """Each agent's slice table against the per-choice cuts and walks, its
    entries against the bit lists, its Axiom 1 against the oracle, and the
    whole search's leaves and the join's unions, as multisets, against the
    oracle's search."""
    sdf = form.sdf
    for i in form.agents:
        bits = bits_table(form, i)
        table = slice_table(form, i, form.choices[i])
        for c in form.choices[i]:
            assert slices_of(table, c) == tuple(c & sdf.root_of(w)
                                                for w in sdf.scenarios)
            assert table.preds[c] == immediate_predecessors(sdf.forest, c)
        for w in sdf.scenarios:
            made = records(table, w)
            assert len({s for s, _, _ in made}) == len(made)
            for s, p, _ in made:
                pairs = bits.bits(w, s)
                expected = None if pairs is None else (
                    sum(1 << var for var, _ in pairs),
                    sum(bit << var for var, bit in pairs))
                assert p == (immediate_predecessors(sdf.forest, s)
                             if s and s != sdf.root_of(w) else frozenset())
                assert entry_of(table, w, s) == expected
        assert sorted(_axiom1_violations(table, i), key=canonical) \
            == axiom1_oracle(sdf, i, form.choices[i])
        for members, menu in _menus(form, i):
            for void in (False, True):
                assert Counter(assert_joined_as_searched(
                    form, i, members, table, void)) == Counter(
                        adapted_unions_oracle(form, bits, i, members, menu,
                                              void))


def assert_readers_as_before(form):
    """
    The readers of the slice records against the per-member regroupings
    they replaced, wherever the first pass holds: Axiom 1 against the
    per-group scan, the distinct slices and the slices at each move of an
    information set against ``_slices``, and the menu index's groups
    against the per-member grouping.  Returns whether the first pass held.
    """
    report = form.report if "report" in vars(form) \
        else validate_sef(*parts_of(form))
    if not report.checked:
        return False
    for i in form.agents:
        table = slice_table(form, i, form.choices[i])
        assert sorted(_axiom1_violations(table, i), key=canonical) \
            == axiom1_oracle(form.sdf, i, form.choices[i])
        for w in form.sdf.scenarios:
            assert table.distinct(w) == _slices(table, form.choices[i], w)
        for members, menu in _menus(form, i):
            for m in members:
                for w in m.domain:
                    assert sorted(table.slices_at(m(w)), key=sorted) \
                        == _slices(table, menu, w)
    assert_groups_cover(form, exact=True)
    return True


class TestReadersAsBefore:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled(self, name):
        assert assert_readers_as_before(BUNDLED[name]())

    @pytest.mark.parametrize("k", range(3, 9))
    def test_exit_race(self, k):
        assert assert_readers_as_before(amd_sef(k)[0])

    @pytest.mark.parametrize("case", range(1, 5))
    def test_coin_matching(self, case):
        assert assert_readers_as_before(mp_sef(case)[0])

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_strict_forms_and_their_variants(self, seed):
        form = random_strict_sef(make_rng(seed))
        rng = random.Random(seed)
        assert assert_readers_as_before(form)
        # a drop keeps every choice adapted; a merge may not
        assert assert_readers_as_before(
            unvalidated(parts_of(form, dropped(form, rng))))
        assert_readers_as_before(coarsened(form, rng))


class TestReportsAsBefore:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled(self, name):
        form = BUNDLED[name]()
        report = assert_validates_as_oracle(parts_of(form))
        assert report.valid
        assert_tables_agree(form)

    @pytest.mark.parametrize("k", range(3, 9))
    def test_exit_race(self, k):
        form = amd_sef(k)[0]
        assert assert_validates_as_oracle(parts_of(form)).valid
        if k <= 4:
            assert_tables_agree(form)

    @pytest.mark.parametrize("case", range(1, 5))
    def test_coin_matching(self, case):
        form = mp_sef(case)[0]
        assert assert_validates_as_oracle(parts_of(form)).valid

    def test_dropped_and_twinned_variants(self):
        # the drops fail Axioms 3, 4 and 6, the added unions Axiom 1; the
        # twins fail Axiom 2 at every move with two choices on offer, with
        # and without drops.  No variant here breaks Axiom 5
        rng = random.Random(19)
        failed = {f"axiom{k}": 0 for k in (1, 2, 3, 4, 6)}
        names = [n for n in sorted(BUNDLED) if n != "mp-case3"]
        for name in names:
            form = BUNDLED[name]()
            for parts in [parts_of(form, dropped(form, rng)),
                          parts_of(form, overlapped(form, rng)),
                          twinned(form), twinned(form, dropped(form, rng))]:
                report = assert_validates_as_oracle(parts)
                for axiom in failed:
                    failed[axiom] += report.checked.get(axiom) is False
        assert all(failed.values()), failed

    def test_twinned_coin_matching_interleaves_slices(self):
        # agent i's four first-stage choices take two slices per tree in
        # an order the slice product does not follow; every whole-choice
        # witness is listed all the same
        form = mp_sef(2)[0]
        report = assert_validates_as_oracle(twinned(form))
        witnesses = [v for v in report.violations if v[0] == "axiom2"]
        assert len(witnesses) == 16 * 8

    def test_search_leaves_on_dropped_forms(self):
        rng = random.Random(23)
        for name in ["simple", "simple-variant", "ultimatum", "mp-case1"]:
            form = BUNDLED[name]()
            for _ in range(2):
                assert_tables_agree(unvalidated(parts_of(form,
                                                         dropped(form, rng))))

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_strict_forms_and_their_variants(self, seed):
        form = random_strict_sef(make_rng(seed))
        rng = random.Random(seed)
        assert assert_validates_as_oracle(parts_of(form)).valid
        assert_tables_agree(form)
        for parts in [parts_of(form, dropped(form, rng)),
                      parts_of(form, coarsened(form, rng).choices),
                      parts_of(form, overlapped(form, rng)),
                      twinned(form), twinned(form, dropped(form, rng))]:
            assert_validates_as_oracle(parts)
        assert_tables_agree(unvalidated(parts_of(form, overlapped(form, rng))))

    def test_over_the_cap_as_before(self, monkeypatch):
        # Axiom 2 counts slice profiles, and the whole-choice profiles of
        # a move where one fails: at each of the twinned simple form's six
        # moves, two slice profiles (the second fails) and four whole ones
        parts = twinned(BUNDLED["simple"]())
        for cap in (35, 36):
            monkeypatch.setenv("EXFORM_BUDGET", str(cap))
            if cap == 35:
                with pytest.raises(BudgetExceeded):
                    validate_sef(*parts)
            else:
                assert validate_sef(*parts).checked["axiom2"] is False


# --- walks, lifetime and order ------------------------------------------------------

def walks(monkeypatch, build):
    """What the builder returns, and the sets walked up the forest by
    ``immediate_predecessors`` while it runs."""
    calls = []
    real = exform.forest.immediate_predecessors

    def counted(forest, c):
        calls.append(frozenset(c))
        return real(forest, c)

    for module in (exform.forest, exform.sdf, exform.adapted):
        monkeypatch.setattr(module, "immediate_predecessors", counted)
    return build(), calls


class TestWalks:
    @pytest.mark.parametrize("build, count", [
        pytest.param(lambda: mp_sef(3), 70, id="mp-case3"),
        pytest.param(lambda: amd_sef(6), 292, id="amd_sef-6"),
        pytest.param(lambda: mp_sef(1), 102, id="mp-case1"),
        pytest.param(lambda: mp_sef(2), 70, id="mp-case2"),
        pytest.param(lambda: mp_sef(4), 102, id="mp-case4")])
    def test_each_slice_walked_once(self, monkeypatch, build, count):
        # mp-case3: 64 distinct (tree, slice) pairs and 6 walks of the
        # reference choices, one per (move, reference choice); the exit
        # race: 288 and 4.  The entries' joint sets s & r here all equal
        # s, whose walk they share
        (form, _), calls = walks(monkeypatch, build)
        assert len(calls) == count
        roots = [form.sdf.root_of(w) for w in form.sdf.scenarios]
        slices = [c for c in calls if any(c <= root for root in roots)]
        assert len(slices) == len(set(slices))
        # one walk per distinct (tree, slice) record of each agent
        assert sorted(map(sorted, slices)) == sorted(
            sorted(s) for i in form.agents
            for s in {c & root for c in form.choices[i] for root in roots}
            if s and s not in roots)
        refs = {frozenset(r) for i in form.agents
                for rs in form.refchoices[i].values() for r in rs}
        assert set(calls) - set(slices) <= refs


class TestLifetime:
    def test_form_keeps_no_table_and_frees_without_the_collector(
            self, monkeypatch):
        made = []

        class Recorded(SliceTable):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(weakref.ref(self))

        monkeypatch.setattr(exform.adapted, "SliceTable", Recorded)
        enabled = gc.isenabled()
        gc.disable()
        try:
            form = mp_sef(3)[0]
            assert len(made) == 2 and all(ref() is None for ref in made)
            # the form holds its data, report and menu index, no table
            assert set(vars(form)) == {"sdf", "agents", "agent_moves", "info",
                                       "refchoices", "choices", "report",
                                       "_index"}
            dead = weakref.ref(form)
            del form
            assert dead() is None
        finally:
            if enabled:
                gc.enable()


DIGEST = """
import hashlib
from conftest import make_rng, random_strict_sef
from exform.instances import load_example
from exform.sef import info_sets
digest = hashlib.sha256()
forms = [random_strict_sef(make_rng(s)) for s in range(30)]
for form in forms + [load_example("simple-variant")[0]]:
    sets, _ = info_sets(form, "i")
    digest.update(repr([sorted(map(sorted, p.moves())) for p in sets]).encode())
print(digest.hexdigest())
"""


def test_information_sets_in_one_order_across_hash_seeds():
    assert stdout_across_hash_seeds(["-c", DIGEST])


def mp_maps_oracle(keys):
    """All action maps on the scenarios measurable in the given signals."""
    blocks = mp_blocks(keys)
    sigs = sorted(blocks)
    result = []
    for combo in itertools.product("12", repeat=len(sigs)):
        by_sig = dict(zip(sigs, combo))
        result.append({w: by_sig[tuple(w[_MP_COORD[k]] for k in keys)]
                       for w in MP_SCENARIOS})
    return result


@pytest.mark.parametrize("keys", sorted(
    {keys for case in MP_CASES.values() for keys in case[:2]} | {("z0",)}))
def test_mp_maps_as_before(keys):
    maps, expected = mp_maps(keys), mp_maps_oracle(keys)
    assert maps == expected
    assert [list(m) for m in maps] == [list(m) for m in expected]


@pytest.mark.parametrize("keys", sorted(
    {keys for case in MP_CASES.values() for keys in case[:2]}))
def test_mp_seconds_block_by_block_as_before(keys):
    # each second-stage choice, built as a union of per-block outcome
    # sets, equals the one built from its action map, in the maps' order
    for k in ".12":
        assert _mp_seconds(k, keys) \
            == [mp_choice_second(k, g) for g in mp_maps(keys)]


def test_mp_choices_as_before():
    # the choices read labels formatted once; each lists its outcomes in
    # the order it did when it formatted them
    for a in mp_maps(("z0",)):
        expected = [f"{w}:{a[w]}{b}" for w in MP_SCENARIOS for b in "12"]
        assert list(mp_choice_first(a)) == list(frozenset(expected))
    for g in mp_maps(("r", "z1", "z2")):
        for k in ".12":
            expected = [f"{w}:{a}{g[w]}" for w in MP_SCENARIOS
                        for a in ("12" if k == "." else k)]
            assert list(mp_choice_second(k, g)) == list(frozenset(expected))


def move_key(m):
    """The random-move sort key that ``canonical`` replaced, verbatim."""
    return [(repr(w), sorted(map(repr, x))) for w, x in m.graph]


class TestCanonicalOrder:
    def test_random_moves_sort_as_before(self):
        # string labels, as every bundled and serialized form has
        forms = [BUNDLED[name]() for name in sorted(BUNDLED)] \
            + [amd_sef(4)[0]] \
            + [random_strict_sef(make_rng(seed)) for seed in range(30)]
        for form in forms:
            moves = list(form.sdf.random_moves)
            assert sorted(moves, key=canonical) == sorted(moves, key=move_key)

    def test_shapes_are_tagged(self):
        # atoms by repr, then sets, then sequences and random moves: labels
        # of mixed types sort without comparing a list with a str
        move = RandomMove({"w": frozenset({"a"})})
        ordered = ["i", 1, 10, 9, None, frozenset(), frozenset({"a", 1}),
                   ("twin", "i"), [2, "x"], move]
        for values in (ordered, ordered[::-1]):
            assert sorted(values, key=canonical) == ordered

    def test_a_move_key_is_its_graph_key_computed_once(self, monkeypatch):
        # a random move's graph never changes, so its key is cached: the
        # second read of a move calls canonical on no member of its graph
        from exform import _util
        move = RandomMove({"w": frozenset({"a", 1}), "v": frozenset({"b"})})
        assert canonical(move) == canonical(move.graph)
        calls = []
        original = _util.canonical
        monkeypatch.setattr(_util, "canonical",
                            lambda v: calls.append(v) or original(v))
        assert canonical(move) is canonical(move)
        assert calls == []
        fresh = RandomMove(dict(move.graph))
        assert canonical(fresh) == canonical(move) and calls

    def test_text_lists_each_set_in_canonical_order(self):
        assert canonical_text(("axiom6", ("i", frozenset({"b", "a", 1})))) \
            == "('axiom6', ('i', ['a', 'b', 1]))"
        assert canonical_text([frozenset(), ("i",), {frozenset({2, 10})}]) \
            == "[[], ('i',), [[10, 2]]]"

    def test_violations_by_kind_then_payload(self):
        found = [("axiom6", ("i", frozenset("a"))),
                 ("axiom2", (frozenset("b"), ())),
                 ("adapted", (("twin", "i"), frozenset("a"))),
                 ("adapted", ("i", frozenset("b"))),
                 ("axiom2", (frozenset("ab"), ()))]
        assert sorted_violations(found, SEF_KINDS) == (
            found[3], found[2], found[4], found[1], found[0])

    def test_report_in_canonical_order(self):
        rng = random.Random(31)
        several = 0
        for name in ["simple", "mp-case1", "ultimatum"]:
            form = BUNDLED[name]()
            for parts in [parts_of(form, dropped(form, rng)),
                          parts_of(form, overlapped(form, rng)),
                          twinned(form)]:
                violations = validate_sef(*parts).violations
                several += len({v[0] for v in violations}) >= 2
                assert list(violations) == sorted(
                    violations, key=lambda v: (SEF_KINDS.index(v[0]),
                                               canonical(v[1])))
        assert several >= 2
