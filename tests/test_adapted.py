"""
The adapted-choice table against the code it replaced: the whole-choice
body of check_adapted, and the two product searches over one slice per
active scenario, Axiom 6 of validate_sef and the choice completion.  The
oracles below are the earlier code, kept verbatim apart from their names.
Also: the adapted unions joined per component, ``_join``, against the
whole search over all of an information set's scenarios at once, which
``exform.sef`` ran before the join listed them and which is kept below
as the join's oracle; and the slice table's batch cut, one read per
distinct mask of the choices on each information component, against the
cut over every (choice, tree) pair it replaced, ``cut_oracle`` of conftest.
"""

import functools
import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (constant_choice_parts, cut_oracle, make_rng,
                      random_strict_sef, stdout_across_hash_seeds, unvalidated)
from exform._util import canonical
from exform.errors import BudgetExceeded, ChoiceError, InputError, StructureError
from exform.forest import immediate_predecessors, is_union_of_nodes
from exform.instances import (
    EXAMPLES,
    MP_SCENARIOS,
    amd_sef,
    load_example,
    mp_choice_second,
    mp_partition,
    mp_sef,
)
from exform import adapted
from exform.adapted import (
    _components,
    _fold,
    _join,
    _nodes,
    _search_plan,
    check_adapted,
    missing_choices,
    slice_table,
)
from exform.sdf import (
    _is_block_union,
    is_available_at,
    is_complete,
    is_non_redundant,
    preimage,
)
from exform.forest import DecisionForest
from exform.sdf import RandomMove, StochasticDecisionForest
from exform.sef import (
    InfoSet,
    StochasticExtensiveForm,
    complete_choices,
    info_sets,
    validate_sef,
)
from test_slices import (
    BUNDLED,
    _menus,
    dropped,
    parts_of,
    slices_oracle,
)

# the caps of the two product searches
AXIOM6_CAP = 10 ** 4
COMPLETION_CAP = 10 ** 5


# --- the whole-choice check and the product searches ------------------------------

def check_adapted_oracle(sdf, c, info, refchoices, agent_moves):
    """
    Adaptedness of a choice: non-redundant, complete on the agent's moves,
    and the joint availability with every reference choice is measurable
    at every move the choice is available at.
    """
    if not is_union_of_nodes(sdf.forest, c):
        raise ChoiceError(f"not a nonempty union of nodes: {c!r}")
    c = frozenset(c)
    if not is_non_redundant(sdf, c):
        return False
    if not is_complete(sdf, c, agent_moves):
        return False
    for m in agent_moves:
        if not is_available_at(sdf, c, m):
            continue
        for ref in refchoices.get(m, ()):
            both = c & frozenset(ref)
            if not both:
                continue
            joint = preimage(m, immediate_predecessors(sdf.forest, both))
            if not _is_block_union(joint, info[m]):
                return False
    return True


def axiom6_oracle(form):
    """Axiom 6 of validate_sef by the product search: (violations in
    canonical order, flag)."""
    sdf, agents, choices = form.sdf, form.agents, form.choices
    info, refchoices, agent_moves = form.info, form.refchoices, form.agent_moves
    violations = []
    checked = {}
    axiom6_cap = AXIOM6_CAP
    check_adapted = check_adapted_oracle

    checked["axiom6"] = True
    for i in agents:
        for members, menu in _menus(form, i):
            if not menu:
                continue
            active = sorted({w for m in members for w in m.domain}, key=repr)
            slices = [slices_oracle(sdf, menu, w) for w in active]
            total = 1
            for s in slices:
                total *= len(s)
            if total > axiom6_cap:
                checked["axiom6"] = None
                continue
            for combo in itertools.product(*slices):
                candidate = frozenset().union(*combo)
                if candidate in choices[i]:
                    continue
                if check_adapted(sdf, candidate, info[i], refchoices[i],
                                 agent_moves[i]):
                    violations.append(("axiom6", (i, candidate)))
                    checked["axiom6"] = False
    return sorted(violations, key=canonical), checked["axiom6"]


def completion_oracle(sef):
    """The choices of complete_choices by the product search."""
    cap = COMPLETION_CAP
    check_adapted = check_adapted_oracle
    new_choices = {}
    for i in sef.agents:
        closure = set(sef.choices[i])
        for members, menu in _menus(sef, i):
            if not menu:
                continue
            active = sorted({w for m in members for w in m.domain}, key=repr)
            options = [[frozenset(), *slices_oracle(sef.sdf, menu, w)]
                       for w in active]
            total = 1
            for s in options:
                total *= len(s)
            if total > cap:
                raise BudgetExceeded(f"{total} closure candidates at one class")
            for combo in itertools.product(*options):
                candidate = frozenset().union(*combo)
                if not candidate or candidate in closure:
                    continue
                if check_adapted(sef.sdf, candidate, sef.info[i],
                                 sef.refchoices[i], sef.agent_moves[i]):
                    closure.add(candidate)
        new_choices[i] = frozenset(closure)
    return new_choices


# --- the whole search, the oracle of the join --------------------------------------
# ``_adapted_unions`` and its ``_leaves`` as ``exform.sef`` had them, kept
# verbatim apart from their names, the options' slices, which the search
# no longer carries, and the table's ``union`` reader: a leaf is read out
# from its mask.

def leaves_oracle(options, start, nodes):
    """
    The mask of each leaf of the search: the search backtracks over the
    positions of ``options`` with a stack of (known, value) bits and the
    mask of the slices taken, and takes a slice only if its entry in the
    table agrees with the bits already fixed, so every leaf is adapted.
    Each slice tried is drawn from ``nodes`` (``_nodes``).
    """
    levels, fixed = [iter(options[0])], [(*start, 0)]
    depth = len(options)
    while levels:
        known, value, whole = fixed[-1]
        for mask, entry in levels[-1]:
            next(nodes)
            if not entry or (value ^ entry[1]) & known & entry[0]:
                continue
            if len(levels) < depth:
                fixed.append((known | entry[0], value | entry[1],
                              whole | mask))
                levels.append(iter(options[len(levels)]))
                break
            yield whole | mask
        else:
            levels.pop()
            fixed.pop()


def start_of(form, table, visit):
    """The start bits of a search over the visited scenarios: the empty
    slice on every other scenario fixes its moves' availability bits."""
    return table.start(set(form.sdf.scenarios) - set(visit))


def read_out(table, whole):
    """The union of slices with the mask, a choice or not, as a set."""
    return table.choice_of.get(whole) or table.missing(whole)


def whole_search(form, i, members, table, void=False):
    """
    Every adapted union of one slice of the menu per active scenario of
    the information set (``_search_plan``), the empty slice included when
    ``void``, searched over all the scenarios at once.  Each slice tried
    is a search node, at most ``ADAPTED_CAP``.
    """
    visit, options = _search_plan(form, i, members, table, void)
    for whole in leaves_oracle(options, (start_of(form, table, visit), 0),
                               _nodes()):
        yield read_out(table, whole)


def joined(form, i, members, table, void=False):
    """The join's unions of the information set, choices included, each
    read out as a set."""
    visit, options = _search_plan(form, i, members, table, void)
    free = table.start(visit)
    return [read_out(table, mask) for mask in _join(
        options, start_of(form, table, visit), _components(options, free),
        free)]


def assert_joined_as_searched(form, i, members, table, void=False):
    """The join's unions equal the whole search's as multisets, and the
    missing choices are the whole search's unions that are no choice."""
    whole = list(whole_search(form, i, members, table, void))
    assert Counter(joined(form, i, members, table, void)) == Counter(whole)
    missing = missing_choices(form, i, InfoSet(i, members), table, void)
    assert Counter(missing) \
        == Counter(c for c in whole if c not in form.choices[i])
    return whole


# --- comparison -------------------------------------------------------------------

def product(form, members, menu, void):
    """One scenario's options per active scenario, and their product size."""
    active = sorted({w for m in members for w in m.domain}, key=repr)
    options = [[frozenset()] * void + slices_oracle(form.sdf, menu, w)
               for w in active]
    total = 1
    for s in options:
        total *= len(s)
    return options, total


def search(form, i, members, menu, void):
    """The join's unions, through a slice table of the agent's choices."""
    table = slice_table(form, i, form.choices[i])
    return joined(form, i, members, table, void)


def agrees(form, i, c):
    data = (form.info[i], form.refchoices[i], form.agent_moves[i])
    return check_adapted(form.sdf, c, *data) \
        == check_adapted_oracle(form.sdf, c, *data)


def check_table_against_oracle(form, rng, limit=10 ** 3, sample=100):
    """
    check_adapted against the whole-choice check on every choice, on every
    leaf of the search, and on every product candidate of each information
    set (with and without the empty slice), or on a seeded sample of them
    where a product exceeds ``limit``.
    """
    for i in form.agents:
        assert all(agrees(form, i, c) for c in form.choices[i])
        for members, menu in _menus(form, i):
            assert all(check_adapted_oracle(
                form.sdf, c, form.info[i], form.refchoices[i],
                form.agent_moves[i]) for c in search(
                    form, i, members, menu, void=True) if c)
            for void in (False, True):
                options, total = product(form, members, menu, void)
                combos = itertools.product(*options) if total <= limit else (
                    [rng.choice(s) for s in options] for _ in range(sample))
                for combo in combos:
                    c = frozenset().union(*combo)
                    if c:
                        assert agrees(form, i, c)


def check_leaves_against_product(form, limit=2 * 10 ** 5):
    """
    The leaves of the search are the adapted candidates of the product
    wherever the product is at most ``limit``, with and without the empty
    slice; returns how many information sets were compared.  The product
    cuts each candidate into one slice table per agent and reads its
    adaptedness there, as check_adapted does, which
    check_table_against_oracle ties to the whole-choice check.
    """
    compared = 0
    for i in form.agents:
        table = slice_table(form, i, ())
        for members, menu in _menus(form, i):
            for void in (False, True):
                options, total = product(form, members, menu, void)
                if total > limit:
                    continue
                compared += 1
                unions = [c for c in (frozenset().union(*combo) for combo
                                      in itertools.product(*options)) if c]
                expected = set(unions) - set(table.cut(unions))
                leaves = [c for c in search(form, i, members, menu, void)
                          if c]
                assert len(leaves) == len(set(leaves))
                assert set(leaves) == expected
    return compared


def check_axiom6_against_oracle(parts):
    """The Axiom 6 verdict and witnesses where the product search decides
    them; returns the report."""
    report = validate_sef(*parts)
    if "axiom6" not in report.checked:
        return report
    witnesses, flag = axiom6_oracle(unvalidated(parts))
    if flag is not None:
        assert report.checked["axiom6"] is flag
        assert [v for v in report.violations if v[0] == "axiom6"] == witnesses
    return report


# the bundled forms whose products are small enough for the whole-choice check
SMALL = sorted(n for n in BUNDLED
               if n.startswith(("simple", "variant", "ultimatum")))


class TestCheckAdapted:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled(self, name):
        check_table_against_oracle(BUNDLED[name](), random.Random(name))

    def test_amd_three_atoms(self):
        check_table_against_oracle(amd_sef(3)[0], random.Random(3))

    def test_dropped_choices(self):
        rng = random.Random(11)
        for name in SMALL + ["amd", "mp-case3"]:
            form = BUNDLED[name]()
            for _ in range(2):
                variant = unvalidated(parts_of(form, dropped(form, rng)))
                check_table_against_oracle(variant, rng, sample=30)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_strict_forms(self, seed):
        check_table_against_oracle(random_strict_sef(make_rng(seed)),
                                   random.Random(seed))

    def test_non_union_message_is_canonical(self):
        # the set prints its members in canonical order, so the message
        # is one under any hash seed
        script = (
            "from exform.adapted import check_adapted\n"
            "from exform.errors import ChoiceError\n"
            "from exform.instances import load_example\n"
            "form = load_example('simple')[0]\n"
            "try:\n"
            "    check_adapted(form.sdf, {'zz', 'nowhere', 'o1:11', 'q'},\n"
            "                  form.info['i'], form.refchoices['i'],\n"
            "                  form.agent_moves['i'])\n"
            "except ChoiceError as err:\n"
            "    print(err)\n")
        assert stdout_across_hash_seeds(["-c", script]) == (
            "not a nonempty union of nodes: ['nowhere', 'o1:11', 'q', 'zz']\n")

    def test_non_union_raises_before_reading_agent_data(self):
        form = BUNDLED["simple"]()
        moves = form.agent_moves["i"]
        with pytest.raises(ChoiceError):
            check_adapted(form.sdf, set(), {}, form.refchoices["i"], moves)
        with pytest.raises(ChoiceError):
            check_adapted(form.sdf, {"nowhere"}, form.info["i"],
                          form.refchoices["i"], moves)


class TestAdaptedSearch:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_leaves_are_the_adapted_candidates(self, name):
        # amd's products (2.6e5, and 3.9e8 with the empty slice) are past
        # the limit; every other form's products without it are within
        compared = check_leaves_against_product(BUNDLED[name]())
        assert compared or name == "amd"

    def test_dropped_choices_and_strict_forms(self):
        rng = random.Random(12)
        for name in SMALL:
            form = BUNDLED[name]()
            for _ in range(3):
                check_leaves_against_product(
                    unvalidated(parts_of(form, dropped(form, rng))))
        for seed in range(30):
            check_leaves_against_product(random_strict_sef(random.Random(seed)))

    def test_axiom6_decided_on_the_paper_forms(self):
        forms = [load_example(name)[0] for name in EXAMPLES]
        forms += [mp_sef(k)[0] for k in range(1, 5)] + [amd_sef(6)[0]]
        assert [form.report.checked["axiom6"] for form in forms] \
            == [True] * len(forms)

    def test_dropped_variants_fail_axiom6_as_before(self):
        # where the product search decides Axiom 6 it gives the same
        # verdict and the same witnesses in the same canonical order
        rng = random.Random(6)
        failed = 0
        for name in SMALL:
            form = BUNDLED[name]()
            for _ in range(4):
                report = check_axiom6_against_oracle(
                    parts_of(form, dropped(form, rng)))
                failed += report.checked.get("axiom6") is False
        for seed in range(40):
            form = random_strict_sef(random.Random(seed))
            gone = {c for c in form.choices["i"] if rng.random() < 0.3}
            report = check_axiom6_against_oracle(
                parts_of(form, {"i": form.choices["i"] - gone}))
            failed += report.checked.get("axiom6") is False
        assert failed

    def test_completion_as_before(self):
        rng = random.Random(7)
        forms = [BUNDLED[name]() for name in SMALL]
        forms += [random_strict_sef(random.Random(seed)) for seed in range(20)]
        for form in forms:
            assert complete_choices(form).choices == completion_oracle(form)
            try:
                partial = StochasticExtensiveForm(
                    *parts_of(form, dropped(form, rng)), allow_incomplete=True)
            except StructureError:
                continue
            assert complete_choices(partial).choices \
                == completion_oracle(partial)

    def test_over_the_cap(self, monkeypatch):
        # 4 scenarios: Axiom 2 counts 8 profiles, the search tries 14
        # slices and makes 2 unions; the amd completion searches take 161
        # nodes each.  A search over its budget decides nothing: it raises
        form = load_example("amd")[0]
        for cap in (10, 15):
            monkeypatch.setenv("EXFORM_BUDGET", str(cap))
            with pytest.raises(BudgetExceeded):
                validate_sef(*constant_choice_parts(4))
        monkeypatch.setenv("EXFORM_BUDGET", "16")
        assert validate_sef(*constant_choice_parts(4)).checked["axiom6"] is True
        monkeypatch.setenv("EXFORM_BUDGET", "160")
        with pytest.raises(BudgetExceeded):
            complete_choices(form)
        monkeypatch.setenv("EXFORM_BUDGET", "161")
        assert complete_choices(form).choices == form.choices


# --- Axiom 6 joined per component ------------------------------------------------

def two_level_parts(diagonal=False):
    """
    Two scenarios u and v, each a root over a terminal a and a node y
    over terminals b and c.  Agent i owns the root move X, told the
    scenario, and the move Y over the y nodes, told nothing, with no
    reference choices.  At each root four slices are offered: {a} and
    y at X alone, {a, b} and {a, c} at X and at Y, so they set Y's
    availability bit, which u and v share.  X's information set splits
    into the components u and v, four leaves each, and only the 8 of the
    16 pairs that agree on Y's bit are adapted unions; the choices are
    those 8, or with ``diagonal`` the 4 that take the same slice in both
    trees.  Returns the parts of ``validate_sef``.
    """
    scenarios = ("u", "v")
    leaf = {w: {k: f"{w}:{k}" for k in "abc"} for w in scenarios}
    root = {w: frozenset(leaf[w].values()) for w in scenarios}
    y = {w: frozenset({leaf[w]["b"], leaf[w]["c"]}) for w in scenarios}
    nodes = [*root.values(), *y.values(),
             *(frozenset({o}) for w in scenarios for o in leaf[w].values())]
    at_x, at_y = RandomMove(root), RandomMove(y)
    sdf = StochasticDecisionForest(
        DecisionForest([o for x in root.values() for o in x], nodes),
        scenarios, {x: min(x)[0] for x in nodes}, [at_x, at_y])
    offered = {w: [[frozenset({leaf[w]["a"]}), y[w]],
                   [frozenset({leaf[w]["a"], leaf[w][k]}) for k in "bc"]]
               for w in scenarios}
    choices = {s | t for side in (0, 1)
               for n, s in enumerate(offered["u"][side])
               for n2, t in enumerate(offered["v"][side])
               if not diagonal or n == n2}
    return (sdf, ("i",), {"i": {at_x, at_y}},
            {"i": {at_x: frozenset({frozenset("u"), frozenset("v")}),
                   at_y: frozenset({frozenset("uv")})}},
            {"i": {at_x: (), at_y: ()}}, {"i": choices})


def uneven_parts(linked=False):
    """
    Six scenarios: u, s and t, each a root over terminals a and b, and v,
    w and x, each a root over a terminal a and a node y over terminals b
    and c.  Agent i, told the scenario, owns the move X over the roots of
    u, v, w and x, the move Z over the y nodes, told nothing, and the
    move B over the roots of s and t.  Its choices are the adapted unions
    of one slice per tree on X's scenarios and on B's.  X's components
    fix different availability bits: u fixes X's bit alone, v, w and x
    also Z's, which they must agree on.  With ``linked``, Z has the
    reference choice {v:c, w:c, x:c} and v offers no slice {a, c}, so v,
    w and x share Z's measurability bit, which no slice at v sets.
    Returns the parts of ``validate_sef``.
    """
    leaf = {w: {k: f"{w}:{k}" for k in "abc" if k != "c" or w in "vwx"}
            for w in "usvwxt"}
    root = {w: frozenset(leaf[w].values()) for w in leaf}
    y = {w: frozenset({leaf[w]["b"], leaf[w]["c"]}) for w in "vwx"}
    nodes = [*root.values(), *y.values(),
             *(frozenset({o}) for w in leaf for o in leaf[w].values())]
    at_x = RandomMove({w: root[w] for w in "uvwx"})
    at_z, at_b = RandomMove(y), RandomMove({w: root[w] for w in "st"})
    sdf = StochasticDecisionForest(
        DecisionForest([o for x in root.values() for o in x], nodes),
        tuple(leaf), {x: min(x)[0] for x in nodes}, [at_x, at_z, at_b])
    plain = {w: [frozenset({leaf[w][k]}) for k in "ab"] for w in "ust"}
    slices = {w: [frozenset({leaf[w]["a"]}), y[w],
                  *(frozenset({leaf[w]["a"], leaf[w][k]})
                    for k in ("b" if linked and w == "v" else "bc"))]
              for w in "vwx"}
    ref = frozenset(leaf[w]["c"] for w in "vwx")
    info = {at_x: frozenset(frozenset(w) for w in "uvwx"),
            at_z: frozenset({frozenset("vwx")}),
            at_b: frozenset(frozenset(w) for w in "st")}
    refs = {at_x: (), at_z: (ref,) if linked else (), at_b: ()}
    # the choices are the unions the slice table reads adapted
    table = slice_table(unvalidated((sdf, ("i",), {"i": {at_x, at_z, at_b}},
                                     {"i": info}, {"i": refs}, {"i": ()})),
                        "i", ())
    unions = [s | t | r | q for s in plain["u"] for t in slices["v"]
              for r in slices["w"] for q in slices["x"]]
    unions += [s | t for s in plain["s"] for t in plain["t"]]
    return (sdf, ("i",), {"i": {at_x, at_z, at_b}}, {"i": info},
            {"i": refs}, {"i": {c for c in unions if not table.cut([c])}})


def outside_parts():
    """
    Three scenarios, n first, each a root over terminals a and b; agent
    i, told the scenario, owns the move X over the roots of u and v, with
    no reference choices, and nature alone moves at n.  Two of i's
    choices add n's a or n's b to u's a and v's a; the other three are
    the other unions of one slice at u and one at v.  So X's menu holds
    3 choices with no slice off u and v, and the search's 4 leaves miss
    one, {u:a, v:a}.  One of n's outcomes holds the forest's first bit.
    Returns the parts of ``validate_sef``.
    """
    leaf = {w: {k: f"{w}:{k}" for k in "ab"} for w in "nuv"}
    root = {w: frozenset(leaf[w].values()) for w in leaf}
    nodes = [*root.values(),
             *(frozenset({o}) for w in leaf for o in leaf[w].values())]
    at_x = RandomMove({w: root[w] for w in "uv"})
    sdf = StochasticDecisionForest(
        DecisionForest([o for x in root.values() for o in x], nodes),
        tuple(leaf), {x: min(x)[0] for x in nodes},
        [at_x, RandomMove({"n": root["n"]})])
    choices = {frozenset({leaf["u"][a], leaf["v"][b]})
               for a, b in ("ab", "ba", "bb")}
    choices |= {frozenset({leaf["u"]["a"], leaf["v"]["a"], leaf["n"][k]})
                for k in "ab"}
    return (sdf, ("i",), {"i": {at_x}},
            {"i": {at_x: frozenset({frozenset("u"), frozenset("v")})}},
            {"i": {at_x: ()}}, {"i": choices})


def chained_parts():
    """
    Coin-matching case 2 with its second mover's two moves told z1 and z2
    apart, and offered only the two constant choices: the blocks of the
    two partitions chain every scenario into one component.  The form
    fails Axiom 5.
    """
    form = mp_sef(2)[0]
    x1, x2 = sorted(form.agent_moves["j"], key=canonical)
    info = {**form.info, "j": {x1: mp_partition(("z1",)),
                               x2: mp_partition(("z2",))}}
    constant = frozenset(mp_choice_second(".", dict.fromkeys(MP_SCENARIOS, a))
                         for a in "12")
    return parts_of(form, {**form.choices, "j": constant})[:3] \
        + (info, form.refchoices, {**form.choices, "j": constant})


def count_as_listed(form):
    """
    On every information set: the join's unions equal the whole search's
    leaves as multisets, and the missing choices the whole search's leaves
    that are not choices (``assert_joined_as_searched``).  Returns the
    number of (components, unions) per set where the scenarios split.
    """
    split = []
    for i in form.agents:
        table = slice_table(form, i, form.choices[i])
        for p in info_sets(form, i)[0]:
            leaves = assert_joined_as_searched(form, i, p.random_moves, table)
            visit, options = _search_plan(form, i, p.random_moves, table,
                                          False)
            parts = _components(options, table.start(visit))
            assert sorted(k for part in parts for k in part) \
                == list(range(len(visit)))
            if len(parts) > 1:
                split.append((len(parts), len(leaves)))
    return split


@functools.cache
def twelve_atoms():
    """The 12-atom exit race, built once."""
    return amd_sef(12)[0]


class TestCountPerComponent:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled(self, name):
        count_as_listed(BUNDLED[name]())

    @pytest.mark.parametrize("k", range(3, 11))
    def test_exit_race(self, k):
        # one component per signal block, two leaves each: 2^k unions
        assert count_as_listed(amd_sef(k)[0]) == [(k, 2 ** k)] * 2

    def test_coin_matching_second_mover(self):
        # case 3's second mover sees (r, z1, z2): 8 blocks, 2^8 unions
        assert (8, 256) in count_as_listed(BUNDLED["mp-case3"]())

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_strict_forms(self, seed):
        form = random_strict_sef(make_rng(seed))
        count_as_listed(form)
        count_as_listed(unvalidated(parts_of(form, dropped(
            form, random.Random(seed)))))

    def test_dropped_variants_fail_axiom6_with_the_same_list(self):
        rng = random.Random(33)
        counted = failed = 0
        for name in sorted(BUNDLED):
            form = BUNDLED[name]()
            for _ in range(2):
                parts = parts_of(form, dropped(form, rng))
                counted += bool(count_as_listed(unvalidated(parts)))
                report = check_axiom6_against_oracle(parts)
                failed += report.checked.get("axiom6") is False
        assert counted and failed

    def test_components_that_disagree_on_availability(self):
        # X's set: 4 x 4 pairs, 8 agree on Y's bit; Y's set: 2 x 2
        assert count_as_listed(unvalidated(two_level_parts())) \
            == [(2, 8), (2, 4)]
        assert validate_sef(*two_level_parts()).checked["axiom6"] is True
        # with the diagonal choices only, the join lists the 4 missing
        # unions at X's set, and at Y's set the 2 of them that take
        # {a, b} or {a, c} in both trees
        parts = two_level_parts(diagonal=True)
        assert count_as_listed(unvalidated(parts)) == [(2, 8), (2, 4)]
        report = check_axiom6_against_oracle(parts)
        assert report.checked["axiom6"] is False
        assert len([v for v in report.violations if v[0] == "axiom6"]) == 6

    def test_two_components_are_counted_within_the_cap(self, monkeypatch):
        # X's set: 4 + 4 slices tried and 4 + 8 unions made, where the
        # whole search tries 4 + 16 slices; Y's set takes 2 + 2 and 2 + 4
        monkeypatch.setenv("EXFORM_BUDGET", "20")
        assert validate_sef(*two_level_parts()).checked["axiom6"] is True
        monkeypatch.setenv("EXFORM_BUDGET", "19")
        with pytest.raises(BudgetExceeded):
            validate_sef(*two_level_parts())

    def test_components_that_fix_different_availability_bits(self):
        # B's set: 2 x 2, with X's and Z's bits fixed off its scenarios;
        # X's set: u's 2 leaves, times the 4^3 of v, w and x that agree
        # on Z's bit, 2 x (8 + 8); Z's set: X's bit is 0 at u, no leaf
        form = unvalidated(uneven_parts())
        assert count_as_listed(form) == [(2, 4), (4, 32), (3, 0)]
        assert validate_sef(*uneven_parts()).checked["axiom6"] is True

    def test_a_bit_no_slice_sets_still_links(self):
        # Z's measurability bit is in the masks of v's slice {a, b} and
        # set by the slices {a, c} of w and x: v, w and x are one
        # component, with u 2 x (8 + 1) = 18 leaves
        form = unvalidated(uneven_parts(linked=True))
        assert count_as_listed(form) == [(2, 4), (2, 18)]

    def test_menu_choices_with_slices_off_the_set_are_not_counted(self):
        # 4 unions against the 3 menu choices inside u and v: the join
        # lists the missing one
        parts = outside_parts()
        assert count_as_listed(unvalidated(parts)) == [(2, 4)]
        report = check_axiom6_against_oracle(parts)
        assert [v for v in report.violations if v[0] == "axiom6"] \
            == [("axiom6", ("i", frozenset({"u:a", "v:a"})))]

    def test_chained_blocks_are_one_component(self):
        form = unvalidated(chained_parts())
        table = slice_table(form, "j", form.choices["j"])
        (p,), _ = info_sets(form, "j")
        _, options = _search_plan(form, "j", p.random_moves, table, False)
        assert _components(options, table.start(form.sdf.scenarios)) \
            == [list(range(16))]
        # only the first mover's set splits, by z0
        assert count_as_listed(form) == [(2, 4)]
        report = validate_sef(*chained_parts())
        assert report.checked["axiom5"] is False
        assert report.checked["axiom6"] is True

    def test_the_join_reads_the_bits_each_component_fixes(self):
        # two availability bits: the first component's one slice fixes
        # bit 1 alone, the second's two slices fix bits 0 and 1, agreeing
        # on bit 1 and differing on bit 0, so both pairs agree
        options = [[(1, (0b10, 0b10))],
                   [(2, (0b11, 0b11)), (4, (0b11, 0b10))]]
        assert sorted(_join(options, 0, [[0], [1]], 0b11)) == [3, 5]
        # with the first slice fixing bit 0 as well, at 0, one pair agrees
        options[0] = [(1, (0b11, 0b10))]
        assert _join(options, 0, [[0], [1]], 0b11) == [5]
        # as one component, the whole search meets the same unions
        assert _join(options, 0, [[0, 1]], 0b11) == [5]

    def test_twelve_atom_exit_race_decided(self):
        # the whole search takes 384,930 nodes, over the default cap; the
        # join tries 12 x 94 slices and makes 2 + 4 + ... + 4,096 unions,
        # 9,318 nodes, and meets the menu's 4,096 choices
        assert twelve_atoms().report.checked["axiom6"] is True

    def test_twelve_atom_exit_race_minus_seeded_choices(self):
        # 8 seeded choices dropped per agent: the join lists each of them,
        # once, and nothing else, where a whole search runs past the cap
        # before it meets them
        form = twelve_atoms()
        rng = random.Random(37)
        gone = {i: rng.sample(sorted(form.choices[i], key=sorted), 8)
                for i in form.agents}
        report = validate_sef(*parts_of(form, {
            i: form.choices[i] - set(gone[i]) for i in form.agents}))
        assert report.checked == {**{f"axiom{k}": True for k in range(1, 6)},
                                  "axiom6": False}
        assert report.violations == tuple(sorted(
            (("axiom6", (i, c)) for i in form.agents for c in gone[i]),
            key=lambda v: canonical(v[1])))

    def test_below_the_join_nodes_validation_raises(self, monkeypatch):
        # mp-case3's second mover: the join takes 48 slices and 510
        # unions; a search over its budget decides nothing
        parts = parts_of(BUNDLED["mp-case3"]())
        monkeypatch.setenv("EXFORM_BUDGET", "557")
        with pytest.raises(BudgetExceeded, match="more than 557"):
            validate_sef(*parts)
        monkeypatch.setenv("EXFORM_BUDGET", "558")
        assert validate_sef(*parts).valid

    def test_cap_counts_per_component_nodes(self, monkeypatch):
        # each agent's join tries 4 components of 30 slices and makes
        # 2 + 4 + 8 + 16 unions, 150 nodes, where the whole search takes
        # 450; amd_sef(4)'s other searches fit in 128
        form = amd_sef(4)[0]
        monkeypatch.setenv("EXFORM_BUDGET", "150")
        assert validate_sef(*parts_of(form)).checked["axiom6"] is True
        table = slice_table(form, 1, form.choices[1])
        (p,), _ = info_sets(form, 1)
        with pytest.raises(BudgetExceeded):
            list(whole_search(form, 1, p.random_moves, table))
        visit, options = _search_plan(form, 1, p.random_moves, table, False)
        start, free = start_of(form, table, visit), table.start(visit)
        parts = _components(options, free)
        assert len(_join(options, start, parts, free)) == 16
        monkeypatch.setenv("EXFORM_BUDGET", "149")
        with pytest.raises(BudgetExceeded):
            _join(options, start, parts, free)
        with pytest.raises(BudgetExceeded):
            validate_sef(*parts_of(form))


# --- the batch cut against the per-(choice, tree) cut it replaced --------------

def record_rows(table):
    """Each tree's records in the order made: outcomes, mask, predecessor
    set in iteration order, members in order, and entry once read."""
    return [[(r.outcomes, r.mask, list(r.preds), r.members, r.entry)
             for r in tree.values()] for tree in table.trees]


def assert_offering_current(table):
    """The move index holds, per move x, every record whose predecessor
    set holds x, with members or without, in the order made: the records
    the per-tree scan ``_at`` found in x's tree."""
    for x in table.forest.nodes:
        assert list(map(id, table.offering.get(x, ()))) == [
            id(r) for tree in table.trees for r in tree.values()
            if x in r.preds]


def assert_cut_as_oracle(form, choices=None):
    """
    Each agent's choices cut in one batch against the oracle cutting and
    joining them one by one, on two fresh tables: the verdicts,
    predecessor sets, masks, records (members in order) and entries, and
    the move index.  The cut raises what the oracle raises on a malformed
    partition, and lays out the variables once it cuts a choice.
    """
    for i in form.agents:
        cs = list(form.choices[i] if choices is None else choices[i])
        table, oracle = (slice_table(form, i, ()) for _ in range(2))
        try:
            expected = [c for c in cs if not cut_oracle(oracle, c, join=True)]
        except InputError as err:
            with pytest.raises(InputError, match=re.escape(str(err))):
                table.cut(cs)
            continue
        assert table.cut(cs) == expected
        assert ("at" in vars(table)) == ("at" in vars(oracle)) == bool(cs)
        assert table.preds == oracle.preds
        assert table.choice_of == oracle.choice_of
        assert record_rows(table) == record_rows(oracle)
        assert_offering_current(table)


def mixed(form, rng, extra=12):
    """Per agent, its choices and unions of two of them, adapted or not,
    in a seeded order."""
    found = {}
    for i in form.agents:
        cs = sorted(form.choices[i], key=sorted)
        found[i] = cs + [c | d for c, d in (rng.sample(cs, 2) for _ in range(
            extra if len(cs) > 1 else 0))]
        rng.shuffle(found[i])
    return found


def broken(parts, rng, how):
    """The parts with one agent move's partition made malformed."""
    sdf, agents, agent_moves, info, refchoices, choices = parts
    i = rng.choice(agents)
    m = rng.choice(sorted(agent_moves[i], key=lambda m: repr(m.graph)))
    blocks = sorted(map(sorted, info[i][m]))
    bad = {"missing": None,
           "empty block": [*blocks, []],
           "short": blocks[1:],
           "overlap": [*blocks, blocks[0]]}[how]
    mine = {n: b for n, b in info[i].items() if n != m or bad is not None}
    if bad is not None:
        mine[m] = bad
    return (sdf, agents, agent_moves, {**info, i: mine}, refchoices, choices)


class TestBatchCut:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled(self, name):
        form = BUNDLED[name]()
        assert_cut_as_oracle(form)
        assert_cut_as_oracle(form, mixed(form, random.Random(name)))

    def test_dropped_choices(self):
        rng = random.Random(43)
        for name in SMALL + ["amd", "mp-case3"]:
            form = BUNDLED[name]()
            assert_cut_as_oracle(
                unvalidated(parts_of(form, dropped(form, rng))))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_exit_race(self, k):
        form = amd_sef(k)[0]
        assert_cut_as_oracle(form)
        assert_cut_as_oracle(form, mixed(form, random.Random(k)))

    def test_twelve_atom_exit_race(self):
        assert_cut_as_oracle(twelve_atoms())

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.sampled_from([None, "missing", "empty block", "short",
                            "overlap"]))
    @settings(deadline=None, max_examples=60)
    def test_strict_forms(self, seed, how):
        rng = random.Random(seed)
        form = random_strict_sef(make_rng(seed))
        parts = parts_of(form, mixed(form, rng))
        if how is not None:
            parts = broken(parts, rng, how)
        assert_cut_as_oracle(unvalidated(parts))

    def test_a_batch_of_no_choice_reads_no_partition(self):
        # validation cuts an agent's choices that are unions of nodes,
        # which may be none; a malformed partition is then reported by the
        # check that first reads one, not by an empty cut
        form = BUNDLED["mp-case3"]()
        assert_cut_as_oracle(form, {i: [] for i in form.agents})
        sdf, agents, moves, info, refs, choices = parts_of(form)
        pseudo = unvalidated((sdf, agents, moves,
                              {i: dict.fromkeys(info[i]) for i in agents},
                              refs, choices))
        for i in agents:
            table = slice_table(pseudo, i, ())
            assert table.cut([]) == [] and "at" not in vars(table)
            with pytest.raises(InputError, match="no partition supplied"):
                table.cut(sorted(choices[i], key=sorted)[:1])

    def test_index_follows_records_made_later(self):
        # options(void=True) and offered_option make records after the cut
        form = BUNDLED["mp-case3"]()
        for i in form.agents:
            table = slice_table(form, i, form.choices[i])
            for m in sorted(form.agent_moves[i], key=lambda m: repr(m.graph)):
                for w in sorted(m.domain):
                    table.options(w, m(w), void=True)
                    for c in sorted(form.choices[i], key=sorted)[:3]:
                        table.offered_option(w, c - {min(c)}, {m(w)})
            assert_offering_current(table)

    def test_one_read_per_distinct_mask_on_a_component(self, monkeypatch):
        # mp-case3's second mover: 256 choices on 8 components of two
        # trees, and two masks on each, so 8 x 2 pieces are folded, not
        # 256 x 16 (choice, tree) entries; the choices' pieces are alike
        # once cut to the availability bits, so one join serves all 256
        form = BUNDLED["mp-case3"]()
        table = slice_table(form, "j", ())
        folds = []
        monkeypatch.setattr(adapted, "_fold", lambda known, value, entries: (
            folds.append(len(entries)), _fold(known, value, entries))[1])
        assert table.cut(form.choices["j"]) == []
        assert [len(ks) for _, ks in table.components] == [2] * 8
        assert folds == [2] * 16 + [8]
