"""
The adapted-choice table against the code it replaced: the whole-choice
body of check_adapted, and the two product searches over one slice per
active scenario, Axiom 6 of validate_sef and the choice completion.  The
oracles below are the earlier code, kept verbatim apart from their names.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_choice_parts, make_rng, random_strict_sef
from exform._util import canonical
from exform.errors import BudgetExceeded, ChoiceError, StructureError
from exform.forest import immediate_predecessors, is_union_of_nodes
from exform.instances import EXAMPLES, amd_sef, load_example, mp_sef
from exform.sdf import (
    _is_block_union,
    check_adapted,
    is_available_at,
    is_complete,
    is_non_redundant,
    preimage,
)
from exform.sef import (
    StochasticExtensiveForm,
    _adapted_unions,
    _slice_table,
    complete_choices,
    validate_sef,
)
from test_slices import BUNDLED, _menus, dropped, parts_of, slices_oracle

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
    """The search's leaves, through a slice table of the agent's choices."""
    table = _slice_table(form, i, form.choices[i])
    return _adapted_unions(form, i, members, table, void)


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
        table = _slice_table(form, i, ())

        def adapted(c):
            return table.cut(c, join=True)

        for members, menu in _menus(form, i):
            for void in (False, True):
                options, total = product(form, members, menu, void)
                if total > limit:
                    continue
                compared += 1
                unions = (frozenset().union(*combo)
                          for combo in itertools.product(*options))
                expected = {c for c in unions if c and adapted(c)}
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
    form = StochasticExtensiveForm.__new__(StochasticExtensiveForm)
    form._store(*parts)
    witnesses, flag = axiom6_oracle(form)
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
                parts = parts_of(form, dropped(form, rng))
                variant = StochasticExtensiveForm.__new__(
                    StochasticExtensiveForm)
                variant._store(*parts)
                check_table_against_oracle(variant, rng, sample=30)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_strict_forms(self, seed):
        check_table_against_oracle(random_strict_sef(make_rng(seed)),
                                   random.Random(seed))

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
                variant = StochasticExtensiveForm.__new__(
                    StochasticExtensiveForm)
                variant._store(*parts_of(form, dropped(form, rng)))
                check_leaves_against_product(variant)
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
        # 4 scenarios: Axiom 2 counts 8 profiles, the search takes 14 nodes;
        # the amd completion searches take 282 nodes each
        form = load_example("amd")[0]
        monkeypatch.setenv("EXFORM_BUDGET", "10")
        report = validate_sef(*constant_choice_parts(4))
        assert report.valid and report.checked["axiom6"] is None
        monkeypatch.setenv("EXFORM_BUDGET", "14")
        assert validate_sef(*constant_choice_parts(4)).checked["axiom6"] is True
        monkeypatch.setenv("EXFORM_BUDGET", "281")
        with pytest.raises(BudgetExceeded):
            complete_choices(form)
