"""
Choices read through their scenario slices, against the whole-choice scans
they replaced: Axioms 3 and 3', endogenous recall, non-redundancy, and the
per-scenario option lists of Axiom 6 and of the choice completion.  The
oracles below are the earlier loops, kept verbatim, and ``_slices``, which
regrouped a slice table's choices by slice before the table kept each
slice's choices itself.
"""

import ast
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forests, make_rng, random_strict_sef, unvalidated
from exform._util import canonical
from exform.forest import immediate_predecessors
from exform.instances import (
    EXAMPLES,
    SIMPLE_SEF_ROWS,
    VARIANT_SEF_ROWS,
    amd_sef,
    load_example,
    simple_sef,
    variant_sef,
)
from exform.sdf import (
    RandomMove,
    StochasticDecisionForest,
    is_non_redundant,
)
from exform.adapted import slice_table
from exform.sef import (
    SEFReport,
    _menu,
    check_recall_and_info,
    info_sets,
    validate_sef,
)

# --- the whole-choice scans -----------------------------------------------------

def axiom3_oracle(sdf, agents, choices):
    """
    Axioms 3 and 3' over every pair of whole choices containing each pair of
    disjoint nodes: the violations in canonical order, the Axiom 3 flag and
    the strong separation flag.
    """
    violations = []
    checked = {}

    checked["axiom3"] = True
    strict = True
    containing = {}
    preds = {}

    def choices_over(i, y):
        if (i, y) not in containing:
            containing[(i, y)] = [c for c in choices[i] if y <= c]
        return containing[(i, y)]

    def P(c):
        # the forest keeps no predecessor memo, so the oracle keeps its own
        if c not in preds:
            preds[c] = immediate_predecessors(sdf.forest, c)
        return preds[c]

    for w in sdf.scenarios:
        tree = sorted(sdf.tree_of(w), key=canonical)
        for y, y2 in itertools.combinations(tree, 2):
            if y & y2:
                continue
            weak = False
            strong = False
            for i in agents:
                for c in choices_over(i, y):
                    for c2 in choices_over(i, y2):
                        if c & c2 & sdf.root_of(w):
                            continue
                        weak = True
                        for x in P(c) & P(c2) & sdf.tree_of(w):
                            if y <= (x & c) and y2 <= (x & c2):
                                strong = True
                                break
                        if strong:
                            break
                    if strong:
                        break
                if strong:
                    break
            if not weak:
                violations.append(("axiom3", (w, y, y2)))
                checked["axiom3"] = False
            if not strong:
                strict = False
    return sorted(violations, key=canonical), checked["axiom3"], strict


def endogenous_recall_oracle(sef, i):
    endo_recall = True
    for c in sef.choices[i]:
        for c2 in sef.choices[i]:
            for w in sef.sdf.scenarios:
                cw = c & sef.sdf.root_of(w)
                c2w = c2 & sef.sdf.root_of(w)
                if cw & c2w and not (cw <= c2w or c2w <= cw):
                    endo_recall = False
    return endo_recall


def is_non_redundant_oracle(sdf, c):
    """The choice must be void in every scenario where it is never on offer."""
    p = immediate_predecessors(sdf.forest, c)
    for w in sdf.scenarios:
        if not p & sdf.tree_of(w) and frozenset(c) & sdf.root_of(w):
            return False
    return True


def slices_oracle(sdf, cs, w):
    """The distinct nonempty slices of the choices on the scenario, sorted,
    each choice cut on its own."""
    root = sdf.root_of(w)
    return sorted({c & root for c in cs} - {frozenset()}, key=sorted)


def _slices(table, cs, w):
    """The distinct nonempty slices of the choices on the scenario, sorted,
    read off a slice table that holds them."""
    k = table.position[w]
    return sorted({slices_of(table, c)[k] for c in cs} - {frozenset()},
                  key=sorted)


def slices_of(table, c):
    """A cut choice's slices in scenario order, read out of the table's
    records by its mask."""
    whole = table.mask(c)
    return tuple(tree[whole & root].outcomes
                 for tree, root in zip(table.trees, table.root_masks))


def entry_of(table, w, s):
    """The entry of slice s, a set of outcomes of w's tree, read out of
    the table's record of it, or None when s is the whole root."""
    k = table.position[w]
    return table._entry(k, table._record(k, table.mask(s), s)) or None


def records(table, w):
    """The records of w's tree read out, in the order they were made:
    (slice, predecessor set, the choices cut to it)."""
    return [(r.outcomes, r.preds, r.members)
            for r in table.trees[table.position[w]].values()]


def options_oracle(sdf, menu, w):
    """One scenario's option list of the Axiom 6 search."""
    return sorted({frozenset(c & sdf.root_of(w)) for c in menu}, key=sorted)


# --- comparison -----------------------------------------------------------------

def _menus(form, i):
    """Each information set of the agent with its sorted menu of choices."""
    sets, _ = info_sets(form, i)
    return [(p.random_moves, _menu(form, p)) for p in sets]


def parts_of(form, choices=None):
    return (form.sdf, form.agents, form.agent_moves, form.info,
            form.refchoices, form.choices if choices is None else choices)


def check_against_oracles(parts):
    """
    Compare validate_sef with its report under the oracle's Axioms 3/3'
    (Axioms 1 and 2 report before them, Axioms 4 to 6 after), and the
    recall flag, the option lists and non-redundancy with theirs.  Returns
    the report and the oracle's strong separation flag.
    """
    report = validate_sef(*parts)
    form = unvalidated(parts)
    strict = None
    if "axiom3" in report.checked:
        found, weak, strict = axiom3_oracle(form.sdf, form.agents, form.choices)
        rest = [v for v in report.violations if v[0] != "axiom3"]
        k = sum(v[0] in ("axiom1", "axiom2") for v in rest)
        violations = tuple(rest[:k] + found + rest[k:])
        checked = dict(report.checked, axiom3=weak)
        valid = not violations and all(v is not False for v in checked.values())
        assert report == SEFReport(valid, violations, checked)
        # in a finite forest Axiom 3 implies strong separation
        assert strict or not weak
    sdf = form.sdf
    for i in form.agents:
        assert check_recall_and_info(form, i)["endogenous_recall"] \
            == endogenous_recall_oracle(form, i)
        table = slice_table(form, i, form.choices[i])
        for members, menu in _menus(form, i):
            for m in members:
                for w in m.domain:
                    # the choices are adapted, so the slices at the move
                    # are the menu's
                    options = options_oracle(sdf, menu, w)
                    assert _slices(table, menu, w) == options
                    at = sorted(table.slices_at(m(w)), key=sorted)
                    assert at == options
                    # the completion's list adds the empty slice up front
                    assert [frozenset(), *at] \
                        == sorted(set(options) | {frozenset()}, key=sorted)
        for w in sdf.scenarios:
            slices = table.distinct(w)
            assert slices == _slices(table, form.choices[i], w)
            assert slices == [s for s in options_oracle(
                sdf, form.choices[i], w) if s]
        for c in form.choices[i]:
            assert is_non_redundant(sdf, c) == is_non_redundant_oracle(sdf, c)
    return report, strict


def dropped(form, rng):
    """The form's choices with each one dropped with probability 1/3."""
    return {i: frozenset(c for c in sorted(form.choices[i], key=sorted)
                         if rng.random() >= 1 / 3)
            for i in form.agents}


# mp-case1 to mp-case4 are the four forms the coin-matching checks build
BUNDLED = {name: lambda name=name: load_example(name)[0] for name in EXAMPLES}
BUNDLED.update({f"simple{n}": lambda n=n: simple_sef(n)
                for n in SIMPLE_SEF_ROWS})
BUNDLED.update({f"variant{n}": lambda n=n: variant_sef(n)
                for n in VARIANT_SEF_ROWS})


class TestFormsAgreeWithOracles:
    @pytest.mark.parametrize("name", sorted(BUNDLED))
    def test_bundled(self, name):
        report, strict = check_against_oracles(parts_of(BUNDLED[name]()))
        assert report.valid and strict

    def test_six_atom_exit_race(self):
        report, strict = check_against_oracles(parts_of(amd_sef(6)[0]))
        assert report.valid and strict

    def test_dropped_choices(self):
        # seeded drops over every bundled form make Axiom 3 fail; where it
        # holds, so does strong separation, as it must in a finite forest:
        # two choices separating the children of the meet of y and y2 are
        # both on offer at that meet
        rng = random.Random(10)
        failed = 0
        for name in sorted(BUNDLED):
            form = BUNDLED[name]()
            for _ in range(3):
                report, strict = check_against_oracles(
                    parts_of(form, dropped(form, rng)))
                failed += report.checked.get("axiom3") is False
                assert strict or report.checked.get("axiom3") is not True
        assert failed

    def test_only_a_failing_pair_of_children_has_its_descendants_tried(self):
        # validate_sef tests each move's children in pairs and tries the
        # descendants of a pair only where it fails: the violations are the
        # oracle's, and seeded drops give failing pairs of children with
        # descendant pairs that are separated all the same
        rng = random.Random(12)
        below, separated = 0, 0
        for name in sorted(BUNDLED):
            form = BUNDLED[name]()
            forest = form.sdf.forest
            down = forest.down_sets()
            for _ in range(3):
                report, _ = check_against_oracles(
                    parts_of(form, dropped(form, rng)))
                found = {v[1] for v in report.violations if v[0] == "axiom3"}
                for x in down:
                    for a, b in itertools.combinations(forest.children(x), 2):
                        w = form.sdf.projection[x]
                        if (w, *sorted((a, b), key=canonical)) not in found:
                            continue
                        pairs = [(w, *sorted((y, y2), key=canonical))
                                 for y in down.get(a, (a,))
                                 for y2 in down.get(b, (b,))]
                        below += sum(pair in found for pair in pairs) - 1
                        separated += sum(pair not in found for pair in pairs)
        assert below and separated

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.data())
    @settings(deadline=None, max_examples=60)
    def test_strict_forms_and_their_drops(self, seed, data):
        form = random_strict_sef(make_rng(seed))
        report, strict = check_against_oracles(parts_of(form))
        assert report.valid and strict
        gone = data.draw(st.sets(st.sampled_from(
            sorted(form.choices["i"], key=sorted))))
        check_against_oracles(parts_of(form, {"i": form.choices["i"] - gone}))


@given(forests(max_outcomes=8))
@settings(deadline=None)
def test_non_redundancy_on_every_union_of_nodes(f):
    # one scenario per tree, one singleton-domain random move per move
    scenario = {root: f"s{k}" for k, root in enumerate(sorted(f.roots(), key=sorted))}
    projection = {x: scenario[max(f.up(x), key=len)] for x in f.nodes}
    moves = [RandomMove({projection[x]: x}) for x in f.moves()]
    sdf = StochasticDecisionForest(f, tuple(scenario.values()), projection, moves)
    outcomes = sorted(f.outcomes)
    for size in range(1, len(outcomes) + 1):
        for c in itertools.combinations(outcomes, size):
            assert is_non_redundant(sdf, c) == is_non_redundant_oracle(sdf, c)


# --- every cut by a root outside the slice table is listed, with its reason -----

SRC = Path(__file__).resolve().parents[1] / "src" / "exform"
# the slice table, the one place that cuts the choices of a form: ``cut``
# cuts each choice's mask, ``_record`` its outcomes once per distinct
# slice, and ``missing`` the mask of a union of its slices, to read their
# records
INDEXER = {("adapted.py", "cut"), ("adapted.py", "_record"),
           ("adapted.py", "missing")}
# the attributes that hold slice records, outcome bits or masks, and the
# names the forest's outcome-bit index had before the table built its own
MASKED = {"trees", "bit", "root_masks", "choice_of", "_bit", "_root_masks"}
# every other cut by a root in the package's modules, with its reason
ALLOWED = {
    ("play.py", "key", "tables[i][x] & root"):
        "a profile's table may hold a set that is not a choice of the form, "
        "and the sweep reads few enough keys that a lookup gains nothing",
    ("play.py", "scenario_truncation", "frozenset(ref) & sdf.root_of(w)"):
        "reference choices need not be choices of the form",
}


def root_cuts(source):
    """(innermost function, expression) of each ``&`` or ``&=`` with an
    operand that names a root."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd) \
                and "root" in ast.unparse(node.left) + ast.unparse(node.right):
            found.append((function, ast.unparse(node)))
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd) \
                and "root" in ast.unparse(node.target) + ast.unparse(node.value):
            found.append((function, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


class TestSliceGuard:
    def test_scan_sees_each_form_of_cut(self):
        source = ("def f(c, sdf, w, root):\n"
                  "    a = c & root\n"
                  "    b = frozenset(c) & sdf.root_of(w)\n"
                  "    c &= roots[w]\n"
                  "    return a & b, 'c & root'\n")
        assert root_cuts(source) == [("f", "c & root"),
                                     ("f", "frozenset(c) & sdf.root_of(w)"),
                                     ("f", "c &= roots[w]")]

    def test_only_the_index_slices_the_choices(self):
        found = {(path.name, function, cut)
                 for path in sorted(SRC.glob("*.py"))
                 for function, cut in root_cuts(
                     path.read_text(encoding="utf-8"))}
        assert {site[:2] for site in found} >= INDEXER
        assert {site for site in found if site[:2] not in INDEXER} \
            == set(ALLOWED)

    def test_only_adapted_reads_a_slice_record(self):
        # a record's layout, the masks and the outcome-bit index are
        # adapted.py's own: other modules ask the table, and the forest
        # keeps no bits
        def reads(name):
            tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
            return [ast.unparse(node) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr in MASKED]

        assert {"self.trees", "self.bit", "self.root_masks",
                "self.choice_of"} <= set(reads("adapted.py"))
        assert {path.name: reads(path.name) for path in SRC.glob("*.py")
                if path.name != "adapted.py" and reads(path.name)} == {}
        sdf = load_example("simple")[0].sdf
        assert not {"_bit", "_root_masks"} & set(vars(sdf))

    @pytest.mark.parametrize("k", range(3, 7))
    def test_exit_race_reports_as_pinned(self, k):
        # as validated before the slices were read off the index
        report = amd_sef(k)[0].report
        assert report.valid
        assert (report.violations, report.checked) == ((), {
            f"axiom{n}": True for n in range(1, 7)})
