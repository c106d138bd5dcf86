"""
Stochastic extensive forms.

An extensive form places agents on top of a stochastic decision forest:
each agent owns a set of random moves, an information structure, reference
choices, and a set of adapted choices subject to six consistency axioms.
"""

import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field
from types import MappingProxyType

from ._util import budget, canonical, canonical_text, sorted_violations
from .adapted import missing_choices, slice_table
from .errors import (
    BudgetExceeded,
    ChoiceError,
    EnumerationBudgetExceeded,
    InputError,
    StructureError,
)
from .forest import is_union_of_nodes
from .sdf import check_recall, validate_reference_choices, xgeq

# default caps of the module's searches; EXFORM_BUDGET overrides each:
# validate_sef's Axiom 2 search and the strategy enumeration
AXIOM2_CAP = 10 ** 6
STRATEGIES_CAP = 10 ** 6

# the kinds of extensive-form violation, in the order their checks run
SEF_KINDS = ("agent_moves", "evaluation", "reference", "choice", "adapted",
             "axiom1", "axiom2", "axiom3", "axiom4", "axiom5", "axiom6")


@dataclass(frozen=True)
class InfoSet:
    """A maximal set of an agent's random moves sharing available choices."""
    agent: object
    random_moves: frozenset

    def moves(self):
        return frozenset(m(w) for m in self.random_moves for w in m.domain)


@dataclass
class SEFReport:
    """The verdict of ``validate_sef``: the violations by kind, and per
    axiom checked whether it holds.  An axiom is checked once every choice
    is a union of nodes and adapted, and then reads True or False."""
    valid: bool
    violations: tuple = ()
    checked: dict = field(default_factory=dict)

    def __bool__(self):
        return self.valid


@dataclass
class Strategy:
    """A complete contingent plan: one available choice per info set."""
    agent: object
    assignment: dict   # InfoSet -> choice

    def __call__(self, info_set):
        return self.assignment[info_set]


def validate_sef(sdf, agents, agent_moves, info, refchoices, choices):
    """
    Check the extensive-form axioms exhaustively.  The report records one
    entry per axiom, True or False; a search over its budget, of Axiom 2
    or of Axiom 6, raises BudgetExceeded, having decided nothing.
    """
    form = StochasticExtensiveForm.__new__(StochasticExtensiveForm)
    form._store(sdf, agents, agent_moves, info, refchoices, choices)
    return _validate(form)


def _validate(form):
    """
    ``validate_sef`` on stored data.  The first pass cuts each choice that
    is a union of nodes into its agent's slice table, which reads its
    adaptedness as it cuts.  The menu index and every axiom below read
    those tables, which live for this call only; Axiom 6 lists per
    information set the adapted unions that are not choices
    (``missing_choices``).  An axiom reads False exactly when it has
    violations, listed by ``sorted_violations``.
    """
    axiom2_cap = budget(AXIOM2_CAP)
    sdf, agents, agent_moves = form.sdf, form.agents, form.agent_moves
    info, refchoices, choices = form.info, form.refchoices, form.choices
    violations = []

    tables = {}
    for i in agents:
        if not agent_moves[i] <= sdf.random_moves:
            violations.append(("agent_moves", (i, "not random moves")))
            break
        values = [m(w) for m in agent_moves[i] for w in m.domain]
        if len(set(values)) != len(values):
            violations.append(("evaluation", (i, "not injective")))
        try:
            validate_reference_choices(sdf, refchoices[i], agent_moves[i])
        except ChoiceError as err:
            violations.append(("reference", (i, str(err))))
        nodes = []
        for c in choices[i]:
            if is_union_of_nodes(sdf.forest, c):
                nodes.append(c)
            else:
                violations.append(("choice", (
                    i, f"not a nonempty union of nodes: {canonical_text(c)}")))
        tables[i] = slice_table(form, i, ())
        violations.extend(("adapted", (i, c))
                          for c in tables[i].cut(nodes, join=True))
    if violations:
        return SEFReport(False, sorted_violations(violations, SEF_KINDS))
    form._index = _menu_index(form, tables)

    # Axiom 1: predecessor sets of an agent's choices must not properly
    # overlap, and overlapping choices agree or are disjoint per scenario
    violations.extend(v for i in agents
                      for v in _axiom1_violations(tables[i], i))

    # Axiom 2: profiles of available choices of active agents are jointly
    # compatible with the move.  x meets choices as it meets their slices,
    # so the distinct slices decide; at a move where a profile of them
    # fails, the whole-choice product lists the witnesses
    count = 0
    for x in sdf.forest.moves():
        for profile in itertools.product(
                *[tables[i].slices_at(x) for i in form.active_agents(x)]):
            count += 1
            if count > axiom2_cap:
                raise BudgetExceeded("too many available-choice profiles")
            if not x.intersection(*profile):
                break
        else:
            continue
        menus = [form.available_at_move(i, x) for i in form.active_agents(x)]
        for profile in itertools.product(*menus):
            count += 1
            if count > axiom2_cap:
                raise BudgetExceeded("too many available-choice profiles")
            if not x.intersection(*profile):
                violations.append(("axiom2", (x, profile)))

    # Axiom 3: disjoint nodes of a shared scenario are separated by
    # disjoint choices of one agent; inside one tree a choice acts through
    # its slice there.  Disjoint nodes lie in two children of their meet,
    # and choices that separate two nodes separate their descendants, so
    # only a failing pair of children has its descendants tried.  In a
    # finite forest this implies strong separation (Axiom 3'): the choices
    # that separate the children of the meet are both on offer there
    down = sdf.forest.down_sets()
    for w in sdf.scenarios:
        sliced = [form._index.distinct[i][w] for i in agents]
        for x in sdf.tree_of(w) & down.keys():
            for a, b in itertools.combinations(sdf.forest.children(x), 2):
                if not _separated(sliced, a, b):
                    violations.extend(
                        ("axiom3", (w, *sorted((y, y2), key=canonical)))
                        for y in down.get(a, (a,)) for y2 in down.get(b, (b,))
                        if not _separated(sliced, y, y2))

    # Axiom 4: active agents can preserve any strictly future node; a node
    # below x lies inside a choice iff it lies inside its slice
    for x in sdf.forest.moves():
        below = down[x] - {x}
        for i in form.active_agents(x):
            slices = tables[i].slices_at(x)
            for y in below:
                if not any(y <= s for s in slices):
                    violations.append(("axiom4", (i, x, y)))

    # Axiom 5: random moves sharing an available choice share exogenous
    # information and reference choices
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

    # Axiom 6: completeness, every adapted union of slices of an
    # information set's menu is a choice
    for i in agents:
        for p in info_sets(form, i)[0]:
            violations.extend(("axiom6", (i, c)) for c in missing_choices(
                form, i, p, tables[i]))

    failed = {kind for kind, _ in violations}
    return SEFReport(not violations, sorted_violations(violations, SEF_KINDS),
                     {f"axiom{k}": f"axiom{k}" not in failed
                      for k in range(1, 7)})


def _separated(sliced, y, y2):
    """Whether disjoint slices of one agent in ``sliced`` hold y and y2."""
    return any(y <= s and y2 <= s2 and not s & s2
               for slices in sliced for s in slices for s2 in slices)


def _axiom1_violations(table, i):
    """
    Axiom 1 for the choices of one agent's slice table: every pair of
    choices whose predecessor sets differ and overlap, and every pair with
    one predecessor set whose slices on a scenario differ and overlap,
    paired across the table's overlapping slices of each tree.  Each pair
    is listed in canonical order.
    """
    groups = {}
    for c, p in table.preds.items():
        if p:
            groups.setdefault(p, []).append(c)
    pairs = [(c, c2, "predecessors differ") for (p, cs), (p2, cs2)
             in itertools.combinations(groups.items(), 2) if p & p2
             for c in cs for c2 in cs2]
    pairs += [(c, c2, table.scenarios[k]) for k, cs, cs2 in table.overlapping()
              for c in cs for c2 in cs2 if table.preds[c] == table.preds[c2]]
    return [("axiom1", (i, *sorted((c, c2), key=canonical), where))
            for c, c2, where in pairs]


_MenuIndex = namedtuple("_MenuIndex",
                        "moves info_sets offered active menu_of menus grouped "
                        "distinct root walks")


def _meet(offered, i, m):
    """The agent's choices offered at every value of the random move."""
    return frozenset.intersection(*[
        offered.get((i, m(w)), frozenset()) for w in m.domain])


def _menu_index(form, tables):
    """
    The menus, read off each agent's slice table: per agent its moves and
    information sets, per (agent, move) the choices offered there, from
    the members of the table's slices each move precedes, and per move its
    active agents in agent order.  ``menu_of`` maps each (agent, agent
    move) to its menu, the meet (``_meet``) that groups the agent's moves
    into information sets, and ``distinct`` maps each agent and scenario
    to the table's distinct slices there.  ``menus`` keeps the menus that
    ``_menu`` has sorted, and ``grouped`` maps the root of each tree where
    an information set has moves to its moves there and its menu grouped
    by slice, the choices with one slice c & root in one group, as the
    table groups the choices offered at the set's first move there.  On a
    validated form these are the menu's choices.  A form assembled without
    validation may add choices offered at that move but off the menu:
    ``_Deviations`` never looks up their partial sums, and a group's first
    member reads the outcome every member with its slice reads.

    ``root`` maps each move to the root of its tree, and ``walks`` maps
    each root to its (agent, move) pairs and its walk: the tree's moves
    smallest first, so each comes after its child moves, each as (move,
    its terminal outcomes, its child moves, its active agents).
    """
    sdf = form.sdf
    index = _MenuIndex({}, {}, {}, {}, {}, {}, {}, {}, {}, {})
    shared = {}   # groupings repeat from tree to tree; each is kept once
    for i in form.agents:
        table = tables[i]
        index.moves[i] = frozenset(m(w) for m in form.agent_moves[i]
                                   for w in m.domain)
        for x in index.moves[i]:
            index.active[x] = index.active.get(x, ()) + (i,)
        index.offered.update(((i, x), cs) for x, cs in table.offered().items())
        index.distinct[i] = {w: table.distinct(w) for w in sdf.scenarios}
        by_menu = {}
        for m in sorted(form.agent_moves[i], key=canonical):
            by_menu.setdefault(_meet(index.offered, i, m), []).append(m)
        index.menu_of.update(((i, m), menu) for menu, ms in by_menu.items()
                             for m in ms)
        sets = tuple(InfoSet(i, frozenset(ms)) for ms in by_menu.values())
        index.info_sets[i] = (sets, MappingProxyType(
            {p: p.moves() for p in sets}))
        for p in sets:
            moves = {}
            for x in index.info_sets[i][1][p]:
                moves.setdefault(sdf.projection[x], []).append(x)
            index.grouped[p] = grouped = {}
            for w, xs in moves.items():
                groups = table.groups_at(xs[0])
                grouped[sdf.root_of(w)] = (tuple(xs),
                                           shared.setdefault(groups, groups))
    forest = sdf.forest
    for x in sorted(forest.moves(), key=len):
        root = index.root[x] = sdf.root_of(sdf.projection[x])
        pairs, walk = index.walks.setdefault(root, ([], []))
        active = index.active.get(x, ())
        pairs.extend((i, x) for i in active)
        below = forest.children(x)
        walk.append((x, frozenset().union(*[z for z in below if len(z) == 1]),
                     tuple([z for z in below if len(z) > 1]), active))
    return index


class StochasticExtensiveForm:
    """
    A validated extensive form.  Construction stores the data once and
    validates the stored form.  Validation builds the menu index, with the
    menus grouped by slice in each tree and each tree's walk for outcome
    fills, from the slice tables of its first pass; a form assembled
    without validation builds it on first use from slice tables of its
    own.  The form keeps no table: each check that needs one builds the
    agent's slice table and drops it when it returns.
    """

    def __init__(self, sdf, agents, agent_moves, info, refchoices, choices,
                 allow_incomplete=False):
        self._store(sdf, agents, agent_moves, info, refchoices, choices)
        self.report = _validate(self)
        # an axiom reads False exactly when it has violations
        if any(not (allow_incomplete and v[0] == "axiom6")
               for v in self.report.violations):
            raise StructureError("invalid extensive form: " + canonical_text(
                self.report.violations[:1]))

    def _store(self, sdf, agents, agent_moves, info, refchoices, choices):
        """The normalised fields, before or without validation."""
        self.sdf = sdf
        self.agents = tuple(agents)
        self.agent_moves = {i: frozenset(agent_moves[i]) for i in self.agents}
        self.info = {i: dict(info[i]) for i in self.agents}
        self.refchoices = {i: {m: tuple(cs) for m, cs in refchoices[i].items()}
                           for i in self.agents}
        self.choices = {i: frozenset(frozenset(c) for c in choices[i])
                        for i in self.agents}

    @functools.cached_property
    def _index(self):
        """The menu index of a form assembled without validation."""
        return _menu_index(self, {i: slice_table(self, i, self.choices[i])
                                  for i in self.agents})

    def moves_of(self, i):
        return self._index.moves[i]

    def active_agents(self, x):
        return self._index.active.get(x, ())

    def available_at(self, i, m):
        """The agent's choices offered at every value of the random move:
        an agent move's menu as the index keeps it, any other move's (a
        ``restricted`` part, say) met from the moves' menus."""
        menu = self._index.menu_of.get((i, m))
        return _meet(self._index.offered, i, m) if menu is None else menu

    def available_at_move(self, i, x):
        return self._index.offered.get((i, x), frozenset())

    def __repr__(self):
        return (f"StochasticExtensiveForm({len(self.agents)} agents, "
                f"{len(self.sdf.scenarios)} scenarios)")


def info_sets(sef, i):
    """
    The partition of the agent's random moves by equality of available
    choices, together with the bijection onto predecessor sets.  Both come
    from the form's menu index and are returned read-only.
    """
    return sef._index.info_sets[i]


def ordered_info_sets(sef, i):
    """The agent's information sets in one order: the canonical order of
    their moves, in which the menu index builds them."""
    return info_sets(sef, i)[0]


def check_recall_and_info(sef, i):
    """The four perfection flags of an agent, each checked exhaustively;
    the slices are those the menu index keeps."""
    distinct = sef._index.distinct[i]
    endo_recall = all(
        not s & s2 or s <= s2 or s2 <= s for w in sef.sdf.scenarios
        for s, s2 in itertools.combinations(distinct[w], 2))
    exo_recall = check_recall(sef.sdf, sef.info[i], sef.agent_moves[i])
    sets, _ = info_sets(sef, i)
    endo_info = all(len(p.random_moves) == 1 for p in sets) and all(
        len(sef.active_agents(x)) == 1 for x in sef.moves_of(i))
    exo_info = all(
        sef.info[i][m] == frozenset(frozenset({w}) for w in m.domain)
        for m in sef.agent_moves[i])
    return {
        "endogenous_recall": endo_recall,
        "exogenous_recall": exo_recall,
        "perfect_endogenous_info": endo_info,
        "perfect_exogenous_info": exo_info,
    }


def check_heraclitus(sef):
    """No strictly ordered pair of moves may share available choices."""
    witnesses = []
    for i in sef.agents:
        mine = sef.moves_of(i)
        for x in mine:
            for x2 in mine:
                if x > x2 and \
                        sef.available_at_move(i, x) & sef.available_at_move(i, x2):
                    witnesses.append((i, x, x2))
        for m in sef.agent_moves[i]:
            for m2 in sef.agent_moves[i]:
                if m != m2 and xgeq(m, m2) and \
                        sef.available_at(i, m) & sef.available_at(i, m2):
                    witnesses.append((i, m, m2))
    return not witnesses, witnesses


def complete_choices(sef):
    """
    The closure adding every adapted choice that agrees scenario-wise with
    existing choices and is offered at a subset of an existing predecessor
    set: the adapted unions of slices, the empty one included, of each
    information set's menu.  Scenario-wise slices and predecessor sets are
    asserted to stay unchanged, and the result is a valid extensive form.
    """
    tables, new_choices = {}, {}
    for i in sef.agents:
        table = tables[i] = slice_table(sef, i, sef.choices[i])
        closure = set(sef.choices[i])
        for p in info_sets(sef, i)[0]:
            closure.update(c for c in missing_choices(sef, i, p, table,
                                                      void=True) if c)
        new_choices[i] = frozenset(closure)
    completed = StochasticExtensiveForm(
        sef.sdf, sef.agents, sef.agent_moves, sef.info, sef.refchoices,
        new_choices)
    for i in sef.agents:
        new = slice_table(sef, i, new_choices[i])
        for w in sef.sdf.scenarios:
            assert tables[i].distinct(w) == new.distinct(w)
        assert set(tables[i].preds.values()) == set(new.preds.values())
    return completed


def _menu(sef, p):
    """The information set's menu in canonical order, sorted once."""
    menus = sef._index.menus
    if p not in menus:
        menus[p] = tuple(sorted(
            sef.available_at(p.agent, next(iter(p.random_moves))), key=sorted))
    return menus[p]


def _strategy_sets(sef, i):
    """The agent's information sets in ``ordered_info_sets`` order, once
    the product of their menu sizes, the agent's strategy count, is checked
    against the cap."""
    cap = budget(STRATEGIES_CAP)
    sets = ordered_info_sets(sef, i)
    total = math.prod(len(sef.available_at(i, next(iter(p.random_moves))))
                      for p in sets)
    if total > cap:
        raise EnumerationBudgetExceeded(f"{total} strategies exceed the budget")
    return sets


def strategies(sef, i):
    """All strategies of the agent, as assignments of available choices."""
    sets = _strategy_sets(sef, i)
    return [Strategy(i, dict(zip(sets, combo))) for combo in
            itertools.product(*[_menu(sef, p) for p in sets])]


def convert_strategy(sef, strategy, form):
    """
    A strategy as a map on info sets, random moves, or moves.  The three
    representations are in bijection via the natural surjections; the
    moves of each of the form's info sets are read off its menu index.
    """
    if form == "infoset":
        return dict(strategy.assignment)
    if form == "randommove":
        return {m: c for p, c in strategy.assignment.items()
                for m in p.random_moves}
    if form == "move":
        _, moves = info_sets(sef, strategy.agent)
        return {x: c for p, c in strategy.assignment.items() for x in moves[p]}
    raise InputError(f"unknown form: {form!r}")


def strategy_from_moves(sef, i, move_map):
    """Rebuild the info-set representation, checking constancy per set."""
    sets, _ = info_sets(sef, i)
    assignment = {}
    for p in sets:
        values = {frozenset(move_map[m(w)])
                  for m in p.random_moves for w in m.domain}
        if len(values) != 1:
            raise InputError(f"assignment not constant on {p!r}")
        (c,) = values
        if c not in sef.available_at(i, next(iter(p.random_moves))):
            raise InputError(f"choice unavailable at {p!r}")
        assignment[p] = c
    return Strategy(i, assignment)


def split_selves(sef, eu=None):
    """
    One agent per endogenous information set.  A bundle of per-agent data
    keyed by (agent, info set) passes through keyed by the new agents.
    """
    agents = []
    agent_moves = {}
    info = {}
    refchoices = {}
    choices = {}
    eu2 = {}
    for i in sef.agents:
        for k, p in enumerate(ordered_info_sets(sef, i)):
            self_id = (i, k)
            agents.append(self_id)
            agent_moves[self_id] = p.random_moves
            info[self_id] = {m: sef.info[i][m] for m in p.random_moves}
            refchoices[self_id] = {m: sef.refchoices[i][m]
                                   for m in p.random_moves}
            choices[self_id] = sef.available_at(
                i, next(iter(p.random_moves)))
            if eu is not None:
                eu2[self_id] = eu[i]
    split = StochasticExtensiveForm(sef.sdf, agents, agent_moves, info,
                                    refchoices, choices)
    return (split, eu2) if eu is not None else (split, None)
