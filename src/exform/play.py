"""
Outcome induction and well-posedness.

A strategy profile together with a history determines which outcomes
survive every on-path choice.  In a finite forest every history is the
up-set of a move, its core, so the outcomes a profile induces from a
history are the core's entry in ``_tree_fill``: one pass, bottom-up,
over the walk of the core's tree that the form indexed at construction.
``outcome_report`` and ``outcome_from`` answer one query each from a
fresh fill.

A move lies in one scenario's tree, and everything below it lies inside
that tree's root r, so a query from the move reads each choice c the
profile plays at the tree's moves only through its slice c & r.  Every
caller that makes several queries reads through one per-call memo,
``TreeFills``: it fills a tree once per distinct signature, the slices
the profile's tables hold at that tree's moves, by one pass over the
tree's walk that the form indexed at construction, and every profile
that agrees with it on the tree reads that fill.  A profile's reader keys
each tree once, and the deviation sweep reads a term once per distinct
slice of the deviating agent's choices in its tree.  The direct
well-posedness check enumerates no profile: it decides each tree's
histories once per key, one distinct slice per information set with
moves there, and reads its witnesses off those verdicts.
Well-posedness is also decided by the order-theoretic classification of
the underlying forest.
"""

import itertools
import math
from dataclasses import dataclass, field

from ._util import budget, canonical_text
from .errors import (
    EnumerationBudgetExceeded,
    InputError,
    MultipleOutcomes,
    NoOutcome,
    NotClosed,
    WNotInHistoryCore,
)
from .forest import DecisionForest, closure, histories, is_history
from .sdf import StochasticDecisionForest
from .sef import (
    Strategy,
    StochasticExtensiveForm,
    _menu,
    _strategy_sets,
    convert_strategy,
)

# default cap of the (history, tree key) pairs the direct well-posedness
# check decides; EXFORM_BUDGET overrides it
WELLPOSED_CAP = 10 ** 6


@dataclass
class StrategyProfile:
    """One strategy per agent of the extensive form."""
    strategies: dict   # agent -> Strategy

    def __getitem__(self, agent):
        return self.strategies[agent]


@dataclass
class OutcomeReport:
    history: frozenset
    profile: StrategyProfile
    reduction: dict      # candidate outcome -> reduction set
    induced: object      # the outcome, or None
    failure: object      # None, "no-outcome", or "multiple"


def _core(sef, h):
    h = closure(sef.sdf.forest, h)
    return h, min(h, key=len)


def _reduction(sef, tables, w, core):
    """``reduction_set`` on built tables, for an outcome w of the core."""
    result = core
    for x in sef.sdf.forest.chain_of(w):
        if x <= core and x in sef.sdf.forest.moves():
            for i in sef.active_agents(x):
                result &= tables[i][x]
    return result


def reduction_set(sef, w, profile, h):
    """
    The outcomes of the history's core surviving every choice the profile
    selects at moves within the core that contain the candidate outcome.
    An empty collection of such moves leaves the core unrestricted.
    """
    _, core = _core(sef, h)
    if w not in core:
        raise WNotInHistoryCore(f"{w!r} not in the core of the history")
    return _reduction(sef, profile_tables(sef, profile), w, core)


def outcome_report(sef, profile, h):
    hbar, core = _core(sef, h)
    tables = profile_tables(sef, profile)
    compatible = sorted(_tree_fill(sef, tables, sef._index.root[core])[core])
    reduction = {w: _reduction(sef, tables, w, core) for w in sorted(core)}
    if not compatible:
        induced, failure = None, "no-outcome"
    elif len(compatible) > 1:
        induced, failure = None, "multiple"
    else:
        induced, failure = compatible[0], None
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    return OutcomeReport(hbar, profile, reduction, induced, failure)


def induced_outcome(sef, profile, h):
    report = outcome_report(sef, profile, h)
    if report.failure == "no-outcome":
        raise NoOutcome(f"no outcome compatible with the profile given {h!r}")
    if report.failure == "multiple":
        raise MultipleOutcomes(f"several compatible outcomes given {h!r}")
    return report.induced


def profile_tables(sef, profile):
    """
    The move-level lookup of the profile, one table per agent
    (agent -> {move: choice}), built once for repeated outcome queries;
    the tables are read-only once built.
    """
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    if set(profile.strategies) != set(sef.agents):
        raise InputError("the profile must name every agent exactly once")
    tables = {i: convert_strategy(sef, profile.strategies[i], "move")
              for i in sef.agents}
    for i, table in tables.items():
        if missing := sef.moves_of(i) - table.keys():
            raise InputError(f"no choice of {i!r} at {canonical_text(missing)}")
    return tables


def _one_outcome(found, node):
    """The one outcome found from the node, else the error naming it."""
    if len(found) == 1:
        (w,) = found
        return w
    if not found:
        raise NoOutcome(f"no outcome from {sorted(node)}")
    raise MultipleOutcomes(f"several outcomes from {sorted(node)}")


def outcome_from(sef, tables, node):
    """
    The unique outcome the precomputed tables induce from a node on, read
    off a fresh fill of the tree of the core of the history ``up(node)``
    (the node itself when it is a move); a terminal node is no history
    and raises ``NotAHistory``.
    """
    core = node
    if node not in sef.sdf.forest.moves():
        _, core = _core(sef, sef.sdf.forest.up(node))
    return _one_outcome(_tree_fill(sef, tables, sef._index.root[core])[core],
                        node)


def _tree_fill(sef, tables, root):
    """The outcomes compatible with the tables from each move of the tree
    of the root on, from the tree's walk in the form's index: each move
    keeps its terminal outcomes and the union of its child moves' fills,
    cut down to every active agent's choice there."""
    fill = {}
    for x, found, below, active in sef._index.walks[root][1]:
        if below:
            found = found.union(*[fill[z] for z in below])
        for i in active:
            found &= tables[i][x]
        fill[x] = found
    return fill


class TreeFills:
    """
    One call's memo of compatible-outcome fills, keyed by (root, slice
    signature).  Every node below a tree's root r lies inside r, so a fill
    of that tree reads each choice c the tables hold at the tree's moves
    only through its slice c & r.  The signature lists those slices over
    the tree's (agent, move) pairs, in the order the form's index keeps
    them; inside one tree an information set's moves share their choice,
    so profiles agree on it exactly when their slices per (agent,
    information set) agree.  The fill under a key is ``_tree_fill`` of r,
    made once from the first tables that carry the key by one pass over
    the tree's walk, which the form's index built at construction.  The
    memo is all the object builds, and it goes with the object.
    """

    def __init__(self, sef):
        self.sef = sef
        self.root = sef._index.root   # move -> the root of its tree
        self.fills = {}   # (root, signature) -> {move of the tree: outcomes}

    def key(self, tables, root):
        """The tables' key on the tree of the root: the slices of the
        choices every agent's table holds at its moves in that tree."""
        return root, tuple([tables[i][x] & root
                            for i, x in self.sef._index.walks[root][0]])

    def fill(self, tables, key):
        """The fill under the key, made from the tables on a miss."""
        fill = self.fills.get(key)
        if fill is None:
            fill = self.fills[key] = _tree_fill(self.sef, tables, key[0])
        return fill

    def reader(self, tables):
        """``outcome_from`` under the tables, as a function of the node: each
        tree's key is computed and its fill found once, and each move's
        outcome read once; a node that is no move goes to ``outcome_from``."""
        found, trees = {}, {}   # move -> outcome; root -> fill

        def outcome(x):
            if x not in found:
                root = self.root.get(x)
                if root is None:
                    return outcome_from(self.sef, tables, x)
                if root not in trees:
                    trees[root] = self.fill(tables, self.key(tables, root))
                found[x] = _one_outcome(trees[root][x], x)
            return found[x]

        return outcome


def scenario_outcomes(sef, profile):
    """The outcome the profile's play reaches in each scenario, from the
    root of its tree, scenarios in sorted order; a root that is no move is
    its own one outcome."""
    outcome = TreeFills(sef).reader(profile_tables(sef, profile))
    moves = sef.sdf.forest.moves()
    roots = {w: sef.sdf.root_of(w) for w in sorted(sef.sdf.scenarios)}
    return {w: outcome(x) if x in moves else next(iter(x))
            for w, x in roots.items()}


@dataclass
class WellPosedReport:
    attainable: bool     # every undiscarded outcome is compatible with some profile
    existence: bool      # every (profile, history) admits a compatible outcome
    uniqueness: bool     # ... at most one, with a singleton reduction set
    witnesses: dict = field(default_factory=dict)

    def __bool__(self):
        return self.attainable and self.existence and self.uniqueness


def check_wellposed_direct(sef):
    """
    Exhaustive verification of the three well-posedness properties over
    all (profile, history) pairs, without enumerating profiles.  Profiles
    run lexicographically in the menu indices of their (agent,
    information set) coordinates, agents in order and sets in
    ``ordered_info_sets`` order; histories run by their sorted lists of
    sorted nodes, a total order that does not follow the hash seed.  A
    history's verdict reads only its core's tree, where a profile acts
    through its choices' slices at the coordinates with moves there.  So
    each tree's histories are decided, and their outcomes attained, once
    per key: one slice per such coordinate, taken at its first menu
    index.  The key's first profile, index 0 elsewhere, gives its
    ``TreeFills`` fill, and the least failing pair over the keys is the
    witness.  The caps count each agent's strategies, then the (history,
    tree key) pairs so decided, before any is.
    """
    cap = budget(WELLPOSED_CAP)
    hs = sorted(histories(sef.sdf.forest),
                key=lambda h: sorted(map(sorted, h)))
    coords = [(i, p, _menu(sef, p)) for i in sef.agents
              for p in _strategy_sets(sef, i)]
    profiles = math.prod(len(menu) for *_, menu in coords)
    cores = {h: frozenset.intersection(*h) for h in hs}
    fills = TreeFills(sef)
    trees = {}   # root -> its histories as (position, history)
    for n, h in enumerate(hs):
        trees.setdefault(fills.root[cores[h]], []).append((n, h))
    # root -> its coordinates as (n, their moves there, the first menu index
    # of each slice group there; unvalidated forms may group off-menu choices)
    local = {root: [] for root in trees}
    for n, (_, p, menu) in enumerate(coords):
        rank = {c: k for k, c in enumerate(menu)}
        for root, (xs, groups) in sef._index.grouped[p].items():
            ranks = [[rank[c] for c in group if c in rank] for group in groups]
            local[root].append((n, xs, sorted(min(r) for r in ranks if r)))
    # (history, tree key) pairs, each decided once below
    pairs = 0 if not profiles else sum(
        len(group) * math.prod(len(firsts) for *_, firsts in local[root])
        for root, group in trees.items())
    if pairs > cap:
        raise EnumerationBudgetExceeded(
            f"{pairs} (history, tree key) pairs exceed the budget")
    attained = {h: set() for h in hs}
    report = WellPosedReport(True, True, True)
    if not profiles:
        # an information set offers no choice: no profile, so no outcome
        report.existence = report.uniqueness = False
        report.witnesses["existence"] = report.witnesses["uniqueness"] = next(
            p for _, p, menu in coords if not menu)
        trees = {}
    # kind -> the least (menu indices of a failing key's first profile,
    # position, history, ...) over the failing keys: the first failing pair
    least = {}
    for root, group in trees.items():
        for key in itertools.product(*[firsts for *_, firsts in local[root]]):
            tables = {i: {} for i in sef.agents}
            index = [0] * len(coords)
            for (n, xs, _), k in zip(local[root], key):
                i, _, menu = coords[n]
                tables[i].update(dict.fromkeys(xs, menu[k]))
                index[n] = k
            fill = fills.fill(tables, fills.key(tables, root))
            found = {}
            for n, h in group:
                compatible = sorted(fill[cores[h]])
                attained[h].update(compatible)
                if not compatible:
                    found.setdefault("existence", (index, n, h))
                elif len(compatible) > 1 or _reduction(
                        sef, tables, compatible[0], cores[h]) != {compatible[0]}:
                    found.setdefault("uniqueness", (index, n, h, compatible))
            for kind, pair in found.items():
                least[kind] = min(least.get(kind, pair), pair)
    for kind, (index, _, *witness) in sorted(least.items(),
                                             key=lambda item: item[1][:2]):
        setattr(report, kind, False)
        profile = {i: Strategy(i, {}) for i in sef.agents}
        for (i, p, menu), k in zip(coords, index):
            profile[i].assignment[p] = menu[k]
        report.witnesses[kind] = (StrategyProfile(profile), *witness)
    for h in hs:
        if attained[h] != cores[h]:
            report.attainable = False
            report.witnesses.setdefault("attainable", (h, cores[h] - attained[h]))
    return report


def check_wellposed_order(sef):
    """Well-posedness via the order classification of the forest: true iff
    the node order is up-discrete and regular.  Finiteness settles it: the
    form's DecisionForest is a finite rooted forest, validated when it was
    built, and every nonempty chain of a finite poset has a maximum and
    every strict up-set an infimum (``order.order_predicates``)."""
    return True


def scenario_truncation(sef, w):
    """
    The classical extensive form the scenario induces: its decision tree,
    the same agents, and the nonempty scenario slices of their choices,
    as the menu index keeps them.
    """
    sdf = sef.sdf
    nodes = sdf.tree_of(w)
    forest = DecisionForest(sdf.root_of(w), nodes)
    projection = {x: w for x in nodes}
    moves = [m.restricted({w}) for m in sdf.random_moves if w in m.domain]
    tsdf = StochasticDecisionForest(forest, (w,), projection, moves)
    point = frozenset({frozenset({w})})
    agent_moves = {}
    info = {}
    refchoices = {}
    choices = {}
    for i in sef.agents:
        mine = frozenset(m.restricted({w}) for m in sef.agent_moves[i]
                         if w in m.domain)
        agent_moves[i] = mine
        info[i] = {m: point for m in mine}
        refchoices[i] = {}
        for m in sef.agent_moves[i]:
            if w in m.domain:
                traces = []
                for ref in sef.refchoices[i][m]:
                    trace = frozenset(ref) & sdf.root_of(w)
                    if trace and trace not in traces:
                        traces.append(trace)
                refchoices[i][m.restricted({w})] = tuple(traces)
        choices[i] = frozenset(sef._index.distinct[i][w])
    return StochasticExtensiveForm(tsdf, sef.agents, agent_moves, info,
                                   refchoices, choices)


def closed_history_minimum(sef, h):
    """The minimum of a closed history, the move it is the up-set of."""
    h = frozenset(frozenset(x) for x in h)
    if not is_history(sef.sdf.forest, h):
        raise NotClosed(f"not a closed history: {sorted(map(sorted, h))}")
    return min(h, key=len)


def random_history_minimum(sef, family):
    """
    The random move whose per-scenario up-sets realize a family of closed
    histories, keyed by scenario.  Requires an order consistent forest.
    """
    if not family:
        raise NotClosed("empty family")
    minima = {w: closed_history_minimum(sef, h) for w, h in family.items()}
    domain = frozenset(family)
    for m in sef.sdf.random_moves:
        if domain <= m.domain and all(m(w) == minima[w] for w in domain):
            return m
    raise NotClosed("the family is not a closed random history")
