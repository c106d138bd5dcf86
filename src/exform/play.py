"""
Outcome induction and well-posedness.

A strategy profile together with a history determines which outcomes
survive every on-path choice.  Induced outcomes are computed by forward
play from the minimum of the closed history, or, from a move under fixed
tables, by one bottom-up pass memoised on the tables; well-posedness is
verified both by exhaustive enumeration and via the order-theoretic
classification of the underlying forest.
"""

import itertools
from dataclasses import dataclass, field

from ._util import budget
from .errors import (
    BudgetExceeded,
    EnumerationBudgetExceeded,
    InputError,
    MultipleOutcomes,
    NoOutcome,
    NotAHistory,
    NotClosed,
    WNotInHistoryCore,
)
from .forest import DecisionForest, closure, histories, is_history
from .order import order_predicates
from .sdf import StochasticDecisionForest
from .sef import StochasticExtensiveForm, convert_strategy, strategies


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


def _tables(sef, profile):
    """Move-level lookup of the profile, one table per agent."""
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    if set(profile.strategies) != set(sef.agents):
        raise InputError("the profile must name every agent exactly once")
    return {i: convert_strategy(sef, profile.strategies[i], "move")
            for i in sef.agents}


def _core(sef, h):
    h = frozenset(frozenset(x) for x in h)
    if not is_history(sef.sdf.forest, h):
        raise NotAHistory(f"not a history: {sorted(map(sorted, h))}")
    return closure(sef.sdf.forest, h), frozenset.intersection(*h)


def reduction_set(sef, w, profile, h):
    """
    The outcomes of the history's core surviving every choice the profile
    selects at moves within the core that contain the candidate outcome.
    An empty collection of such moves leaves the core unrestricted.
    """
    hbar, core = _core(sef, h)
    if w not in core:
        raise WNotInHistoryCore(f"{w!r} not in the core of the history")
    tables = _tables(sef, profile)
    result = core
    for x in sef.sdf.forest.chain_of(w):
        if x <= core and x in sef.sdf.forest.moves():
            for i in sef.active_agents(x):
                result &= tables[i][x]
    return result


def _compatible_outcomes(sef, tables, h):
    """Forward play: descend from the minimum of the closed history,
    keeping only outcomes that survive each active agent's choice."""
    forest = sef.sdf.forest
    hbar = closure(forest, h)
    core = frozenset.intersection(*hbar)
    start = min(hbar, key=len)
    found = []
    stack = [(start, core)]
    while stack:
        x, allowed = stack.pop()
        if len(x) == 1:
            (w,) = x
            if w in allowed:
                found.append(w)
            continue
        active = sef.active_agents(x)
        if active:
            meet = frozenset(x)
            for i in active:
                meet &= tables[i][x]
            assert meet, "a joint choice emptied a move"
            allowed = allowed & meet
        for y in forest.children(x):
            if y & allowed:
                stack.append((y, allowed))
    return found


def outcome_report(sef, profile, h):
    hbar, core = _core(sef, h)
    tables = _tables(sef, profile)
    compatible = _compatible_outcomes(sef, tables, h)
    reduction = {w: reduction_set(sef, w, profile, h) for w in sorted(core)}
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


class ProfileTables(dict):
    """
    One move-level lookup per agent (agent -> {move: choice}), read-only
    once built, with the memo ``outcome_from`` fills: move -> the outcomes
    below it that survive every active agent's choice on the way down.
    """

    def __init__(self, tables):
        super().__init__(tables)
        self.compatible = {}


def profile_tables(sef, profile):
    """
    Precompute the move-level lookup once for repeated outcome queries.
    The tables are read-only once built: ``outcome_from`` memoises on
    them, so every query on the same tables shares one pass over the
    forest.
    """
    return ProfileTables(_tables(sef, profile))


def _compatible_below(sef, tables, x):
    """The outcomes compatible with the tables from the move x on, filled
    into the tables' memo bottom-up: each move keeps the union over its
    children, cut down to every active agent's choice there; a terminal
    child contributes its one outcome."""
    children = sef.sdf.forest.children
    memo = tables.compatible
    stack = [x]
    while stack:
        y = stack[-1]
        if y in memo:
            stack.pop()
            continue
        pending = [z for z in children(y) if len(z) > 1 and z not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        found = frozenset().union(
            *[z if len(z) == 1 else memo[z] for z in children(y)])
        for i in sef.active_agents(y):
            found &= tables[i][y]
        memo[y] = found
    return memo[x]


def outcome_from(sef, tables, node):
    """
    The unique outcome the precomputed tables induce from a node on.  A
    move is answered from the tables' memo, shared by every query on the
    same tables; any other node goes through the history path, so a
    terminal node raises ``NotAHistory``.
    """
    if node in sef.sdf.forest.moves():
        found = tuple(_compatible_below(sef, tables, node))
    else:
        found = _compatible_outcomes(sef, tables, sef.sdf.forest.up(node))
    if not found:
        raise NoOutcome(f"no outcome from {sorted(node)}")
    if len(found) > 1:
        raise MultipleOutcomes(f"several outcomes from {sorted(node)}")
    return found[0]


@dataclass
class WellPosedReport:
    attainable: bool     # every undiscarded outcome is compatible with some profile
    existence: bool      # every (profile, history) admits a compatible outcome
    uniqueness: bool     # ... at most one, with a singleton reduction set
    witnesses: dict = field(default_factory=dict)

    def __bool__(self):
        return self.attainable and self.existence and self.uniqueness


def _all_profiles(sef, cap):
    per_agent = [strategies(sef, i, cap=cap) for i in sef.agents]
    for combo in itertools.product(*per_agent):
        yield StrategyProfile(dict(zip(sef.agents, combo)))


def check_wellposed_direct(sef, cap=None):
    """Exhaustive verification of the three well-posedness properties over
    all (profile, history) pairs."""
    cap = budget(cap if cap is not None else 10 ** 6)
    hs = sorted(histories(sef.sdf.forest), key=sorted)
    try:
        profiles = list(_all_profiles(sef, cap))
    except BudgetExceeded as err:
        raise EnumerationBudgetExceeded(str(err)) from err
    if len(hs) * len(profiles) > cap:
        raise EnumerationBudgetExceeded(
            f"{len(hs)} histories x {len(profiles)} profiles")
    report = WellPosedReport(True, True, True)
    for h in hs:
        core = frozenset.intersection(*h)
        attained = set()
        for profile in profiles:
            tables = _tables(sef, profile)
            compatible = _compatible_outcomes(sef, tables, h)
            attained.update(compatible)
            if not compatible:
                report.existence = False
                report.witnesses.setdefault("existence", (profile, h))
            if len(compatible) > 1 or (
                    compatible and
                    reduction_set(sef, compatible[0], profile, h)
                    != {compatible[0]}):
                report.uniqueness = False
                report.witnesses.setdefault("uniqueness",
                                            (profile, h, compatible))
        if attained != core:
            report.attainable = False
            report.witnesses.setdefault("attainable", (h, core - attained))
    return report


def check_wellposed_order(sef):
    """Well-posedness via the order classification of the forest: true iff
    the node order is up-discrete and regular."""
    predicates = order_predicates(sef.sdf.forest.as_poset())
    return predicates["up_discrete"] and predicates["regular"]


def scenario_truncation(sef, w):
    """
    The classical extensive form the scenario induces: its decision tree,
    the same agents, and the nonempty scenario slices of their choices.
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
        choices[i] = frozenset(
            c & sdf.root_of(w) for c in sef.choices[i]) - {frozenset()}
    return StochasticExtensiveForm(tsdf, sef.agents, agent_moves, info,
                                   refchoices, choices)


def closed_history_minimum(sef, h):
    """The minimum of a closed history, the move it is the up-set of."""
    h = frozenset(frozenset(x) for x in h)
    forest = sef.sdf.forest
    if not is_history(forest, h) or closure(forest, h) != h:
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
