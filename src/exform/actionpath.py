"""
Forests and extensive forms built from explicit action-path data: outcomes
are (scenario, path) pairs over a finite time grid, the forest's nodes
the outcomes that share a scenario and a strict prefix, and history
structures place agents on that forest with the choices the action-path
axioms admit.  An agent's choices at each history block are the adapted
unions of one single-action slice per scenario, listed by the engine that
Axiom 6 and the choice completion run (``adapted.adapted_unions``).
"""

import functools
import itertools
from dataclasses import dataclass

from ._util import budget, powerset
from .adapted import SliceTable, adapted_unions
from .errors import (APAxiomViolation, APSEFAxiomViolation, BudgetExceeded,
                     InputError, StructureError)
from .forest import DecisionForest
from .sdf import RandomMove, StochasticDecisionForest, check_recall, xgeq
from .sef import StochasticExtensiveForm

# default cap of the joint action profiles and of the reference-choice
# action sets of action-path forms; EXFORM_BUDGET overrides it
AP_PROFILES_CAP = 10 ** 6


# --- action-path forests ----------------------------------------------------

@dataclass(frozen=True)
class ActionPathData:
    """
    Explicit finite action-path data: agents, per-agent action sets, a
    totally ordered time grid with minimum 0, and the outcome set given as
    pairs (scenario, path).  A path is a tuple of action profiles, one per
    grid time, each profile a tuple aligned with the agent order.
    """
    agents: tuple
    actions: dict
    times: tuple
    scenarios: tuple
    paths: frozenset

    def __post_init__(self):
        if not self.agents:
            raise InputError("no agents")
        for agent in self.agents:
            if agent not in self.actions:
                raise InputError(f"agent {agent!r} has no action set")
        if not self.times or self.times[0] != 0 or list(self.times) != sorted(set(self.times)):
            raise InputError("times must be strictly increasing from 0")
        for (w, f) in self.paths:
            if w not in self.scenarios or len(f) != len(self.times):
                raise InputError(f"malformed outcome {(w, f)!r}")
            for profile in f:
                if len(profile) != len(self.agents):
                    raise InputError(f"malformed action profile in {f!r}")
                for agent, action in zip(self.agents, profile):
                    if action not in self.actions[agent]:
                        raise InputError(f"unknown action {action!r} of {agent!r}")
        for w in self.scenarios:
            if not any(v == w for (v, _) in self.paths):
                raise InputError(f"scenario {w!r} admits no path")

    def prefix(self, f, t):
        """The strict prefix of a path: actions at times before t."""
        k = self.times.index(t)
        return f[:k]

    def prefixes(self, t):
        """The strict prefixes before t of all outcome paths."""
        k = self.times.index(t)
        return {prefix for (_, prefix) in self._nodes if len(prefix) == k}

    def node(self, w, prefix):
        """The outcomes of scenario w whose paths start with the prefix."""
        return self._nodes.get((w, prefix), frozenset())

    @functools.cached_property
    def _nodes(self):
        """(scenario, prefix) -> ``node``, for each prefix of each path."""
        nodes = {}
        for (w, f) in self.paths:
            for k in range(len(f) + 1):
                nodes.setdefault((w, f[:k]), set()).add((w, f))
        return {key: frozenset(outcomes) for key, outcomes in nodes.items()}


def _check_ap_axioms(data, require_maximal):
    for (w, f) in data.paths:
        for t in data.times:
            node = data.node(w, data.prefix(f, t))
            for u in data.times:
                if t < u and node == data.node(w, data.prefix(f, u)):
                    if len(node) != 1:
                        raise APAxiomViolation(1, (w, f, t, u))

    # axiom 2 (boundedness) needs no check: on a finite grid the last
    # time with a nonempty node bounds every set of such times

    if require_maximal:
        for t in data.times:
            domains = {p: _ap_domain_of_prefix(data, p)
                       for p in data.prefixes(t)}
            for pf, df in domains.items():
                for pg, dg in domains.items():
                    if pf == pg or not df or not dg or df & dg:
                        continue
                    ok = False
                    for u in data.times:
                        if u > t:
                            continue
                        ku = data.times.index(u)
                        if pf[:ku] != pg[:ku] and \
                           _ap_domain_of_prefix(data, pf[:ku]) & \
                           _ap_domain_of_prefix(data, pg[:ku]):
                            ok = True
                            break
                    if not ok:
                        raise APAxiomViolation(3, (t, pf, pg))


def _ap_domain_of_prefix(data, prefix):
    """The scenarios in which the prefix leads to a move: two outcomes."""
    return {w for w in data.scenarios if len(data.node(w, prefix)) >= 2}


def build_action_path_sdf(data, require_maximal=True):
    """
    Build the induced stochastic decision forest from action-path data,
    verifying its axioms first.  Returns the SDF and the timing map from
    random moves to grid times.
    """
    _check_ap_axioms(data, require_maximal)

    # the nodes are the index's outcome sets, a whole path's the singletons
    nodes = set(data._nodes.values())
    forest = DecisionForest(frozenset(data.paths), nodes)
    projection = {x: next(iter(x))[0] for x in nodes}

    # the moves after one prefix, one per scenario, make a random move
    seen = {}
    for (w, prefix), node in data._nodes.items():
        if len(node) > 1:
            seen.setdefault(prefix, {})[w] = node
    timing = {RandomMove(assignment): data.times[len(prefix)]
              for prefix, assignment in seen.items()}
    sdf = StochasticDecisionForest(forest, data.scenarios, projection, timing)
    return sdf, timing


def timing_map(sdf, timing):
    """Node-level timing: the unique grid time of each move."""
    result = {}
    for m, t in timing.items():
        for w in m.domain:
            x = m(w)
            if x in result and result[x] != t:
                raise StructureError(f"ambiguous time at {x!r}")
            result[x] = t
    return result


def eis_from_filtration(sdf, timing, observations, filtration):
    """
    Exogenous information from observation variables plus a filtration:
    at each random move, the agent measures every observation made at
    earlier-or-equal random moves together with the filtration at the
    move's time, restricted to the current domain.  Recall of the result
    is asserted.
    """
    info = {}
    for m in sdf.random_moves:
        parts = [filtration[timing[m]]]
        for m2 in sdf.random_moves:
            if xgeq(m2, m) and m2 in observations:
                values = observations[m2]
                blocks = {}
                for w in sdf.scenarios:
                    blocks.setdefault(values.get(w, "__undefined__"), set()).add(w)
                parts.append([frozenset(b) for b in blocks.values()])
        info[m] = _meet_partitions(parts, m.domain)
    if not check_recall(sdf, info, sdf.random_moves):
        raise StructureError("constructed structure unexpectedly lacks recall")
    return info


def _meet_partitions(partitions, domain):
    result = {}
    for w in domain:
        key = tuple(frozenset(b) & domain
                    for part in partitions for b in sorted(map(frozenset, part), key=repr)
                    if w in b)
        result.setdefault(key, set()).add(w)
    return frozenset(frozenset(b) for b in result.values())


# --- action-path extensive forms --------------------------------------------

def agent_choice_domain(data, agent, prefix, t):
    """
    Scenarios in which the agent has a real decision at the given time
    after the given strict prefix: two continuations must differ in the
    agent's action component.
    """
    idx = data.agents.index(agent)
    k = data.times.index(t)
    return frozenset(w for w in data.scenarios if len(
        {f[k][idx] for (_, f) in data.node(w, prefix)}) >= 2)


def _in_ct(data, c, t):
    """Membership in the time-t choice family: nonempty, a real
    alternative everywhere, and all-or-nothing on undecided scenarios."""
    if not c:
        return False
    k = data.times.index(t)
    for (w, f) in c:
        if data.node(w, f[:k]) <= c:
            return False
    for prefix in {f[:k] for (_, f) in c}:
        domain = _ap_domain_of_prefix(data, prefix)
        hit = {w for w in domain if data.node(w, prefix) & c}
        if hit and hit != domain:
            return False
    return True


def _ap_choice(data, blocks, t, agent, g):
    """The set c(A_{<t}, i, g) for a block of prefixes and a partial map g."""
    k = data.times.index(t)
    idx = data.agents.index(agent)
    return frozenset(
        (w, f) for w in g for prefix in blocks
        for (_, f) in data.node(w, prefix) if f[k][idx] == g[w])


def _valid_actions(data, idx, w, block, k):
    """The agent's actions that a choice at the block can take on w: each
    realized in w at every prefix of the block, where the agent has at
    least two actions."""
    realized = [{f[k][idx] for (_, f) in data.node(w, p)} for p in block]
    if any(len(actions) < 2 for actions in realized):
        return set()
    return set.intersection(*realized)


def check_history_structures(data, info, hist):
    """The blocks must partition the decidable prefixes per agent and
    time, and blockmates must reveal identical exogenous information;
    the information must name each prefix of a block."""
    for i in data.agents:
        for t in data.times:
            decidable = {p for p in data.prefixes(t)
                         if agent_choice_domain(data, i, p, t)}
            blocks = [frozenset(b) for b in hist.get(i, {}).get(t, ())]
            union = frozenset().union(*blocks) if blocks else frozenset()
            if i not in hist or union != decidable or \
                    sum(len(b) for b in blocks) != len(union):
                raise APSEFAxiomViolation("history", (i, t))
            for block in blocks:
                missing = {(t, p) for p in block} - set(info.get(i, ()))
                if missing:
                    raise InputError(f"no exogenous information of agent {i!r}"
                                     f" at {min(missing, key=repr)!r}")
                keys = {frozenset(info[i][(t, p)]) for p in block}
                if len(keys) > 1:
                    raise APSEFAxiomViolation("history-info", (i, t, block))


def _check_ap_sef_axioms(data, info, hist):
    cap = budget(AP_PROFILES_CAP)
    check_history_structures(data, info, hist)

    # joint realizability of simultaneous action profiles
    count = 0
    for t in data.times:
        k = data.times.index(t)
        for w in data.scenarios:
            for prefix in data.prefixes(t):
                node = data.node(w, prefix)
                if not node:
                    continue
                per_agent = [sorted({f[k][j] for (_, f) in node})
                             for j in range(len(data.agents))]
                for combo in itertools.product(*per_agent):
                    count += 1
                    if count > cap:
                        raise BudgetExceeded("joint profile search too large")
                    if not any(f[k] == combo for (_, f) in node):
                        raise APSEFAxiomViolation(0, (t, w, prefix, combo))

    # single-action reference choices must be admissible
    for i in data.agents:
        for t in data.times:
            for block in hist[i].get(t, ()):
                block = frozenset(block)
                for prefix in block:
                    domain = agent_choice_domain(data, i, prefix, t)
                    for action in data.actions[i]:
                        c = _ap_choice(data, {prefix}, t, i,
                                       {w: action for w in domain})
                        if c and not _in_ct(data, c, t):
                            raise APSEFAxiomViolation(1, (i, t, prefix, action))

    # every realized action must extend to an admissible adapted choice:
    # one valid action per scenario of the domain (``_valid_actions``), the
    # realized one at w, where the domain holds every scenario that is
    # nontrivial at a prefix of the block
    for i in data.agents:
        idx = data.agents.index(i)
        for (w, f) in data.paths:
            for t in data.times:
                k = data.times.index(t)
                prefix = f[:k]
                domain = agent_choice_domain(data, i, prefix, t)
                if w not in domain:
                    continue
                block = next(frozenset(b) for b in hist[i][t] if prefix in b)
                valid = {v: _valid_actions(data, idx, v, block, k)
                         for v in domain}
                if not (all(_ap_domain_of_prefix(data, p) <= domain
                            for p in block)
                        and f[k][idx] in valid[w] and all(valid.values())):
                    raise APSEFAxiomViolation(2, (i, w, t))

    # separation (axiom 3) needs no check: where two paths of a scenario
    # first disagree, some agent's actions differ after their common
    # prefix, so it has two actions there and the scenario is in its domain


def build_action_path_sef(data, info, hist):
    """
    The extensive form induced by action-path data, exogenous information
    keyed by (time, prefix), and history structures.  Returns the form,
    the timing map, and the index (time, prefix) -> random move.
    """
    _check_ap_sef_axioms(data, info, hist)
    sdf, timing = build_action_path_sdf(data, require_maximal=False)

    index = {}
    for m, t in timing.items():
        w = next(iter(m.domain))
        (_, f) = next(iter(m(w)))
        index[(t, f[:data.times.index(t)])] = m

    cap = budget(AP_PROFILES_CAP)
    count = 0
    agents = tuple(data.agents)
    agent_moves = {}
    move_info = {}
    refchoices = {}
    choices = {}
    for i in agents:
        mine = set()
        my_info = {}
        my_refs = {}
        for (t, prefix), m in index.items():
            domain = agent_choice_domain(data, i, prefix, t)
            if not domain:
                continue
            mine.add(m)
            my_info[m] = frozenset(frozenset(b) for b in info[i][(t, prefix)])
            # reference choices range over the whole history block, so
            # blockmate moves end up with identical reference menus
            block = next(frozenset(b) for b in hist[i][t] if prefix in b)
            refs = []
            for subset in powerset(sorted(data.actions[i])):
                count += 1
                if count > cap:
                    raise BudgetExceeded(
                        f"more than {cap} reference-choice action sets")
                if not subset:
                    continue
                c = frozenset(
                    (w, f) for (w, f) in data.paths
                    if f[:data.times.index(t)] in block
                    and f[data.times.index(t)][data.agents.index(i)] in subset)
                if not _in_ct(data, c, t):
                    continue
                if any(not (m(w) & c) for w in m.domain):
                    continue
                refs.append(c)
            my_refs[m] = tuple(refs)
        agent_moves[i] = frozenset(mine)
        move_info[i] = my_info
        refchoices[i] = my_refs

        # per history block, the adapted unions over the scenarios of its
        # moves of one single-action slice each, offered at every move of
        # the block there
        table = SliceTable(sdf, mine, my_info, my_refs)
        mine_choices = set()
        for t in data.times:
            for block in hist[i].get(t, ()):
                block = frozenset(block)
                visit = sorted({w for p in block
                                for w in index[(t, p)].domain}, key=repr)
                options = []
                for w in visit:
                    nodes = frozenset(data.node(w, p) for p in block)
                    offered = [table.offered_option(
                        w, _ap_choice(data, block, t, i, {w: a}), nodes)
                        for a in sorted(data.actions[i])]
                    options.append([option for option in offered if option])
                mine_choices.update(c for c in adapted_unions(
                    table, visit, options) if c)
        choices[i] = frozenset(mine_choices)

    sef = StochasticExtensiveForm(sdf, agents, agent_moves, move_info,
                                  refchoices, choices)
    return sef, timing, index


def classify_endogenous(data, hist, i):
    """Perfection flags of a history structure, by the refinement and
    disjointness criteria on truncated paths."""
    recall = True
    for t in data.times:
        kt = data.times.index(t)
        idx = data.agents.index(i)
        for u in data.times:
            if not t < u:
                continue
            for block_u in hist[i].get(u, ()):
                cut = {f[:kt] for f in block_u}
                for block_t in hist[i].get(t, ()):
                    block_t = frozenset(block_t)
                    if not cut & block_t:
                        continue
                    if not cut <= block_t:
                        recall = False
                    actions = {f[kt][idx] for f in block_u}
                    if len(actions) > 1:
                        recall = False
    perfect = True
    for t in data.times:
        for block in hist[i].get(t, ()):
            if len(frozenset(block)) != 1:
                perfect = False
            for j in data.agents:
                if j == i:
                    continue
                for other in hist[j].get(t, ()):
                    if frozenset(block) & frozenset(other):
                        perfect = False
    return {"perfect_endogenous_recall": recall,
            "perfect_endogenous_info": perfect}
