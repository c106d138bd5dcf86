"""
Forests and extensive forms built from explicit action-path data: outcomes
are (scenario, path) pairs over a finite time grid, the forest's nodes
the outcomes that share a scenario and a strict prefix, and history
structures place agents on that forest with the choices the action-path
axioms admit.
"""

import itertools
from dataclasses import dataclass

from ._util import budget, powerset
from .errors import (APAxiomViolation, APSEFAxiomViolation, BudgetExceeded,
                     InputError, StructureError)
from .forest import DecisionForest
from .sdf import (RandomMove, StochasticDecisionForest, check_adapted,
                  check_recall, xgeq)
from .sef import StochasticExtensiveForm

# default cap of the joint action profiles of action-path forms;
# EXFORM_BUDGET overrides it
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
        if not self.times or self.times[0] != 0 or list(self.times) != sorted(self.times):
            raise InputError("times must be sorted with minimum 0")
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
        return {self.prefix(f, t) for (_, f) in self.paths}

    def node(self, w, prefix):
        """The outcomes of scenario w whose paths start with the prefix."""
        k = len(prefix)
        return frozenset((v, g) for (v, g) in self.paths
                         if v == w and g[:k] == prefix)


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
            prefixes = data.prefixes(t)
            for pf in prefixes:
                for pg in prefixes:
                    if pf == pg:
                        continue
                    df = _ap_domain_of_prefix(data, pf, t)
                    dg = _ap_domain_of_prefix(data, pg, t)
                    if not df or not dg or df & dg:
                        continue
                    ok = False
                    for u in data.times:
                        if u > t:
                            continue
                        ku = data.times.index(u)
                        if pf[:ku] != pg[:ku] and \
                           _ap_domain_of_prefix(data, pf[:ku], u) & \
                           _ap_domain_of_prefix(data, pg[:ku], u):
                            ok = True
                            break
                    if not ok:
                        raise APAxiomViolation(3, (t, pf, pg))


def _ap_domain_of_prefix(data, prefix, t):
    domain = set()
    for (w, f) in data.paths:
        if data.prefix(f, t) == prefix and len(data.node(w, prefix)) >= 2:
            domain.add(w)
    return domain


def build_action_path_sdf(data, require_maximal=True):
    """
    Build the induced stochastic decision forest from action-path data,
    verifying its axioms first.  Returns the SDF and the timing map from
    random moves to grid times.
    """
    _check_ap_axioms(data, require_maximal)

    nodes = set()
    for (w, f) in data.paths:
        nodes.add(frozenset({(w, f)}))
        for t in data.times:
            nodes.add(data.node(w, data.prefix(f, t)))
    outcomes = frozenset(data.paths)
    forest = DecisionForest(outcomes, nodes)
    projection = {x: next(iter(x))[0] for x in nodes}

    timing = {}
    moves = forest.moves()
    for t in data.times:
        seen = {}
        for (w, f) in data.paths:
            prefix = data.prefix(f, t)
            node = data.node(w, prefix)
            if node not in moves:
                continue
            seen.setdefault(prefix, {})[w] = node
        for assignment in seen.values():
            timing[RandomMove(assignment)] = t
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
    domain = set()
    for w in data.scenarios:
        seen = {f[k][idx] for (v, f) in data.paths
                if v == w and f[:k] == prefix}
        if len(seen) >= 2:
            domain.add(w)
    return frozenset(domain)


def _in_ct(data, c, t):
    """Membership in the time-t choice family: nonempty, a real
    alternative everywhere, and all-or-nothing on undecided scenarios."""
    if not c:
        return False
    k = data.times.index(t)
    for (w, f) in c:
        if data.node(w, f[:k]) <= c:
            return False
    prefixes = {f[:k] for (_, f) in c}
    for prefix in prefixes:
        hit = set()
        miss = set()
        for (w, f) in data.paths:
            if f[:k] != prefix:
                continue
            node = data.node(w, prefix)
            if len(node) < 2:
                continue
            (hit if node & c else miss).add(w)
        if hit and miss:
            return False
    return True


def _ap_choice(data, blocks, t, agent, g):
    """The set c(A_{<t}, i, g) for a block of prefixes and a partial map g."""
    k = data.times.index(t)
    idx = data.agents.index(agent)
    return frozenset(
        (w, f) for (w, f) in data.paths
        if f[:k] in blocks and w in g and f[k][idx] == g[w])


def _rich_enough(data, c, blocks, t, domain):
    """Every (scenario, prefix) pair from the data must be realized in c."""
    k = data.times.index(t)
    for w in domain:
        for prefix in blocks:
            if not any(v == w and f[:k] == prefix for (v, f) in c):
                return False
    return True


def check_history_structures(data, info, hist):
    """The blocks must partition the decidable prefixes per agent and
    time, and blockmates must reveal identical exogenous information."""
    for i in data.agents:
        for t in data.times:
            decidable = {p for p in data.prefixes(t)
                         if agent_choice_domain(data, i, p, t)}
            blocks = [frozenset(b) for b in hist[i].get(t, ())]
            union = frozenset().union(*blocks) if blocks else frozenset()
            if union != decidable or \
                    sum(len(b) for b in blocks) != len(union):
                raise APSEFAxiomViolation("history", (i, t))
            for block in blocks:
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

    # every realized action must extend to an admissible adapted choice
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
                found = False
                for g_vals in itertools.product(data.actions[i],
                                                repeat=len(domain)):
                    g = dict(zip(sorted(domain, key=repr), g_vals))
                    if g[w] != f[k][idx]:
                        continue
                    c = _ap_choice(data, block, t, i, g)
                    if _in_ct(data, c, t) and \
                            _rich_enough(data, c, block, t, domain):
                        found = True
                        break
                if not found:
                    raise APSEFAxiomViolation(2, (i, w, t))

    # separation: a first within-window disagreement decidable by an agent
    for (w, f) in data.paths:
        for (v, f2) in data.paths:
            if v != w or f == f2:
                continue
            for k0, t0 in enumerate(data.times):
                if f[k0] == f2[k0]:
                    continue
                ok = False
                for k in range(k0 + 1):
                    t = data.times[k]
                    for i in data.agents:
                        idx = data.agents.index(i)
                        if f[k][idx] == f2[k][idx]:
                            continue
                        if w in agent_choice_domain(data, i, f[:k], t) and \
                                w in agent_choice_domain(data, i, f2[:k], t):
                            ok = True
                if not ok:
                    raise APSEFAxiomViolation(3, (w, f, f2, t0))


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

        mine_choices = set()
        for t in data.times:
            for block in hist[i].get(t, ()):
                block = frozenset(block)
                options = sorted(data.actions[i]) + [None]
                for combo in itertools.product(options,
                                               repeat=len(sdf.scenarios)):
                    g = {w: a for w, a in zip(sdf.scenarios, combo)
                         if a is not None}
                    if not g:
                        continue
                    c = _ap_choice(data, block, t, i, g)
                    if not _in_ct(data, c, t):
                        continue
                    if not _rich_enough(data, c, block, t, g):
                        continue
                    if not check_adapted(sdf, c, my_info, my_refs, mine):
                        continue
                    mine_choices.add(c)
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
