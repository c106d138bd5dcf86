"""Shared generators for property tests, and a run under several hash
seeds."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

from exform.actionpath import ActionPathData
from exform.adapted import SliceTable, _fold, slice_table
from exform.forest import DecisionForest
from exform.order import Poset
from exform.sef import StochasticExtensiveForm, _menu_index

LABELS = "abcdefghijkl"
TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def stdout_across_hash_seeds(args, returncode=0):
    """Run ``python *args`` under PYTHONHASHSEED 1, 2 and 3 with the
    package and the tests on the path; each run must end with the given
    exit code and all must print one stdout, which is returned."""
    outputs = set()
    for seed in ("1", "2", "3"):
        result = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True,
            env={**os.environ, "PYTHONHASHSEED": seed,
                 "PYTHONPATH": os.pathsep.join([
                     str(SRC), str(TESTS), os.environ.get("PYTHONPATH", "")])})
        assert result.returncode == returncode, result.stderr
        outputs.add(result.stdout)
    assert len(outputs) == 1, outputs
    return outputs.pop()


def poset_from_dag(n, edges):
    """Poset on n labels from an acyclic edge set (edges go label-index up)."""
    elements = list(LABELS[:n])
    reach = {x: {x} for x in elements}
    # edges only point from lower to higher index, so one backward sweep closes them
    for i in reversed(range(n)):
        for (a, b) in edges:
            if a == elements[i]:
                reach[a] |= reach[b]
    leq = [(a, b) for a in elements for b in reach[a]]
    return Poset(elements, leq)


@st.composite
def posets(draw, max_size=6):
    n = draw(st.integers(min_value=1, max_value=max_size))
    elements = list(LABELS[:n])
    candidates = [(elements[i], elements[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(candidates) if candidates else st.nothing()))
    return poset_from_dag(n, edges)


@st.composite
def forest_posets(draw, max_size=8):
    """Random rooted forests: each non-root gets one parent of lower index."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    elements = list(LABELS[:n])
    parents = {}
    for i in range(1, n):
        choice = draw(st.integers(min_value=-1, max_value=i - 1))
        if choice >= 0:
            parents[elements[i]] = elements[choice]
    leq = []
    for x in elements:
        y = x
        chain = [y]
        while y in parents:
            y = parents[y]
            chain.append(y)
        leq.extend((x, z) for z in chain)
    return Poset(elements, leq)


@st.composite
def forests(draw, max_outcomes=8):
    n = draw(st.integers(min_value=1, max_value=max_outcomes))
    outcomes = [f"w{i}" for i in range(n)]
    nodes = []

    def grow(block):
        nodes.append(frozenset(block))
        if len(block) == 1:
            return
        k = draw(st.integers(min_value=2, max_value=len(block)))
        labels = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                               min_size=len(block), max_size=len(block)))
        blocks = {}
        for w, g in zip(block, labels):
            blocks.setdefault(g % k, []).append(w)
        if len(blocks) == 1:  # forced split so children are proper subsets
            blocks = {i: [w] for i, w in enumerate(block)}
        for sub in blocks.values():
            grow(sub)

    parts = draw(st.integers(min_value=1, max_value=n))
    top = {}
    for i, w in enumerate(outcomes):
        top.setdefault(i % parts, []).append(w)
    for block in top.values():
        grow(block)
    return DecisionForest(outcomes, nodes)


def _drawn_partition(draw, domain):
    """The trivial, the discrete or a random partition of the scenarios."""
    members = sorted(domain)
    kind = draw(st.sampled_from(("trivial", "discrete", "random")))
    if kind == "trivial":
        labels = [0] * len(members)
    elif kind == "discrete":
        labels = range(len(members))
    else:
        labels = draw(st.lists(st.integers(0, 2), min_size=len(members),
                               max_size=len(members)))
    blocks = {}
    for label, w in zip(labels, members):
        blocks.setdefault(label, set()).add(w)
    return frozenset(frozenset(b) for b in blocks.values())


@st.composite
def action_path_inputs(draw):
    """
    Small action-path inputs (data, info, hist): 1-2 agents with 2-3
    actions each, 1-2 times and 1-5 scenarios.  At each (scenario, prefix)
    every agent realizes a drawn nonempty set of its actions and the paths
    go on with their product, so the drawn subset of the paths realizes
    every joint profile (axiom 0); the action sets are drawn once per
    (prefix, agent) for all scenarios or once per scenario.  An agent's
    decidable prefixes at a time fall into singleton blocks or a random
    partition into at most two blocks, and each block reveals trivial,
    discrete or random information on the scenarios where its prefixes
    lead to a move.
    """
    agents = ("a", "b")[:draw(st.integers(1, 2))]
    actions = {i: tuple("123"[:draw(st.integers(2, 3))]) for i in agents}
    times = tuple(range(draw(st.integers(1, 2))))
    scenarios = tuple(f"w{k}" for k in range(draw(st.integers(1, 5))))
    shared = draw(st.booleans())
    menus, paths = {}, set()

    def grow(w, prefix):
        if len(prefix) == len(times):
            paths.add((w, prefix))
            return
        for i in agents:
            key = (None if shared else w, prefix, i)
            if key not in menus:
                menus[key] = sorted(draw(st.sets(st.sampled_from(actions[i]),
                                                 min_size=1)))
        for profile in itertools.product(*[
                menus[None if shared else w, prefix, i] for i in agents]):
            grow(w, prefix + (profile,))

    for w in scenarios:
        grow(w, ())
    data = ActionPathData(agents, actions, times, scenarios, frozenset(paths))
    hist, info = {i: {} for i in agents}, {i: {} for i in agents}
    for idx, i in enumerate(agents):
        for k, t in enumerate(times):
            domains = {}   # decidable prefix -> scenarios where it is a move
            for p in sorted({f[:k] for _, f in paths}):
                at = {w: [f for v, f in paths if v == w and f[:k] == p]
                      for w in scenarios}
                if any(len({f[k][idx] for f in fs}) >= 2 for fs in at.values()):
                    domains[p] = {w for w, fs in at.items() if len(fs) >= 2}
            labels = range(len(domains))
            if draw(st.booleans()):
                labels = draw(st.lists(st.integers(0, 1),
                                       min_size=len(domains),
                                       max_size=len(domains)))
            blocks = {}
            for label, p in zip(labels, domains):
                blocks.setdefault(label, set()).add(p)
            hist[i][t] = list(blocks.values())
            for block in hist[i][t]:
                partition = _drawn_partition(draw, set().union(
                    *[domains[p] for p in block]))
                info[i].update(((t, p), partition) for p in block)
    return data, info, hist


def random_poset(rng, n):
    """Plain-random poset for seeded bulk sweeps outside hypothesis."""
    elements = list(LABELS[:n])
    edges = [(elements[i], elements[j])
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    return poset_from_dag(n, edges)


def make_rng(seed):
    return random.Random(seed)


def _random_partition(rng, block):
    parts = rng.randint(2, min(3, len(block)))
    pool = list(block)
    rng.shuffle(pool)
    cuts = sorted(rng.sample(range(1, len(pool)), parts - 1))
    return [pool[i:j] for i, j in zip([0] + cuts, cuts + [len(pool)])]


def random_strict_sef(rng, max_outcomes=12, max_scenarios=3):
    """
    A random single-agent perfect-information extensive form: one
    independent decision tree per scenario, one singleton-domain random
    move per internal node, and one choice per child node.
    """
    from exform.forest import DecisionForest
    from exform.sdf import RandomMove, StochasticDecisionForest
    from exform.sef import StochasticExtensiveForm

    n_scen = rng.randint(1, max_scenarios)
    sizes = []
    for k in range(n_scen):
        room = max_outcomes - sum(sizes) - (n_scen - k - 1)
        sizes.append(rng.randint(1, min(6, room)))
    if all(size == 1 for size in sizes):
        sizes[0] = 2

    outcomes = []
    nodes = []
    moves = []
    info = {}
    refchoices = {}
    choices = set()
    for k, size in enumerate(sizes):
        w = f"w{k}"
        labels = [f"{w}:{j}" for j in range(size)]
        outcomes.extend(labels)
        stack = [labels]
        while stack:
            block = stack.pop()
            node = frozenset(block)
            nodes.append(node)
            if len(block) == 1:
                continue
            move = RandomMove({w: node})
            moves.append(move)
            info[move] = frozenset({frozenset({w})})
            kids = [frozenset(part) for part in _random_partition(rng, block)]
            refchoices[move] = kids
            choices.update(kids)
            stack.extend(map(sorted, kids))

    forest = DecisionForest(outcomes, nodes)
    projection = {x: next(iter(x)).split(":")[0] for x in forest.nodes}
    scenarios = tuple(f"w{k}" for k in range(n_scen))
    sdf = StochasticDecisionForest(forest, scenarios, projection, moves)
    agent = "i"
    return StochasticExtensiveForm(
        sdf, (agent,), {agent: frozenset(moves)}, {agent: info},
        {agent: refchoices}, {agent: frozenset(choices)})


def comb_parts(n):
    """
    The pieces of a valid single-agent perfect-information form whose one
    scenario tree is a comb on n >= 2 outcomes: each move splits off its
    first outcome, so the deepest decision path passes every move.
    Returns (sdf, agents, agent_moves, info, refchoices, choices).
    """
    from exform.forest import DecisionForest
    from exform.sdf import RandomMove, StochasticDecisionForest

    outcomes = [f"w:{j}" for j in range(n)]
    nodes = [frozenset({w}) for w in outcomes]
    moves, info, refchoices = [], {}, {}
    for j in range(n - 1):
        node = frozenset(outcomes[j:])
        nodes.append(node)
        move = RandomMove({"w": node})
        moves.append(move)
        info[move] = frozenset({frozenset({"w"})})
        refchoices[move] = [frozenset({outcomes[j]}), frozenset(outcomes[j + 1:])]
    forest = DecisionForest(outcomes, nodes)
    sdf = StochasticDecisionForest(forest, ("w",), {x: "w" for x in nodes},
                                   moves)
    choices = frozenset(c for cs in refchoices.values() for c in cs)
    return (sdf, ("i",), {"i": frozenset(moves)}, {"i": info},
            {"i": refchoices}, {"i": choices})


def comb_sef(n):
    from exform.sef import StochasticExtensiveForm
    return StochasticExtensiveForm(*comb_parts(n))


def constant_choice_parts(n):
    """
    The pieces of a valid single-agent form on n >= 2 scenarios, each a
    tree with outcomes a and b under one root, and one random move over
    all roots under trivial information: only the two constant choices are
    adapted.  Axiom 2 counts 2n profiles and the Axiom 6 search 4n nodes
    (4n - 2 slices tried, 2 unions made), so a budget between them stops
    validation at Axiom 6 with BudgetExceeded.
    Returns (sdf, agents, agent_moves, info, refchoices, choices).
    """
    from exform.forest import DecisionForest
    from exform.sdf import RandomMove, StochasticDecisionForest

    scenarios = tuple(f"s{k}" for k in range(n))
    roots = {w: frozenset({f"{w}:a", f"{w}:b"}) for w in scenarios}
    nodes = [x for w in scenarios
             for x in (roots[w], frozenset({f"{w}:a"}), frozenset({f"{w}:b"}))]
    forest = DecisionForest({o for x in roots.values() for o in x}, nodes)
    projection = {x: next(iter(x)).split(":")[0] for x in nodes}
    move = RandomMove(roots)
    sdf = StochasticDecisionForest(forest, scenarios, projection, [move])
    constant = [frozenset(f"{w}:{a}" for w in scenarios) for a in "ab"]
    return (sdf, ("i",), {"i": frozenset({move})},
            {"i": {move: frozenset({frozenset(scenarios)})}},
            {"i": {move: constant}}, {"i": frozenset(constant)})


def cut_oracle(table, c, join=False):
    """
    ``SliceTable.cut`` as it was before it cut a batch per information
    component, one choice at a time over every tree, kept verbatim apart
    from its name and its reads of the table: record the choice's slices,
    predecessor set and memberships; with ``join``, return whether it is
    adapted.  Without ``join`` it reads no partition.
    """
    whole = table.mask(c)
    table.choice_of[whole] = c
    preds, entries = [], [False] * len(table.trees)
    for k, tree, root in zip(itertools.count(), table.trees, table.root_masks):
        s = whole & root
        record = tree.get(s) or table._record(k, s, c)
        if s:
            record.members.append(c)
            if record.preds:
                preds.append(record.preds)
        if join:
            entries[k] = record.entry or table._entry(k, record)
    p = frozenset().union(*preds)
    table.preds[c] = table.shared.setdefault(p, p)
    return join and _fold(0, 0, entries) is not None


def unvalidated(parts):
    """
    A form assembled from (sdf, agents, agent_moves, info, refchoices,
    choices) without validation, on purpose: the parts stored as the
    constructor stores them, and the menu index read off slice tables
    that ``cut_oracle`` fills one choice at a time without join, so that
    no partition is read and a form with empty information maps indexes
    all the same.
    """
    form = object.__new__(StochasticExtensiveForm)
    form._store(*parts)
    tables = {}
    for i in form.agents:
        tables[i] = slice_table(form, i, ())
        for c in form.choices[i]:
            cut_oracle(tables[i], c)
    form._index = _menu_index(form, tables)
    return form


def offered_oracle(table):
    """
    ``SliceTable.offered`` as it was before the menu index grouped the
    choices by predecessor set, kept verbatim apart from its name and its
    table argument: each move's choices offered there, the members of the
    slices the move precedes.  Moves that precede the same slices share
    the set.
    """
    at, shared = {}, {}
    for x, records in table.offering.items():
        key = tuple(id(r) for r in records if r.members)
        if key:
            if key not in shared:
                shared[key] = frozenset(itertools.chain(*[
                    r.members for r in records]))
            at[x] = shared[key]
    return at


def meet_oracle(offered, i, m):
    """``sef._meet`` as it was before the menu index grouped the choices
    by predecessor set, kept verbatim apart from its name: the agent's
    choices offered at every value of the random move."""
    return frozenset.intersection(*[
        offered.get((i, m(w)), frozenset()) for w in m.domain])


def offered_index(form):
    """The menu index's old ``offered`` map, (agent, move) -> the choices
    offered there, read off a fresh table of each agent's choices as
    ``_menu_index`` read it off the tables of validation."""
    return {(i, x): cs for i in form.agents for x, cs in offered_oracle(
        SliceTable(form.sdf, {}, {}, {}, form.choices[i])).items()}


def predecessor_groups(table):
    """The table's cut choices grouped by predecessor set as Axiom 1
    grouped them before the menu index kept the grouping, kept verbatim:
    each distinct nonempty set -> its choices in the order they were
    cut."""
    groups = {}
    for c, p in table.preds.items():
        if p:
            groups.setdefault(p, []).append(c)
    return groups
