"""
Seeded inputs for the benchmark, built from exform's public names only.

Nothing here imports exform at module level: every builder takes ``X``,
the namespace of freshly imported exform modules that ``load_exform``
returns, so that set-up can import the package again on every repetition.
"""

import importlib
import json
import sys
import types
from fractions import Fraction

MODULES = ("forest", "sdf", "sef", "play", "equil", "order", "vtime",
           "tilt", "timing", "instances", "cli")


def load_exform():
    """Import exform from scratch and return its modules as one namespace."""
    for name in [n for n in sys.modules if n == "exform" or n.startswith("exform.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"exform.{name}") for name in MODULES})


def assign(X, sef, agent, picks):
    """The agent's strategy choosing, at each information set, the one pick
    that is available there."""
    sets, _ = X.sef.info_sets(sef, agent)
    assignment = {}
    for infoset in sets:
        menu = sef.available_at(agent, next(iter(infoset.random_moves)))
        match = [c for c in picks if c in menu]
        if len(match) != 1:
            raise ValueError(f"{len(match)} picks available at {infoset!r}")
        assignment[infoset] = match[0]
    return X.sef.Strategy(agent, assignment)


# --- coin matching -------------------------------------------------------------

def _coin_maps(X):
    """The first-mover maps and second-mover pick lists the checks name."""
    inst = X.instances
    scen = inst.MP_SCENARIOS
    const = {a: {w: a for w in scen} for a in "12"}

    def reaction(ones):
        # plays 1 exactly on the (z1, z2) blocks listed
        return {w: "1" if (w[4], w[5]) in ones else "2" for w in scen}

    def block_counts(k1, k2):
        # plays 1 on the first k1 (z1, z2) blocks of coin side 1 and the
        # first k2 of side 2
        blocks = sorted({(w[1], w[4], w[5]) for w in scen})
        chosen = set([b for b in blocks if b[0] == "1"][:k1])
        chosen |= set([b for b in blocks if b[0] == "2"][:k2])
        return {w: "1" if (w[1], w[4], w[5]) in chosen else "2" for w in scen}

    def merged(g):
        return [inst.mp_choice_second(".", g)]

    firsts = {
        "const1": const["1"],
        "const2": const["2"],
        "z0split": {w: "1" if w[3] == "0" else "2" for w in scen},
        "z0flip": {w: "2" if w[3] == "0" else "1" for w in scen},
    }
    picks = {
        "react": [inst.mp_choice_second("1", const["2"]),
                  inst.mp_choice_second("2", const["1"])],
        "same": [inst.mp_choice_second("1", const["1"]),
                 inst.mp_choice_second("2", const["1"])],
        "best": [inst.mp_choice_second(
            "1", {w: "2" if w[1] == "1" else "1" for w in scen}),
            inst.mp_choice_second("2", const["1"])],
        "balanced": merged(reaction({("0", "0"), ("1", "1")})),
        "lopsided": merged(reaction({("0", "0")})),
    }
    for k1, k2 in ((2, 2), (1, 0), (3, 4), (2, 1)):
        picks[f"blocks{k1}{k2}"] = merged(block_counts(k1, k2))
    return firsts, picks


def coin_profile(X, case, first, picks, p):
    """Build case ``case``'s form from scratch and the expected-utility layer
    of the named profile at coin bias ``p``."""
    inst, equil = X.instances, X.equil
    sef, _ = inst.mp_sef(case)
    firsts, pick_lists = _coin_maps(X)
    prior = {w: (p if w[1] == "1" else 1 - p) / 8 for w in inst.MP_SCENARIOS}
    profile = X.play.StrategyProfile({
        "i": assign(X, sef, "i", [inst.mp_choice_first(firsts[first])]),
        "j": assign(X, sef, "j", pick_lists[picks])})
    for_j = {f"{w}:{a}{b}": Fraction((-1) ** (int(w[1]) + int(a) + int(b)))
             for w in inst.MP_SCENARIOS for a in "12" for b in "12"}
    for_i = {k: -v for k, v in for_j.items()}
    eu = equil.EUStructure(equil.bayes_beliefs(sef, prior, profile),
                           equil.uniform_tastes(sef, {"i": for_i, "j": for_j}))
    return sef, eu, profile


def reached_payoffs(X, sef, eu, profile):
    """Per agent, the conditional payoffs at every information set that
    play reaches, as a sorted tuple."""
    play, equil = X.play, X.equil
    tables = play.profile_tables(sef, profile)
    played = {w: play.outcome_from(sef, tables, sef.sdf.root_of(w))
              for w in sef.sdf.scenarios}
    values = {}
    for unit in equil.units(sef):
        agent, block = unit
        if any(played[w] in m(w) for m in block.random_moves for w in m.domain):
            values.setdefault(agent, set()).update(
                equil.expected_payoff(sef, eu, profile, *unit).values())
    return tuple(sorted((str(a), tuple(sorted(v))) for a, v in values.items()))


# --- exit race -----------------------------------------------------------------

def exit_race_form(X, atoms):
    """The exit/continue form over ``atoms`` signal atoms per agent, with
    its uniform prior and the shared taste."""
    sef, _ = X.instances.amd_sef(atoms)
    scenarios = sorted(sef.sdf.scenarios)
    prior = {w: Fraction(1, 2 * atoms * atoms) for w in scenarios}
    taste = {}
    for w in scenarios:
        taste.update({f"{w}:D": Fraction(0), f"{w}:H": Fraction(4),
                      f"{w}:M": Fraction(1)})
    return sef, prior, taste


def exit_race_profile(X, sef, atoms, p):
    """Both agents exit exactly on the signal atoms of total mass 1 - p."""
    inst = X.instances
    exits = {str(k) for k in range(int((1 - p) * atoms))}
    scenarios = sorted(sef.sdf.scenarios)
    strategies = {}
    for agent in (1, 2):
        event = frozenset(w for w in scenarios
                          if inst.amd_signal(w, agent) in exits)
        choice = inst.amd_event_choice(atoms, agent, event)
        strategies[agent] = assign(X, sef, agent, [choice])
    return X.play.StrategyProfile(strategies)


# --- random strict forms and posets --------------------------------------------

LABELS = "abcdefghijkl"


def _split(rng, block):
    """Cut a shuffled block into two or three nonempty consecutive parts."""
    pool = list(block)
    rng.shuffle(pool)
    parts = rng.randint(2, min(3, len(pool)))
    cuts = sorted(rng.sample(range(1, len(pool)), parts - 1))
    return [pool[a:b] for a, b in zip([0, *cuts], [*cuts, len(pool)])]


def strict_form(X, shape, names, max_outcomes=12, max_scenarios=3):
    """
    A random single-agent form with perfect information: per scenario an
    independent decision tree whose internal nodes each carry one
    singleton-domain random move, with one choice per child node.  The
    ``shape`` generator draws the trees, ``names`` the scenario and
    outcome labels.
    """
    count = shape.randint(1, max_scenarios)
    sizes = []
    for k in range(count):
        room = max_outcomes - sum(sizes) - (count - k - 1)
        sizes.append(shape.randint(1, min(6, room)))
    if max(sizes) == 1:
        sizes[0] = 2
    scenarios = tuple(f"w{k}" for k in names.sample(range(count), count))
    outcomes, nodes, moves = [], [], []
    info, refchoices, choices = {}, {}, set()
    for w, size in zip(scenarios, sizes):
        label = [f"{w}:{j}" for j in names.sample(range(size), size)]
        outcomes.extend(label)
        todo = [list(range(size))]
        while todo:
            block = todo.pop()
            node = frozenset(label[j] for j in block)
            nodes.append(node)
            if len(block) == 1:
                continue
            move = X.sdf.RandomMove({w: node})
            moves.append(move)
            info[move] = frozenset({frozenset({w})})
            parts = _split(shape, block)
            kids = [frozenset(label[j] for j in part) for part in parts]
            refchoices[move] = kids
            choices.update(kids)
            todo.extend(parts)
    forest = X.forest.DecisionForest(outcomes, nodes)
    projection = {x: next(iter(x)).split(":")[0] for x in forest.nodes}
    sdf = X.sdf.StochasticDecisionForest(forest, scenarios, projection, moves)
    return X.sef.StochasticExtensiveForm(
        sdf, ("i",), {"i": frozenset(moves)}, {"i": info}, {"i": refchoices},
        {"i": frozenset(choices)})


def random_poset(shape, names, max_size=6):
    """A poset document for ``exform dm``: random upward edges between up
    to ``max_size`` elements, drawn by ``shape``, with labels drawn by
    ``names``; the command closes the edges transitively."""
    n = shape.randint(1, max_size)
    elements = names.sample(LABELS[:n], n)
    edges = [[elements[a], elements[b]] for a in range(n)
             for b in range(a + 1, n) if shape.random() < 0.4]
    return {"elements": elements, "leq": edges}


def count_cuts(doc):
    """The size of the Dedekind-MacNeille completion, counted by brute
    force: the subsets A of the poset with lower(upper(A)) = A."""
    elements = doc["elements"]
    leq = {(x, x) for x in elements} | {tuple(e) for e in doc["leq"]}
    grown = True
    while grown:
        extra = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
        leq |= extra
        grown = bool(extra)
    everything = frozenset(elements)
    cuts = 0
    for mask in range(2 ** len(elements)):
        subset = {x for k, x in enumerate(elements) if mask >> k & 1}
        upper = {y for y in everything if all((x, y) in leq for x in subset)}
        lower = {z for z in everything if all((z, y) in leq for y in upper)}
        cuts += lower == subset
    return cuts


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
