"""
Bundled worked instances, and the registry of bundled verification
examples built on them.

Outcome labels are strings "scenario:actions", e.g. "o1:12" for the play
taking action 1 then action 2 in scenario o1.  Builders return plain
structures; nothing here is cached or mutated.
"""

import itertools
from fractions import Fraction

from ._util import powerset
from .errors import InputError, UnknownExample
from .forest import DecisionForest
from .sdf import RandomMove, StochasticDecisionForest
from .sef import Strategy, StochasticExtensiveForm, info_sets

SIMPLE_SCENARIOS = ("o1", "o2")


def _two_period_component(w):
    nodes = [frozenset(f"{w}:{a}{b}" for a in "12" for b in "12")]
    for a in "12":
        nodes.append(frozenset(f"{w}:{a}{b}" for b in "12"))
        for b in "12":
            nodes.append(frozenset({f"{w}:{a}{b}"}))
    return nodes


def simple_sdf():
    """
    Two scenarios, two binary stages: one random move per stage-one root
    and one per stage-two node reached, all defined on both scenarios.
    """
    nodes = []
    for w in SIMPLE_SCENARIOS:
        nodes.extend(_two_period_component(w))
    outcomes = [f"{w}:{a}{b}" for w in SIMPLE_SCENARIOS for a in "12" for b in "12"]
    forest = DecisionForest(outcomes, nodes)
    projection = {x: next(iter(x)).split(":")[0] for x in forest.nodes}
    root = {w: frozenset(f"{w}:{a}{b}" for a in "12" for b in "12")
            for w in SIMPLE_SCENARIOS}
    stage2 = {(w, a): frozenset(f"{w}:{a}{b}" for b in "12")
              for w in SIMPLE_SCENARIOS for a in "12"}
    x0 = RandomMove(root)
    x1 = RandomMove({w: stage2[(w, "1")] for w in SIMPLE_SCENARIOS})
    x2 = RandomMove({w: stage2[(w, "2")] for w in SIMPLE_SCENARIOS})
    sdf = StochasticDecisionForest(forest, SIMPLE_SCENARIOS, projection,
                                   [x0, x1, x2])
    return sdf, (x0, x1, x2)


def simple_split_sdf():
    """The same forest with every random move split per scenario."""
    base, moves = simple_sdf()
    split = [m.restricted({w}) for m in moves for w in m.domain]
    return StochasticDecisionForest(base.forest, base.scenarios,
                                    base.projection, split)


def simple_variant_sdf():
    """
    The variant in which scenario o1 ends immediately after first action 2:
    the stage-two random move on that side lives on scenario o2 only.
    """
    nodes = list(_two_period_component("o2"))
    nodes.append(frozenset({"o1:11", "o1:12", "o1:2"}))
    nodes.append(frozenset({"o1:11", "o1:12"}))
    for w in ("o1:11", "o1:12", "o1:2"):
        nodes.append(frozenset({w}))
    outcomes = [f"o2:{a}{b}" for a in "12" for b in "12"]
    outcomes += ["o1:11", "o1:12", "o1:2"]
    forest = DecisionForest(outcomes, nodes)
    projection = {x: next(iter(x)).split(":")[0] for x in forest.nodes}
    x0 = RandomMove({
        "o1": frozenset({"o1:11", "o1:12", "o1:2"}),
        "o2": frozenset(f"o2:{a}{b}" for a in "12" for b in "12"),
    })
    x1 = RandomMove({
        "o1": frozenset({"o1:11", "o1:12"}),
        "o2": frozenset({"o2:11", "o2:12"}),
    })
    x2 = RandomMove({"o2": frozenset({"o2:21", "o2:22"})})
    sdf = StochasticDecisionForest(forest, SIMPLE_SCENARIOS, projection,
                                   [x0, x1, x2])
    return sdf, (x0, x1, x2)


def simple_choice_first(f):
    """All plays whose first action matches f, a map scenario -> action."""
    return frozenset(f"{w}:{a}{b}" for w in SIMPLE_SCENARIOS for a in "12"
                     for b in "12" if a == f[w])


def simple_choice_second(k, g):
    """First action k, second action as prescribed by g per scenario."""
    return frozenset(f"{w}:{k}{b}" for w in SIMPLE_SCENARIOS
                     for b in "12" if b == g[w])


def simple_choice_second_any(g):
    """Second action g regardless of the first action."""
    return frozenset(f"{w}:{a}{b}" for w in SIMPLE_SCENARIOS for a in "12"
                     for b in "12" if b == g[w])


def scenario_maps(values=("1", "2")):
    """All maps from the two scenarios into the given action pair."""
    return [dict(zip(SIMPLE_SCENARIOS, combo))
            for combo in itertools.product(values, repeat=2)]


def simple_reference_choices(moves):
    """Constant first-stage choices at the root, constant second-stage
    choices at both stage-two moves."""
    x0, x1, x2 = moves
    firsts = [simple_choice_first({"o1": k, "o2": k}) for k in "12"]
    seconds = [simple_choice_second_any({"o1": m, "o2": m}) for m in "12"]
    return {x0: firsts, x1: seconds, x2: seconds}


def variant_choice_first(f):
    """First action per f in the variant; includes the short play o1:2."""
    chosen = set()
    for w in ("o2:11", "o2:12", "o2:21", "o2:22", "o1:11", "o1:12"):
        scenario, actions = w.split(":")
        if actions[0] == f[scenario]:
            chosen.add(w)
    if f["o1"] == "2":
        chosen.add("o1:2")
    return frozenset(chosen)


AMD_MENU = ("D", "H", "M")


def amd_sdf(assignments=None):
    """
    Two agents who each either keep their whole three-way menu or lose the
    immediate option D, depending on which of them the scenario singles
    out.  assignments maps each scenario to the agent (1 or 2) keeping the
    full menu; defaults to one scenario per agent.
    """
    if assignments is None:
        assignments = {"r1": 1, "r2": 2}
    scenarios = tuple(sorted(assignments))
    outcomes = [f"{w}:{m}" for w in scenarios for m in AMD_MENU]
    nodes = []
    for w in scenarios:
        nodes.append(frozenset(f"{w}:{m}" for m in AMD_MENU))
        nodes.append(frozenset({f"{w}:H", f"{w}:M"}))
        for m in AMD_MENU:
            nodes.append(frozenset({f"{w}:{m}"}))
    forest = DecisionForest(outcomes, nodes)
    projection = {x: next(iter(x)).split(":")[0] for x in forest.nodes}

    def menu(w, agent):
        if assignments[w] == agent:
            return frozenset(f"{w}:{m}" for m in AMD_MENU)
        return frozenset({f"{w}:H", f"{w}:M"})

    x1 = RandomMove({w: menu(w, 1) for w in scenarios})
    x2 = RandomMove({w: menu(w, 2) for w in scenarios})
    sdf = StochasticDecisionForest(forest, scenarios, projection, [x1, x2])
    return sdf, (x1, x2)


# --- extensive-form instances ------------------------------------------------

TRIVIAL = frozenset({frozenset(SIMPLE_SCENARIOS)})
DISCRETE = frozenset(frozenset({w}) for w in SIMPLE_SCENARIOS)

_SIMPLE_EIS = {
    "1": (TRIVIAL, TRIVIAL, TRIVIAL),
    "2a": (TRIVIAL, DISCRETE, DISCRETE),
    "2b": (TRIVIAL, DISCRETE, TRIVIAL),
    "2c": (TRIVIAL, TRIVIAL, DISCRETE),
    "3": (DISCRETE, DISCRETE, DISCRETE),
}

# one row per admissible pairing of exogenous information with first- and
# second-period choice families
SIMPLE_SEF_ROWS = {
    1: ("1", "const", "km"),
    2: ("1", "const", "dot-m"),
    3: ("2a", "const", "kg"),
    4: ("2a", "const", "dot-g"),
    5: ("2b", "const", "1g-2m"),
    6: ("2c", "const", "1m-2g"),
    7: ("3", "free", "kg"),
    8: ("3", "free", "dot-g"),
}


def _simple_first_choices(kind):
    if kind == "const":
        return [simple_choice_first({w: k for w in SIMPLE_SCENARIOS})
                for k in "12"]
    return [simple_choice_first(f) for f in scenario_maps()]


def _simple_second_choices(kind):
    if kind == "km":
        return [simple_choice_second(k, {w: m for w in SIMPLE_SCENARIOS})
                for k in "12" for m in "12"]
    if kind == "dot-m":
        return [simple_choice_second_any({w: m for w in SIMPLE_SCENARIOS})
                for m in "12"]
    if kind == "kg":
        return [simple_choice_second(k, g) for k in "12" for g in scenario_maps()]
    if kind == "dot-g":
        return [simple_choice_second_any(g) for g in scenario_maps()]
    if kind == "1g-2m":
        return [simple_choice_second("1", g) for g in scenario_maps()] + \
            [simple_choice_second("2", {w: m for w in SIMPLE_SCENARIOS})
             for m in "12"]
    if kind == "1m-2g":
        return [simple_choice_second("1", {w: m for w in SIMPLE_SCENARIOS})
                for m in "12"] + \
            [simple_choice_second("2", g) for g in scenario_maps()]
    raise ValueError(kind)


def simple_sef(row=1, agent="i"):
    """One of the eight single-agent extensive forms on the two-period
    instance, indexed per SIMPLE_SEF_ROWS."""
    eis_name, first, second = SIMPLE_SEF_ROWS[row]
    sdf, moves = simple_sdf()
    x0, x1, x2 = moves
    e0, e1, e2 = _SIMPLE_EIS[eis_name]
    info = {agent: {x0: e0, x1: e1, x2: e2}}
    refchoices = {agent: simple_reference_choices(moves)}
    choices = {agent: frozenset(
        _simple_first_choices(first) + _simple_second_choices(second))}
    return StochasticExtensiveForm(
        sdf, (agent,), {agent: frozenset(moves)}, info, refchoices, choices)


def variant_choice_second(k, g):
    if k == "1":
        return frozenset(f"{w}:1{g[w]}" for w in SIMPLE_SCENARIOS)
    return frozenset({f"o2:2{g['o2']}"})


VARIANT_SEF_ROWS = {
    1: ("1", "const", "km"),
    2: ("2", "const", "kg"),
    3: ("3", "free", "kg"),
}

_VARIANT_EIS = {
    "1": (TRIVIAL, TRIVIAL),
    "2": (TRIVIAL, DISCRETE),
    "3": (DISCRETE, DISCRETE),
}


def variant_sef(row=1, agent="i"):
    """One of the three extensive forms on the shortened-path variant."""
    eis_name, first, second = VARIANT_SEF_ROWS[row]
    sdf, moves = simple_variant_sdf()
    x0, x1, x2 = moves
    e0, e1 = _VARIANT_EIS[eis_name]
    point = frozenset({frozenset({"o2"})})
    info = {agent: {x0: e0, x1: e1, x2: point}}
    firsts = [variant_choice_first({w: k for w in SIMPLE_SCENARIOS})
              for k in "12"] if first == "const" else \
        [variant_choice_first(f) for f in scenario_maps()]
    if second == "km":
        seconds = [variant_choice_second(k, {w: m for w in SIMPLE_SCENARIOS})
                   for k in "12" for m in "12"]
    else:
        seconds = [variant_choice_second(k, g)
                   for k in "12" for g in scenario_maps()]
    seconds = sorted(set(seconds), key=sorted)
    refchoices = {agent: {
        x0: [variant_choice_first({w: k for w in SIMPLE_SCENARIOS})
             for k in "12"],
        x1: [variant_choice_second("1", {w: m for w in SIMPLE_SCENARIOS})
             for m in "12"],
        x2: [variant_choice_second("2", {w: m for w in SIMPLE_SCENARIOS})
             for m in "12"],
    }}
    choices = {agent: frozenset(firsts + seconds)}
    return StochasticExtensiveForm(
        sdf, (agent,), {agent: frozenset(moves)}, info, refchoices, choices)


def amd_scenarios(atoms=1):
    """Scenario labels (r, a, b): the singled-out agent plus one private
    signal atom per agent."""
    return [f"r{r}a{a}b{b}" for r in (1, 2)
            for a in range(atoms) for b in range(atoms)]


def amd_signal(w, agent):
    return w.split("a")[1].split("b")[agent - 1]


def amd_exit_region(assignments, agent):
    """Outcomes where stopping now is the agent's own exit."""
    region = set()
    for w, r in assignments.items():
        region.add(f"{w}:D" if r == agent else f"{w}:H")
    return frozenset(region)


def amd_continue_region(assignments, agent):
    region = set()
    for w, r in assignments.items():
        if r == agent:
            region.update({f"{w}:H", f"{w}:M"})
        else:
            region.add(f"{w}:M")
    return frozenset(region)


def amd_event_choice(atoms, agent, event):
    """The agent's choice exiting exactly on the given set of scenarios:
    the exit region on the event and the continue region off it."""
    on, off = {}, {}
    for w in amd_scenarios(atoms):
        (on if w in event else off)[w] = int(w[1])
    return amd_exit_region(on, agent) | amd_continue_region(off, agent)


def amd_sef(atoms=1):
    """
    The two-agent one-shot exit/continue form: each agent owns one random
    move, sees only a private signal, and chooses the exit region on any
    signal-measurable event.
    """
    scenarios = amd_scenarios(atoms)
    assignments = {w: int(w[1]) for w in scenarios}
    sdf, (x1, x2) = amd_sdf(assignments)
    agents = (1, 2)
    agent_moves = {1: frozenset({x1}), 2: frozenset({x2})}
    info = {}
    refchoices = {}
    choices = {}
    for agent, m in ((1, x1), (2, x2)):
        blocks = {}
        for w in scenarios:
            blocks.setdefault(amd_signal(w, agent), set()).add(w)
        partition = frozenset(frozenset(b) for b in blocks.values())
        info[agent] = {m: partition}
        refchoices[agent] = {m: (amd_exit_region(assignments, agent),
                                 amd_continue_region(assignments, agent))}
        # a choice takes one of its two pieces per signal block
        pieces = {sig: [region({w: assignments[w] for w in block}, agent)
                        for region in (amd_exit_region, amd_continue_region)]
                  for sig, block in blocks.items()}
        choices[agent] = frozenset({
            frozenset().union(*[ex if sig in combo else ct
                                for sig, (ex, ct) in pieces.items()])
            for combo in powerset(sorted(blocks))})
    sef = StochasticExtensiveForm(sdf, agents, agent_moves, info,
                                  refchoices, choices)
    return sef, (x1, x2)


# --- coin-matching instances -------------------------------------------------

MP_SCENARIOS = tuple(f"r{r}z{z0}{z1}{z2}" for r in "12"
                     for z0 in "01" for z1 in "01" for z2 in "01")

_MP_COORD = {"r": 1, "z0": 3, "z1": 4, "z2": 5}

# each scenario's four outcome labels by first and second action, formatted
# once, so that a choice is built from them without formatting a name
_MP_OUTCOMES = {w: {a: {b: f"{w}:{a}{b}" for b in "12"} for a in "12"}
                for w in MP_SCENARIOS}


def mp_blocks(keys):
    """Scenarios grouped by the selected signal coordinates."""
    blocks = {}
    for w in MP_SCENARIOS:
        sig = tuple(w[_MP_COORD[k]] for k in keys)
        blocks.setdefault(sig, set()).add(w)
    return {sig: frozenset(b) for sig, b in blocks.items()}


def mp_partition(keys):
    return frozenset(mp_blocks(keys).values())


def mp_maps(keys):
    """All action maps on the scenarios measurable in the given signals."""
    sigs = sorted(mp_blocks(keys))
    # each scenario's signal signature, once per scenario
    signed = [(w, tuple(w[_MP_COORD[k]] for k in keys)) for w in MP_SCENARIOS]
    result = []
    for combo in itertools.product("12", repeat=len(sigs)):
        by_sig = dict(zip(sigs, combo))
        result.append({w: by_sig[sig] for w, sig in signed})
    return result


def mp_sdf():
    """Sixteen scenarios (a side variable and three binary signal atoms),
    two binary stages, three scenario-wide random moves."""
    nodes = []
    outcomes = []
    for w in MP_SCENARIOS:
        nodes.extend(_two_period_component(w))
        outcomes.extend(f"{w}:{a}{b}" for a in "12" for b in "12")
    forest = DecisionForest(outcomes, nodes)
    projection = {x: next(iter(x)).split(":")[0] for x in forest.nodes}
    x0 = RandomMove({w: frozenset(f"{w}:{a}{b}" for a in "12" for b in "12")
                     for w in MP_SCENARIOS})
    x1 = RandomMove({w: frozenset({f"{w}:11", f"{w}:12"})
                     for w in MP_SCENARIOS})
    x2 = RandomMove({w: frozenset({f"{w}:21", f"{w}:22"})
                     for w in MP_SCENARIOS})
    sdf = StochasticDecisionForest(forest, MP_SCENARIOS, projection,
                                   [x0, x1, x2])
    return sdf, (x0, x1, x2)


def mp_choice_first(a):
    """First action as prescribed by the map a per scenario."""
    return frozenset(o for w in MP_SCENARIOS
                     for o in _MP_OUTCOMES[w][a[w]].values())


def mp_choice_second(k, g):
    """Second action per g after first action k; "." covers both firsts."""
    firsts = "12" if k == "." else k
    return frozenset(_MP_OUTCOMES[w][a][g[w]] for w in MP_SCENARIOS
                     for a in firsts)


def _mp_seconds(k, keys):
    """``mp_choice_second(k, g)`` for each map g of ``mp_maps(keys)``, in
    its order, built block by block: the union of one outcome set per
    signal block, the block's outcomes under g's action there."""
    firsts = "12" if k == "." else k
    blocks = mp_blocks(keys)
    per_block = [{b: frozenset(_MP_OUTCOMES[w][a][b] for w in blocks[sig]
                               for a in firsts) for b in "12"}
                 for sig in sorted(blocks)]
    return [frozenset().union(*[sets[b] for sets, b in zip(per_block, combo)])
            for combo in itertools.product("12", repeat=len(per_block))]


# second-stage information per case: signals at the two stage-two moves,
# and whether the first action is observed (split) or not (merged)
MP_CASES = {
    1: (("z1",), ("z2",), "split"),
    2: (("z1", "z2"), ("z1", "z2"), "merged"),
    3: (("r", "z1", "z2"), ("r", "z1", "z2"), "merged"),
    4: (("r", "z1"), ("z2",), "split"),
}


def mp_sef(case=1):
    """
    The two-agent coin-matching form: agent i moves first seeing its own
    signal atom, agent j moves second with case-dependent information.
    """
    keys1, keys2, shape = MP_CASES[case]
    sdf, (x0, x1, x2) = mp_sdf()
    agents = ("i", "j")
    agent_moves = {"i": frozenset({x0}), "j": frozenset({x1, x2})}
    info = {"i": {x0: mp_partition(("z0",))},
            "j": {x1: mp_partition(keys1), x2: mp_partition(keys2)}}
    const = [{w: m for w in MP_SCENARIOS} for m in "12"]
    refchoices = {
        "i": {x0: [mp_choice_first(a) for a in const]},
        "j": {x1: [mp_choice_second(".", g) for g in const],
              x2: [mp_choice_second(".", g) for g in const]},
    }
    firsts = [mp_choice_first(a) for a in mp_maps(("z0",))]
    if shape == "merged":
        seconds = _mp_seconds(".", keys1)
    else:
        seconds = _mp_seconds("1", keys1) + _mp_seconds("2", keys2)
    choices = {"i": frozenset(firsts), "j": frozenset(seconds)}
    sef = StochasticExtensiveForm(sdf, agents, agent_moves, info,
                                  refchoices, choices)
    return sef, (x0, x1, x2)


# --- take-it-or-leave-it instance --------------------------------------------

def ultimatum_sef():
    """
    One scenario, a proposer picking a greedy or a fair split, and a
    responder accepting or rejecting after seeing the offer.
    """
    outcomes = [f"u:{o}{d}" for o in "gf" for d in "ar"]
    nodes = [frozenset(outcomes)]
    for o in "gf":
        nodes.append(frozenset({f"u:{o}a", f"u:{o}r"}))
        for d in "ar":
            nodes.append(frozenset({f"u:{o}{d}"}))
    forest = DecisionForest(outcomes, nodes)
    projection = {x: "u" for x in forest.nodes}
    x0 = RandomMove({"u": frozenset(outcomes)})
    xg = RandomMove({"u": frozenset({"u:ga", "u:gr"})})
    xf = RandomMove({"u": frozenset({"u:fa", "u:fr"})})
    sdf = StochasticDecisionForest(forest, ("u",), projection, [x0, xg, xf])
    point = frozenset({frozenset({"u"})})
    offers = [frozenset({f"u:{o}a", f"u:{o}r"}) for o in "gf"]
    answers = {o: [frozenset({f"u:{o}{d}"}) for d in "ar"] for o in "gf"}
    agent_moves = {"p": frozenset({x0}), "r": frozenset({xg, xf})}
    info = {"p": {x0: point}, "r": {xg: point, xf: point}}
    refchoices = {"p": {x0: offers},
                  "r": {xg: answers["g"], xf: answers["f"]}}
    choices = {"p": frozenset(offers),
               "r": frozenset(answers["g"] + answers["f"])}
    sef = StochasticExtensiveForm(sdf, ("p", "r"), agent_moves, info,
                                  refchoices, choices)
    return sef, (x0, xg, xf)


# --- verification examples ---------------------------------------------------

def _assign(sef, agent, picks):
    """The strategy selecting, at each info set, the unique pick that is
    available there."""
    sets, _ = info_sets(sef, agent)
    assignment = {}
    for p in sets:
        menu = sef.available_at(agent, next(iter(p.random_moves)))
        match = [c for c in picks if c in menu]
        if len(match) != 1:
            raise InputError(f"{len(match)} picks available at {p!r}")
        assignment[p] = match[0]
    return Strategy(agent, assignment)


def _instance(sef, prior, picks, tastes):
    """
    A bundled instance: the form, its expected-utility layer, the
    candidate profile and the prior.  Each agent's strategy selects its
    picks (``_assign``), and the layer holds the Bayes beliefs of the
    prior under that profile and the agents' uniform tastes.  The play
    and equilibrium layers are imported here, so that listing the
    examples loads neither.
    """
    from .equil import EUStructure, bayes_beliefs, uniform_tastes
    from .play import StrategyProfile
    s = StrategyProfile({agent: _assign(sef, agent, chosen)
                         for agent, chosen in picks.items()})
    eu = EUStructure(bayes_beliefs(sef, prior, s),
                     uniform_tastes(sef, tastes))
    return sef, eu, s, prior


def amd_instance(p=Fraction(2, 3), atoms=3):
    """
    The exit/continue form with a symmetric threshold profile: each agent
    exits exactly on the signal atoms of total probability 1 - p.  The
    bias p must lie in [0, 1] and the exit probability be a multiple of
    1/atoms.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"bias p = {p} is out of range [0, 1]")
    exit_count = (1 - p) * atoms
    if exit_count.denominator != 1:
        raise InputError(f"exit probability {1 - p} is not a multiple "
                         f"of 1/{atoms}")
    sef, _ = amd_sef(atoms)
    scenarios = sorted(sef.sdf.scenarios)
    prior = {w: Fraction(1, 2 * atoms * atoms) for w in scenarios}
    exit_sigs = {str(k) for k in range(int(exit_count))}
    picks = {}
    for agent in (1, 2):
        event = frozenset(w for w in scenarios
                          if amd_signal(w, agent) in exit_sigs)
        picks[agent] = [amd_event_choice(atoms, agent, event)]
    taste = {}
    for w in scenarios:
        taste[f"{w}:D"] = Fraction(0)
        taste[f"{w}:H"] = Fraction(4)
        taste[f"{w}:M"] = Fraction(1)
    return _instance(sef, prior, picks, {1: taste, 2: taste})


def mp_instance(case=1, p=Fraction(2, 3)):
    """
    A coin-matching form with its case-specific candidate profile: the
    first mover leans on the side variable having probability p.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError(f"not a probability: {p}")
    sef, (x0, x1, x2) = mp_sef(case)
    prior = {w: (p if w[1] == "1" else 1 - p) / 8
             for w in MP_SCENARIOS}
    everywhere = MP_SCENARIOS
    if case in (2, 3):
        first = {w: "1" if w[3] == "0" else "2" for w in everywhere}
        picks_j = [mp_choice_second(
            ".", {w: "1" if w[4] == "0" else "2" for w in everywhere})]
    elif case == 1:
        first = {w: "1" for w in everywhere}
        picks_j = [mp_choice_second("1", {w: "2" for w in everywhere}),
                   mp_choice_second("2", {w: "1" for w in everywhere})]
    elif case == 4:
        first = {w: "2" for w in everywhere}
        picks_j = [mp_choice_second(
            "1", {w: "2" if w[1] == "1" else "1" for w in everywhere}),
            mp_choice_second("2", {w: "1" for w in everywhere})]
    else:
        raise InputError(f"unknown case: {case!r}")
    taste_j = {}
    for w in everywhere:
        for a in "12":
            for b in "12":
                taste_j[f"{w}:{a}{b}"] = Fraction(
                    (-1) ** (int(w[1]) + int(a) + int(b)))
    taste_i = {k: -v for k, v in taste_j.items()}
    picks = {"i": [mp_choice_first(first)], "j": picks_j}
    return _instance(sef, prior, picks, {"i": taste_i, "j": taste_j})


def _simple_instance():
    sef = simple_sef(1)
    prior = {w: Fraction(1, 2) for w in SIMPLE_SCENARIOS}
    taste = {}
    for w in SIMPLE_SCENARIOS:
        taste[f"{w}:11"] = Fraction(2)
        taste[f"{w}:12"] = Fraction(1)
        taste[f"{w}:21"] = Fraction(0)
        taste[f"{w}:22"] = Fraction(0)
    const = {w: "1" for w in SIMPLE_SCENARIOS}
    picks = [simple_choice_first(const),
             simple_choice_second("1", const),
             simple_choice_second("2", const)]
    return _instance(sef, prior, {"i": picks}, {"i": taste})


def _variant_instance():
    sef = variant_sef(1)
    prior = {w: Fraction(1, 2) for w in SIMPLE_SCENARIOS}
    taste = {"o1:11": Fraction(2), "o1:12": Fraction(1), "o1:2": Fraction(3),
             "o2:11": Fraction(2), "o2:12": Fraction(1),
             "o2:21": Fraction(0), "o2:22": Fraction(0)}
    const = {w: "1" for w in SIMPLE_SCENARIOS}
    picks = [variant_choice_first(const),
             variant_choice_second("1", const),
             variant_choice_second("2", const)]
    return _instance(sef, prior, {"i": picks}, {"i": taste})


def _ultimatum_instance():
    sef, _ = ultimatum_sef()
    prior = {"u": Fraction(1)}
    taste_p = {"u:ga": Fraction(3), "u:gr": Fraction(0),
               "u:fa": Fraction(2), "u:fr": Fraction(0)}
    taste_r = {"u:ga": Fraction(1), "u:gr": Fraction(0),
               "u:fa": Fraction(2), "u:fr": Fraction(0)}
    greedy = frozenset({"u:ga", "u:gr"})
    return _instance(sef, prior, {
        "p": [greedy],
        "r": [frozenset({"u:ga"}), frozenset({"u:fa"})],
    }, {"p": taste_p, "r": taste_r})


# name -> (description, builder, expected verdict, expected payoffs)
EXAMPLES = {
    "simple": ("two-period single-agent form with forgetful information",
               _simple_instance, True, {"i": Fraction(2)}),
    "simple-variant": ("the same outcomes under a coarser node family",
                       _variant_instance, True, {"i": Fraction(2)}),
    "amd": ("two-agent exit/continue race over signal atoms",
            amd_instance, True, {1: Fraction(8, 5), 2: Fraction(8, 5)}),
    "mp-case1": ("coin matching, split second-mover information",
                 lambda: mp_instance(1), True,
                 {"i": Fraction(-1, 3), "j": Fraction(1, 3)}),
    "mp-case2": ("coin matching, merged information, coin hidden",
                 lambda: mp_instance(2), True,
                 {"i": Fraction(0), "j": Fraction(0)}),
    "mp-case3": ("coin matching, merged information, coin shown",
                 lambda: mp_instance(3), True,
                 {"i": Fraction(0), "j": Fraction(0)}),
    "mp-case4": ("coin matching, split information, coin shown to one side",
                 lambda: mp_instance(4), True,
                 {"i": Fraction(-1, 3), "j": Fraction(1, 3)}),
    "ultimatum": ("take-it-or-leave-it split with acceptance response",
                  _ultimatum_instance, True,
                  {"p": Fraction(3), "r": Fraction(1)}),
}


def load_example(name):
    """
    A bundled verification instance: the form, its expected-utility
    layer, the candidate profile, and the expected verdict.  The expected
    payoffs state, per agent, the conditional value on every positive
    block of every info set reached with positive probability.
    """
    if name not in EXAMPLES:
        raise UnknownExample(f"unknown example: {name!r}")
    _, build, equilibrium, payoffs = EXAMPLES[name]
    sef, eu, s, prior = build()
    return sef, eu, s, {"equilibrium": equilibrium, "payoffs": dict(payoffs),
                        "prior": prior}
