"""
Equilibrium verification.

An expected-utility layer places local beliefs and tastes on every
information set of an extensive form.  A profile is verified in two
halves: dynamic consistency (assessments agree along realized play and
every pair of belief systems admits a common prior, decided in closed
form on the beliefs' supports and ratios) and dynamic rationality (no
agent can improve the conditional payoff at any of its information sets
by deviating).  Both halves share one pass: ``validate_eu`` checks the
layer and scales its beliefs and tastes to integers once, and outcomes
are read once, through one ``TreeFills`` memo.  A deviation's conditional
payoff is linear in what it plays at each information set, as in the
sequence form (Koller, Megiddo & von Stengel, GEB 1996), so the
rationality sweep sums each block from per-information-set partials
instead of replaying every deviation: each term goes into the sum of its
slice tuple under its tree's grouping of the menus, expanded into
choice tuples once, for a swept agent or where it has several
groupings, so the partials cost terms x slice tuples + expanded
groupings x choice tuples.  The sum of each part's largest partial
bounds every deviation's total of a block, so an agent whose blocks are
all bounded by the profile's totals is rational with no deviation
enumerated; only the others are swept.  The consistency half reads each
unit's assessed nodes and the member move holding each outcome from
maps built once per check, and runs each pair's two directions in
``units`` order.  ``bayes_beliefs`` conditions a prior
scaled to integers once.  All arithmetic is exact; ``Fraction``s are
built only for reported values.
"""

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from ._util import canonical
from .errors import (
    InputError,
    MultipleOutcomes,
    NoOutcome,
    ZeroProbabilityBlockRequested,
)
from .play import TreeFills, profile_tables, scenario_outcomes
from .sef import _strategy_sets, info_sets, ordered_info_sets, strategies


@dataclass
class Belief:
    """A local probability on an info set's domain, plus an assessment of
    the member move each scenario has reached."""
    prob: dict        # scenario -> Fraction, summing to one over the support
    assessment: dict  # scenario -> member random move, total on the domain


@dataclass
class EUStructure:
    """Per-unit beliefs and tastes; a unit is an (agent, info set) pair."""
    beliefs: dict   # (agent, InfoSet) -> Belief
    tastes: dict    # (agent, InfoSet) -> {outcome: Fraction}


def units(sef):
    """All (agent, info set) pairs of the form, in a deterministic order."""
    result = []
    for i in sef.agents:
        result.extend((i, p) for p in ordered_info_sets(sef, i))
    return result


def unit_domain(unit):
    _, p = unit
    return frozenset(w for m in p.random_moves for w in m.domain)


def information_blocks(sef, agent, infoset):
    """The exogenous-information partition the agent conditions on at the
    info set: the union of the members' information partitions."""
    blocks = set()
    for m in infoset.random_moves:
        blocks.update(sef.info[agent][m])
    return frozenset(blocks)


def _scaled(unit, values, what="belief"):
    """The values as integers over their common denominator, as
    ({key: integer}, denominator): a belief's nonzero values, or all of a
    taste's.  A value that is not a number is an ``InputError``."""
    try:   # a Fraction is kept: rebuilding it is most of the cost
        values = {k: v if type(v) is Fraction else Fraction(v)
                  for k, v in values.items()}
    except (TypeError, ValueError, ArithmeticError) as err:
        raise InputError(f"{what} at {unit!r} is not a number") from err
    denominator = lcm(*(q.denominator for q in values.values()))
    return {k: q.numerator * (denominator // q.denominator)
            for k, q in values.items() if q or what == "taste"}, denominator


def _scaled_taste(sef, unit, taste):
    """The taste on the form's outcomes, scaled; equal tastes scale alike."""
    outcomes = sef.sdf.forest.outcomes
    return _scaled(unit, {o: v for o, v in taste.items() if o in outcomes},
                   "taste")


def validate_eu(sef, eu):
    """Check coverage and the local probability/assessment invariants;
    returns each unit's belief and taste, scaled.  A taste equal to the
    last unit's shares that scaling; units run agent by agent, so each
    agent's taste, and a taste agents share, is scaled once."""
    beliefs, tastes, last = {}, {}, (None, None)
    for unit in units(sef):
        beliefs[unit] = _validate_unit(sef, eu, unit)
        if eu.tastes[unit] != last[0]:
            last = eu.tastes[unit], _scaled_taste(sef, unit, eu.tastes[unit])
        tastes[unit] = last[1]
    return beliefs, tastes


def _validate_unit(sef, eu, unit):
    """Check the unit's belief and taste keys; returns the belief, scaled."""
    if unit not in eu.beliefs:
        raise InputError(f"no belief at {unit!r}")
    if unit not in eu.tastes:
        raise InputError(f"no taste at {unit!r}")
    domain = unit_domain(unit)
    belief = eu.beliefs[unit]
    if not set(belief.prob) <= domain:
        raise InputError(f"belief support leaves the domain at {unit!r}")
    weights, denominator = scaled = _scaled(unit, belief.prob)
    if sum(weights.values()) != denominator or min(weights.values()) < 0:
        raise InputError(f"belief at {unit!r} is not a probability")
    _, p = unit
    for w in domain:
        m = belief.assessment.get(w)
        if m not in p.random_moves or w not in m.domain:
            raise InputError(f"assessment at {unit!r} fails at {w!r}")
    if not sef.sdf.forest.outcomes <= eu.tastes[unit].keys():
        raise InputError(f"taste at {unit!r} misses outcomes")
    return scaled


@dataclass
class _UnitPlan:
    """
    A unit's conditional payoffs in integers, fixed once per unit: each
    positive-mass block keeps its (start move, weight) pairs, the weights
    over the belief's common denominator, and its mass; the tastes are the
    unit's scaled taste, integers over ``scale``.  A block's value under a
    profile is its ``total``, read through the profile's outcome lookup,
    over mass * scale, so two profiles compare on their totals.
    """
    blocks: list   # (block, [(start move, weight)], mass), sorted by block
    zero: set      # the zero-mass blocks
    taste: dict    # outcome -> int, over scale
    scale: int

    def total(self, outcome, pairs):
        taste = self.taste
        return sum(weight * taste[outcome(start)] for start, weight in pairs)

    def value(self, total, mass):
        return Fraction(total, mass * self.scale)


def _unit_plan(assessment, weight, taste, blocks):
    """The unit's plan over the given information blocks, from its belief's
    integer weights and its scaled taste."""
    plan, zero = [], set()
    for b in sorted(blocks, key=sorted):
        reached = [w for w in sorted(b) if w in weight]
        mass = sum(weight[w] for w in reached)
        if mass == 0:
            zero.add(b)
            continue
        plan.append((b, [(assessment[w](w), weight[w]) for w in reached],
                     mass))
    return _UnitPlan(plan, zero, *taste)


def expected_payoff(sef, eu, profile, agent, infoset, block=None):
    """
    The agent's conditional expected payoff at the info set under the
    profile, one exact value per positive-probability information block.
    Requesting a specific zero-probability block is an error.  Only this
    unit of the layer is validated.
    """
    unit = (agent, infoset)
    tables = profile_tables(sef, profile)
    blocks = information_blocks(sef, agent, infoset)
    if block is not None:
        block = frozenset(block)
        if block not in blocks:
            raise InputError(f"not an information block: {sorted(block)}")
        blocks = {block}
    weights, _ = _validate_unit(sef, eu, unit)
    plan = _unit_plan(eu.beliefs[unit].assessment, weights,
                      _scaled_taste(sef, unit, eu.tastes[unit]), blocks)
    if block is not None and block in plan.zero:
        raise ZeroProbabilityBlockRequested(
            f"block {sorted(block)} has probability zero at {unit!r}")
    outcome = TreeFills(sef).reader(tables)
    return {b: plan.value(plan.total(outcome, pairs), mass)
            for b, pairs, mass in plan.blocks}


@dataclass
class RationalityReport:
    rational: bool
    payoffs: dict                     # unit -> {block: Fraction}
    witnesses: list = field(default_factory=list)
    zero_blocks: dict = field(default_factory=dict)

    def __bool__(self):
        return self.rational


class _Deviations:
    """
    One agent's deviations, read through per-information-set partial sums.
    A term (start move, weight) of a block lies in the tree of its start,
    and a deviation changes its outcome only through the slices, in that
    tree, of its choices at S, the agent's information sets with moves
    there.  So the term is read once per slice tuple of S, from the form's
    menus grouped by slice, and added into that slice tuple's sum under
    the tree's grouping of S, which the form's index shares among the
    trees that group alike.  Each part (``_Part``) keeps those sums, and
    expands them into choice tuples only when it must; a block's total
    under a deviation is the sum of its partials at the deviation's
    choices.  A read that fails is kept with its term's position and
    raised only when a deviation reaches the block, the first failing
    term first.
    """

    def __init__(self, sef, fills, tables, i):
        self.fills, self.tables, self.agent = fills, tables, i
        self.sets, _ = info_sets(sef, i)
        self.grouped = [sef._index.grouped[p] for p in self.sets]
        self.active = {}   # root -> the positions of the sets with moves there
        for j, grouped in enumerate(self.grouped):
            for root in grouped:
                self.active[root] = self.active.get(root, ()) + (j,)

    def parts(self, taste, pairs):
        """The block's partial sums, one ``_Part`` per S."""
        by_set = {}
        for n, (start, weight) in enumerate(pairs):
            root = self.fills.root[start]
            by_set.setdefault(self.active[root], []).append(
                (n, start, weight, root))
        parts = []
        for sets, terms in by_set.items():
            sums = {}   # grouping -> [[sum, first failed read] per slice tuple]
            for n, start, weight, root in terms:
                grouped = [self.grouped[j][root] for j in sets]
                grouping = tuple([g for _, g in grouped])
                if grouping not in sums:
                    sums[grouping] = [[0, None] for _
                                      in itertools.product(*grouping)]
                for slot, groups in zip(sums[grouping],
                                        itertools.product(*grouping)):
                    table = {x: g[0] for (xs, _), g in zip(grouped, groups)
                             for x in xs}
                    try:
                        slot[0] += weight * taste[self.fills.reader(
                            {**self.tables, self.agent: table})(start)]
                    except (NoOutcome, MultipleOutcomes) as err:
                        slot[1] = slot[1] or (n, err)
            parts.append(_Part(sets, sums))
        return parts

    def choices(self, t):
        """The deviation's choice tuple at each S."""
        picks = [t(p) for p in self.sets]
        return {sets: tuple([picks[j] for j in sets])
                for sets in set(self.active.values())}


class _Part:
    """A block's [sum, first failed read] per slice tuple of each grouping
    of S; ``expanded`` sums them per choice tuple of S, with {choice tuple:
    (term, the error of its failed read)}, once, on first need."""

    def __init__(self, sets, sums):
        self.sets, self.sums = sets, sums

    @functools.cached_property
    def expanded(self):
        partial, failed = {}, {}
        for grouping, slots in self.sums.items():
            for groups, (value, error) in zip(
                    itertools.product(*grouping), slots):
                for choices in itertools.product(*groups):
                    partial[choices] = partial.get(choices, 0) + value
                    # terms were summed in order, so each grouping's error
                    # is its first; keep the first over groupings
                    if error and error[0] <= failed.get(choices, error)[0]:
                        failed[choices] = error
        return partial, failed

    def largest(self):
        """The largest partial sum, None on a failed read or no choice
        tuple; with one grouping, read off its slots with no empty group."""
        if len(self.sums) > 1:
            partial, failed = self.expanded
            return None if failed or not partial else max(partial.values())
        (grouping, slots), = self.sums.items()
        slots = [slot for groups, slot in zip(itertools.product(*grouping),
                                              slots) if all(groups)]
        if not slots or any(error for _, error in slots):
            return None
        return max(value for value, _ in slots)


def _deviation_total(parts, at):
    """A block's total under the deviation at these choice tuples."""
    total, failures = 0, []
    for part in parts:
        partial, failed = part.expanded
        total += partial[at[part.sets]]
        if at[part.sets] in failed:
            failures.append(failed[at[part.sets]])
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return total


def _bounded(parts, base):
    """Whether no deviation's total of the block exceeds the profile's
    base: no part holds a failed read, and the parts' largest partial
    sums add up to at most base.  A deviation's total is the sum of one
    partial per part, so their largest bound it."""
    largest = [part.largest() for part in parts]
    return None not in largest and sum(largest) <= base


def _pass(sef, eu, profile):
    """One pass over the layer under the profile, shared by both halves:
    the scaled beliefs and tastes, the profile's tables, one ``TreeFills``
    memo and the profile's outcome reader on it."""
    beliefs, tastes = validate_eu(sef, eu)
    tables = profile_tables(sef, profile)
    fills = TreeFills(sef)
    return beliefs, tastes, tables, fills, fills.reader(tables)


def check_dynamic_rationality(sef, eu, profile):
    """
    Exhaustive one-agent deviation check: at every info set of every
    agent, the profile's conditional payoff must weakly dominate every
    unilateral deviation on every positive-probability block.  Each unit's
    plan is built once, and a deviation is compared with the profile on
    the integer totals of the plan's blocks.  The profile's terms read
    their outcomes through the pass's reader; a deviation's block total
    is the sum of the block's partials at its choices (``_Deviations``),
    each term read through the same ``TreeFills`` memo once per distinct
    slice tuple of the deviating agent's information sets in the term's
    tree.  An agent whose every block is bounded (``_bounded``) is
    rational with no witness, and its strategies are not built nor its
    menus sorted, once their count is checked against the cap; any other
    agent is swept, each part expanded into choice tuples once.  The cost
    follows terms times slice tuples, plus groupings times choice tuples
    for the parts expanded, plus, for a swept agent, deviations times the
    blocks' information-set groups; each fill is one pass over its tree's
    walk, indexed when the form was built.
    """
    return _rationality(sef, eu, *_pass(sef, eu, profile))


def _rationality(sef, eu, beliefs, tastes, tables, fills, outcome):
    report = RationalityReport(True, {})
    swept = []   # (unit, plan, the profile's total per block)
    for unit in units(sef):
        plan = _unit_plan(eu.beliefs[unit].assessment, beliefs[unit][0],
                          tastes[unit], information_blocks(sef, *unit))
        totals = [plan.total(outcome, pairs) for _, pairs, _ in plan.blocks]
        report.payoffs[unit] = {b: plan.value(total, mass) for (b, _, mass), total
                                in zip(plan.blocks, totals)}
        report.zero_blocks[unit] = plan.zero
        swept.append((unit, plan, totals))
    for i in sef.agents:
        deviations = _Deviations(sef, fills, tables, i)
        own = [(unit, plan, totals, [deviations.parts(plan.taste, pairs)
                                     for _, pairs, _ in plan.blocks])
               for unit, plan, totals in swept if unit[0] == i]
        _strategy_sets(sef, i)   # the sweep's cap, checked as it would be
        if all(_bounded(parts, base) for _, _, totals, split in own
               for base, parts in zip(totals, split)):
            continue
        for t in strategies(sef, i):
            at = deviations.choices(t)
            for unit, plan, totals, split in own:
                for (b, _, mass), base, parts in zip(plan.blocks, totals, split):
                    total = _deviation_total(parts, at)
                    if total > base:
                        report.rational = False
                        report.witnesses.append(
                            (i, unit[1], t, b, report.payoffs[unit][b],
                             plan.value(total, mass)))
                        break
    return report


# --- common prior in closed form ---------------------------------------------

def _common_prior(universe, conditions):
    """
    A common prior of a group, decided on supports and ratios.  Each
    direction's condition (u, A, p) asks, for every w0 in u's domain,
    p(w0) q(A) = q(w0) if w0 is in A and 0 otherwise, so a prior q either
    misses A or has p's support inside A and q = q(A) p on A.  Hence a
    direction can be charged alone when p's support lies in its A and
    misses the other direction's A, and together with the other when each
    support lies in its own A and the two beliefs are proportional, with
    the same zeros, where the A's meet.  A single unit is its own other
    direction.  Each p is given by positive integer weights at any scale.

    Returns (prior, total, None), the prior as integer weights on the
    universe over total, or (None, None, obstructions).  The prior averages
    one charging prior per direction that can be charged; the rows are
    homogeneous apart from the normalisation, so an average of priors is
    a prior.  When no direction can be charged, it is uniform on the
    scenarios outside every A, if there are any.  Otherwise there is one
    obstruction per direction: (u, w0) when every q that charges the
    direction and meets its rows breaks u's row at w0, and (u, w, w2)
    when w and w2 lie in both A's and the beliefs give them different
    ratios, so that such a q breaks one of u's rows there.
    """
    charging, obstructions = [], []
    for (u, a_d, p_d), (v, a_e, p_e) in zip(conditions, reversed(conditions)):
        support = sorted(p_d)
        outside = [w for w in support if w not in a_d]
        shared = [w for w in support if w in a_e]
        if outside:
            obstructions.append((u, outside[0]))
            continue
        if not shared:
            charging.append(p_d)
            continue
        # a prior charging this direction is positive at ref, inside the
        # other A, so it charges the other direction too
        ref = shared[0]
        d_ref, e_ref = p_d[ref], p_e.get(ref, 0)
        clash = next((w for w in sorted(p_e) if w not in a_e), None)
        if clash is not None or not e_ref:
            obstructions.append((v, ref if clash is None else clash))
            continue
        clash = next((w for w in sorted(a_d & a_e)
                      if p_e.get(w, 0) * d_ref != e_ref * p_d.get(w, 0)), None)
        if clash is not None:
            zero = not (p_d.get(clash) and p_e.get(clash))
            obstructions.append((v, clash) if zero else (v, ref, clash))
            continue
        charging.append({w: x * d_ref for w, x in p_e.items()}
                        | {w: x * e_ref for w, x in p_d.items()})
    if not charging:
        charging = [{w: 1 for w in universe
                     if not any(w in a for _, a, _ in conditions)}]
        if not charging[0]:
            return None, None, obstructions
    masses = [sum(prior.values()) for prior in charging]
    common = lcm(*masses)
    q = dict.fromkeys(universe, 0)
    for prior, mass in zip(charging, masses):
        for w, x in prior.items():
            q[w] += x * (common // mass)
    return q, common * len(charging), None


@dataclass
class ConsistencyReport:
    consistent: bool
    tastes_consistent: bool
    events: dict = field(default_factory=dict)       # (unit, unit) -> event
    pair_status: dict = field(default_factory=dict)  # frozenset of units -> str
    witnesses: dict = field(default_factory=dict)
    priors: dict = field(default_factory=dict)       # frozenset of units -> prior

    def __bool__(self):
        return self.consistent


def _ordered_directions(group):
    if len(group) == 1:
        (u,) = group
        return [(u, u)]
    a, b = group
    return [(a, b), (b, a)]


def check_dynamic_consistency(sef, eu, profile):
    """
    Consistency of the belief systems under the profile, checked on every
    group of at most two (agent, info set) units: assessments must follow
    realized play into later info sets, the agreement events are recorded,
    and each group needs a common prior reproducing both local beliefs by
    conditioning on the scenarios that reach the respective info set.  The
    prior is decided in closed form by ``_common_prior`` on the beliefs'
    integer weights and re-checked exactly against every conditioning row.
    """
    return _consistency(sef, eu, *_pass(sef, eu, profile))


def _consistency(sef, eu, beliefs, tastes, tables, fills, outcome):
    first = {}
    tastes_ok = all(first.setdefault(unit[0], taste) == taste
                    for unit, taste in tastes.items())
    report = ConsistencyReport(True, tastes_ok)
    my_units = units(sef)
    assessed = {unit: _assessed(unit, eu.beliefs[unit].assessment, outcome)
                for unit in my_units}
    groups = [(u,) for u in my_units]
    groups += itertools.combinations(my_units, 2)
    for group in groups:
        status, witness, prior = _group_verdict(
            beliefs, assessed, group, report.events)
        key = frozenset(group)
        report.pair_status[key] = status
        if witness is not None:
            report.witnesses[key] = witness
        if prior is not None:
            report.priors[key] = prior
    report.consistent = tastes_ok and \
        "inconsistent" not in report.pair_status.values()
    return report


@dataclass
class _Assessed:
    """
    A unit's assessment read once per consistency check: its domain, sorted
    and as a set, the assessed move per scenario and the node it takes
    there, the outcome play reaches from that node, and ``member``, the
    member move whose image holds each outcome, None where two members
    hold it.  Each move is a section, so an outcome in m(w) lies in w's
    tree; ``member`` answers for the outcome what a scan of the members
    defined at its scenario would.
    """
    order: list
    domain: frozenset
    assessment: dict
    nodes: dict
    outs: dict
    member: dict


def _assessed(unit, assessment, outcome):
    domain = unit_domain(unit)
    nodes = {w: assessment[w](w) for w in domain}
    member = {}
    for m in unit[1].random_moves:
        for _, x in m.graph:
            for o in x:
                member[o] = None if o in member else m
    return _Assessed(sorted(domain), domain, assessment, nodes,
                     {w: outcome(x) for w, x in nodes.items()}, member)


def _group_verdict(beliefs, assessed, members, events):
    """One group's (status, witness, prior), its directions in the order
    of its members; each direction's agreement event goes into ``events``
    once its assessments are checked."""
    reached = {}
    for ua, ub in _ordered_directions(members):
        a, b = assessed[ua], assessed[ub]
        psi = {}
        for w in a.order:
            m = psi[w] = b.member.get(a.outs[w])
            if m is not None and a.nodes[w] >= m(w) and b.assessment[w] != m:
                return "inconsistent", ("assessment", ub, w, m), None
        event = events[(ua, ub)] = frozenset(
            w for w in a.domain & b.domain if a.nodes[w] >= b.nodes[w])
        reached[(ua, ub)] = (b.domain - event) | frozenset(
            w for w in event if psi[w] is not None)
    universe = sorted(frozenset().union(*(assessed[u].domain
                                          for u in members)))
    q, total, obstructions = _common_prior(universe, [
        (ub, reached[(ua, ub)], beliefs[ub][0])
        for ua, ub in _ordered_directions(members)])
    if q is None:
        return "inconsistent", ("prior", *obstructions), None
    status = "consistent"
    for ua, ub in _ordered_directions(members):
        a_set = reached[(ua, ub)]
        a_mass = sum(q[w] for w in a_set)
        if a_mass == 0:
            status = "vacuously consistent"
            continue
        # p_b(w0) q(A) = q(w0), both sides times D_b * total
        weights, denominator = beliefs[ub]
        for w0 in assessed[ub].order:
            lhs = weights.get(w0, 0) * a_mass
            rhs = q[w0] * denominator if w0 in a_set else 0
            if lhs != rhs:
                return "inconsistent", ("prior", ub, w0), None
    return status, None, {w: Fraction(x, total) for w, x in q.items()}


@dataclass
class EquilibriumReport:
    consistency: ConsistencyReport
    rationality: RationalityReport
    in_equilibrium: bool

    def __bool__(self):
        return self.in_equilibrium


def verify_equilibrium(sef, eu, profile):
    """Consistency and rationality, conjoined, on one shared pass."""
    shared = _pass(sef, eu, profile)
    consistency = _consistency(sef, eu, *shared)
    rationality = _rationality(sef, eu, *shared)
    return EquilibriumReport(consistency, rationality,
                             bool(consistency) and rationality.rational)


# --- canonical expected-utility layers ---------------------------------------

def bayes_beliefs(sef, prior, profile):
    """
    The belief system a prior induces under a profile: at each info set,
    condition the prior on the scenarios whose realized play passes
    through a member move; at unreached info sets fall back to the prior
    restricted to the domain.  Assessments point at the member reached,
    else at the first member defined on the scenario, in canonical order.
    The prior is scaled to integers over its common denominator once, the
    masses are integer sums, and each reported probability is one
    ``Fraction`` of its weight over its mass.
    """
    played = scenario_outcomes(sef, profile)
    prior = {w: Fraction(v) for w, v in prior.items()}
    scale = lcm(*(q.denominator for q in prior.values()))
    weight = {w: q.numerator * (scale // q.denominator)
              for w, q in prior.items()}
    beliefs = {}
    for unit in units(sef):
        _, p = unit
        domain = sorted(unit_domain(unit))
        members = sorted(p.random_moves, key=canonical)
        hit = {}
        for w in domain:
            for m in members:
                if w in m.domain and played[w] in m(w):
                    hit[w] = m
                    break
        support = hit
        mass = sum(weight.get(w, 0) for w in hit)
        if mass <= 0:
            support = domain
            mass = sum(weight.get(w, 0) for w in domain)
            if mass == 0:
                raise InputError(f"the prior misses the domain of {unit!r}")
        prob = {w: Fraction(weight[w], mass) for w in support
                if weight.get(w, 0) > 0}
        assessment = {}
        for w in domain:
            assessment[w] = hit.get(w) or next(
                m for m in members if w in m.domain)
        beliefs[unit] = Belief(prob, assessment)
    return beliefs


def uniform_tastes(sef, per_agent):
    """The same taste at every info set of each agent, its values made
    Fractions once per agent, a Fraction kept; each unit gets a copy."""
    found = units(sef)
    taste = {i: {w: v if type(v) is Fraction else Fraction(v)
                 for w, v in per_agent[i].items()}
             for i in dict.fromkeys(i for i, _ in found)}
    return {(i, p): dict(taste[i]) for i, p in found}
