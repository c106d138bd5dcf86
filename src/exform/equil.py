"""
Equilibrium verification.

An expected-utility layer places local beliefs and tastes on every
information set of an extensive form.  A profile is verified in two
halves: dynamic consistency (assessments agree along realized play and
every pair of belief systems admits a common prior, decided by exact
linear feasibility) and dynamic rationality (no agent can improve the
conditional payoff at any of its information sets by deviating).  All
arithmetic is exact over the rationals.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, ZeroProbabilityBlockRequested
from .play import StrategyProfile, outcome_from, profile_tables
from .sef import info_sets, strategies


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
        sets, _ = info_sets(sef, i)
        result.extend((i, p) for p in sorted(
            sets, key=lambda p: sorted(map(repr, p.random_moves))))
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


def validate_eu(sef, eu):
    """Check coverage and the local probability/assessment invariants."""
    outcomes = sef.sdf.forest.outcomes
    for unit in units(sef):
        if unit not in eu.beliefs:
            raise InputError(f"no belief at {unit!r}")
        if unit not in eu.tastes:
            raise InputError(f"no taste at {unit!r}")
        domain = unit_domain(unit)
        belief = eu.beliefs[unit]
        if not set(belief.prob) <= domain:
            raise InputError(f"belief support leaves the domain at {unit!r}")
        mass = sum(map(Fraction, belief.prob.values()), Fraction(0))
        if mass != 1 or any(Fraction(v) < 0 for v in belief.prob.values()):
            raise InputError(f"belief at {unit!r} is not a probability")
        _, p = unit
        for w in domain:
            m = belief.assessment.get(w)
            if m not in p.random_moves or w not in m.domain:
                raise InputError(f"assessment at {unit!r} fails at {w!r}")
        if not outcomes <= set(eu.tastes[unit]):
            raise InputError(f"taste at {unit!r} misses outcomes")


def _psi(infoset, sdf, w):
    """The unique member move whose image contains the outcome, if any."""
    sw = sdf.scenario_of_outcome(w)
    hits = [m for m in infoset.random_moves if sw in m.domain and w in m(sw)]
    if len(hits) == 1:
        return hits[0]
    return None


@dataclass
class _UnitPlan:
    """
    A unit's conditional payoffs in integers, fixed once per unit: each
    positive-mass block keeps its (start move, weight) pairs, the weights
    over the belief's common denominator, and its mass; the tastes on the
    outcomes play can reach are integers over ``scale``.  A block's value
    under any tables is its ``total`` over mass * scale, so two profiles
    compare on their totals.
    """
    blocks: list   # (block, [(start move, weight)], mass), sorted by block
    zero: set      # the zero-mass blocks
    taste: dict    # outcome -> int, over scale
    scale: int

    def total(self, sef, tables, pairs):
        taste = self.taste
        return sum(weight * taste[outcome_from(sef, tables, start)]
                   for start, weight in pairs)

    def value(self, total, mass):
        return Fraction(total, mass * self.scale)

    def values(self, sef, tables):
        return {b: self.value(self.total(sef, tables, pairs), mass)
                for b, pairs, mass in self.blocks}


def _unit_plan(sef, belief, taste, blocks):
    """The unit's plan over the given information blocks."""
    prob = {w: Fraction(v) for w, v in belief.prob.items()}
    denominator = lcm(*(q.denominator for q in prob.values()))
    weight = {w: q.numerator * (denominator // q.denominator)
              for w, q in prob.items() if q}
    plan, zero, support = [], set(), set()
    for b in sorted(blocks, key=sorted):
        reached = [w for w in sorted(b) if w in weight]
        mass = sum(weight[w] for w in reached)
        if mass == 0:
            zero.add(b)
            continue
        plan.append((b, [(belief.assessment[w](w), weight[w]) for w in reached],
                     mass))
        support.update(reached)
    outcomes = frozenset().union(*map(sef.sdf.root_of, support))
    tastes = {o: Fraction(taste[o]) for o in outcomes if o in taste}
    scale = lcm(*(q.denominator for q in tastes.values()))
    return _UnitPlan(plan, zero, {o: q.numerator * (scale // q.denominator)
                                  for o, q in tastes.items()}, scale)


def expected_payoff(sef, eu, profile, agent, infoset, block=None):
    """
    The agent's conditional expected payoff at the info set under the
    profile, one exact value per positive-probability information block.
    Requesting a specific zero-probability block is an error.
    """
    unit = (agent, infoset)
    tables = profile_tables(sef, profile)
    blocks = information_blocks(sef, agent, infoset)
    if block is not None:
        block = frozenset(block)
        if block not in blocks:
            raise InputError(f"not an information block: {sorted(block)}")
        blocks = {block}
    plan = _unit_plan(sef, eu.beliefs[unit], eu.tastes[unit], blocks)
    if block is not None and block in plan.zero:
        raise ZeroProbabilityBlockRequested(
            f"block {sorted(block)} has probability zero at {unit!r}")
    return plan.values(sef, tables)


@dataclass
class RationalityReport:
    rational: bool
    payoffs: dict                     # unit -> {block: Fraction}
    witnesses: list = field(default_factory=list)
    zero_blocks: dict = field(default_factory=dict)

    def __bool__(self):
        return self.rational


def check_dynamic_rationality(sef, eu, profile):
    """
    Exhaustive one-agent deviation check: at every info set of every
    agent, the profile's conditional payoff must weakly dominate every
    unilateral deviation on every positive-probability block.  Each unit's
    plan is built once, and a deviation is compared with the profile on
    the integer totals of the plan's blocks.
    """
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    validate_eu(sef, eu)
    report = RationalityReport(True, {})
    base_tables = profile_tables(sef, profile)
    swept = []   # (unit, plan, the profile's total per block)
    for unit in units(sef):
        plan = _unit_plan(sef, eu.beliefs[unit], eu.tastes[unit],
                          information_blocks(sef, *unit))
        totals = [plan.total(sef, base_tables, pairs)
                  for _, pairs, _ in plan.blocks]
        report.payoffs[unit] = {b: plan.value(total, mass) for (b, _, mass), total
                                in zip(plan.blocks, totals)}
        report.zero_blocks[unit] = plan.zero
        swept.append((unit, plan, totals))
    for i in sef.agents:
        deviations = strategies(sef, i)
        own = [entry for entry in swept if entry[0][0] == i]
        for t in deviations:
            swapped = dict(profile.strategies)
            swapped[i] = t
            tables = profile_tables(sef, StrategyProfile(swapped))
            for unit, plan, totals in own:
                for (b, pairs, mass), base in zip(plan.blocks, totals):
                    total = plan.total(sef, tables, pairs)
                    if total > base:
                        report.rational = False
                        report.witnesses.append(
                            (i, unit[1], t, b, report.payoffs[unit][b],
                             plan.value(total, mass)))
                        break
    return report


# --- common-prior feasibility ------------------------------------------------

def _feasible_point(universe, rows):
    """
    Exact feasibility of A q = b together with q >= 0, over variables
    indexed by the universe; each row is a sparse pair ({w: coeff}, const)
    of ints or Fractions.  A phase-1 simplex with one artificial variable
    per row, pivoting by Bland's rule (the entering column is the smallest
    index with a negative reduced cost, and a tie in the ratio test goes
    to the smallest basic index), which cannot cycle.  Returns a witness
    assignment or None.

    The arithmetic is on integers, as in integer-preserving elimination.
    Row i, the cost row included, stores a sparse dict of numerators, a
    numerator rhs[i] for its right-hand side and one positive denominator
    den[i] shared by all of them.  The pivot row takes its pivot entry as
    its denominator; every other row it touches becomes row * p - f *
    pivot over den * p and is brought to lowest terms.  Since den[i] > 0,
    every stored integer has the sign of the rational it stands for, and
    the ratio test's rhs_i / a_i is the same rational (den[i] cancels), so
    Bland's rule takes the pivots of the same simplex over Fraction and
    the witness is the same vertex.  Fractions are made only for it.
    """
    n, m = len(universe), len(rows)
    index = {w: k for k, w in enumerate(universe)}
    tableau, rhs, den = [], [], []
    for coeffs, const in rows:
        sign = -1 if const < 0 else 1
        parts = [(index[w], c.numerator, c.denominator)
                 for w, c in coeffs.items()]
        d = lcm(const.denominator, *(b for _, _, b in parts))
        tableau.append({k: sign * a * (d // b) for k, a, b in parts if a})
        rhs.append(sign * const.numerator * (d // const.denominator))
        den.append(d)
    # the last row holds the reduced costs of the phase-1 objective, the
    # total artificial mass, whose value is minus its right-hand side
    d = lcm(*den)
    cost = {}
    for row, dr in zip(tableau, den):
        scale = d // dr
        for k, v in row.items():
            cost[k] = cost.get(k, 0) - v * scale
    tableau.append(cost)
    rhs.append(-sum(b * (d // dr) for b, dr in zip(rhs, den)))
    den.append(d)
    # artificial n + i starts basic in row i; its unit column is implicit
    # and is dropped once it leaves, so it is never stored
    basis = list(range(n, n + m))
    while True:
        entering = min((k for k, v in cost.items() if v < 0), default=None)
        if entering is None:
            break
        # a negative reduced cost needs a positive entry in a row whose
        # artificial is still basic, so the ratio test has a candidate;
        # it compares rhs[i] / a with rhs[r] / best by cross-multiplying
        r = best = None
        for i in range(m):
            a = tableau[i].get(entering, 0)
            if a > 0 and (r is None or rhs[i] * best < rhs[r] * a or (
                    rhs[i] * best == rhs[r] * a and basis[i] < basis[r])):
                r, best = i, a
        # the pivot row keeps its integers over the denominator a_re
        pivot = tableau[r]
        den[r] = p = best
        basis[r] = entering
        for i, row in enumerate(tableau):
            f = row.get(entering)
            if i == r or not f:
                continue
            # row / den_i - (f / den_i) * (pivot / p)
            #     = (row * p - f * pivot) / (den_i * p)
            if p > 1:
                for k, v in row.items():
                    row[k] = v * p
                rhs[i] *= p
                den[i] *= p
            for k, v in pivot.items():
                new = row.get(k, 0) - f * v
                if new:
                    row[k] = new
                else:
                    del row[k]
            rhs[i] -= f * rhs[r]
            g = gcd(den[i], rhs[i], *row.values())
            if g > 1:
                for k, v in row.items():
                    row[k] = v // g
                rhs[i] //= g
                den[i] //= g
    if rhs[m]:
        return None
    q = dict.fromkeys(universe, Fraction(0))
    for i, k in enumerate(basis):
        if k < n:
            q[universe[k]] = Fraction(rhs[i], den[i])
    return q


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
    prior is found by exact linear feasibility.
    """
    if isinstance(profile, dict):
        profile = StrategyProfile(profile)
    validate_eu(sef, eu)
    sdf = sef.sdf
    tastes_ok = True
    by_agent = {}
    for (i, p), taste in eu.tastes.items():
        seen = by_agent.setdefault(i, taste)
        if any(Fraction(seen[w]) != Fraction(taste[w])
               for w in sdf.forest.outcomes):
            tastes_ok = False
    report = ConsistencyReport(True, tastes_ok)
    tables = profile_tables(sef, profile)
    my_units = units(sef)
    outs = {}
    for unit in my_units:
        belief = eu.beliefs[unit]
        outs[unit] = {w: outcome_from(sef, tables, belief.assessment[w](w))
                      for w in unit_domain(unit)}
    groups = [frozenset({u}) for u in my_units]
    groups += [frozenset(pair) for pair in itertools.combinations(my_units, 2)]
    for group in groups:
        members = sorted(group, key=repr)
        status = "consistent"
        witness = None
        domains = {u: unit_domain(u) for u in members}
        events = {}
        reached = {}
        for ua, ub in _ordered_directions(members):
            belief_a = eu.beliefs[ua]
            belief_b = eu.beliefs[ub]
            for w in sorted(domains[ua]):
                out = outs[ua][w]
                m = _psi(ub[1], sdf, out)
                if m is None:
                    continue
                if belief_a.assessment[w](w) >= m(w) and \
                        belief_b.assessment[w] != m:
                    status = "inconsistent"
                    witness = ("assessment", ub, w, m)
                    break
            if witness:
                break
            event = frozenset(
                w for w in domains[ua] & domains[ub]
                if belief_a.assessment[w](w) >= belief_b.assessment[w](w))
            events[(ua, ub)] = event
            reached[(ua, ub)] = (domains[ub] - event) | frozenset(
                w for w in event if _psi(ub[1], sdf, outs[ua][w]) is not None)
        report.events.update(events)
        if status != "inconsistent":
            universe = sorted(frozenset().union(*domains.values()))
            rows = [(dict.fromkeys(universe, Fraction(1)), Fraction(1))]
            for ua, ub in _ordered_directions(members):
                a_set = reached[(ua, ub)]
                prob_b = eu.beliefs[ub].prob
                for w0 in sorted(domains[ub]):
                    coeffs = dict.fromkeys(a_set, Fraction(prob_b.get(w0, 0)))
                    if w0 in a_set:
                        coeffs[w0] -= 1
                    rows.append((coeffs, Fraction(0)))
            q = _feasible_point(universe, rows)
            if q is None:
                status = "inconsistent"
                witness = ("prior", "no common prior exists")
            # the witness is a vertex and may miss an event that some
            # common prior charges; the rows but the first are
            # homogeneous, so averaging in a prior normalised on that
            # event stays feasible, and "vacuous" below means that
            # every common prior misses it
            for ua, ub in _ordered_directions(members):
                a_set = reached[(ua, ub)]
                if q is None or any(q[w] for w in a_set):
                    continue
                on_a = _feasible_point(
                    universe,
                    [(dict.fromkeys(a_set, Fraction(1)), Fraction(1))]
                    + rows[1:])
                if on_a is not None:
                    mass = sum(on_a.values(), Fraction(0))
                    q = {w: (q[w] + on_a[w] / mass) / 2 for w in universe}
            if q is not None:
                vacuous = False
                for ua, ub in _ordered_directions(members):
                    a_set = reached[(ua, ub)]
                    a_mass = sum((q[w] for w in a_set), Fraction(0))
                    if a_mass == 0:
                        vacuous = True
                        continue
                    prob_b = eu.beliefs[ub].prob
                    for w0 in sorted(domains[ub]):
                        lhs = Fraction(prob_b.get(w0, 0)) * a_mass
                        rhs = q[w0] if w0 in a_set else Fraction(0)
                        if lhs != rhs:
                            status = "inconsistent"
                            witness = ("prior", ub, w0)
                            break
                    if status == "inconsistent":
                        break
                if status == "consistent":
                    report.priors[group] = q
                    if vacuous:
                        status = "vacuously consistent"
        report.pair_status[group] = status
        if witness is not None:
            report.witnesses[group] = witness
        if status == "inconsistent":
            report.consistent = False
    report.consistent = report.consistent and tastes_ok
    return report


@dataclass
class EquilibriumReport:
    consistency: ConsistencyReport
    rationality: RationalityReport
    in_equilibrium: bool

    def __bool__(self):
        return self.in_equilibrium


def verify_equilibrium(sef, eu, profile):
    """Consistency and rationality, conjoined."""
    consistency = check_dynamic_consistency(sef, eu, profile)
    rationality = check_dynamic_rationality(sef, eu, profile)
    return EquilibriumReport(consistency, rationality,
                             bool(consistency) and rationality.rational)


# --- canonical expected-utility layers ---------------------------------------

def bayes_beliefs(sef, prior, profile):
    """
    The belief system a prior induces under a profile: at each info set,
    condition the prior on the scenarios whose realized play passes
    through a member move; at unreached info sets fall back to the prior
    restricted to the domain.  Assessments point at the member reached,
    else at the first member defined on the scenario.
    """
    tables = profile_tables(sef, profile)
    prior = {w: Fraction(v) for w, v in prior.items()}
    played = {w: outcome_from(sef, tables, sef.sdf.root_of(w))
              for w in sef.sdf.scenarios}
    beliefs = {}
    for unit in units(sef):
        _, p = unit
        domain = sorted(unit_domain(unit))
        members = sorted(p.random_moves, key=repr)
        hit = {}
        for w in domain:
            for m in members:
                if w in m.domain and played[w] in m(w):
                    hit[w] = m
                    break
        mass = sum((prior.get(w, 0) for w in hit), Fraction(0))
        if mass > 0:
            prob = {w: prior[w] / mass for w in hit if prior.get(w, 0) > 0}
        else:
            total = sum((prior.get(w, 0) for w in domain), Fraction(0))
            if total == 0:
                raise InputError(f"the prior misses the domain of {unit!r}")
            prob = {w: prior[w] / total for w in domain
                    if prior.get(w, 0) > 0}
        assessment = {}
        for w in domain:
            assessment[w] = hit.get(w) or next(
                m for m in members if w in m.domain)
        beliefs[unit] = Belief(prob, assessment)
    return beliefs


def uniform_tastes(sef, per_agent):
    """The same taste at every info set of each agent."""
    return {(i, p): {w: Fraction(v) for w, v in per_agent[i].items()}
            for (i, p) in units(sef)}
