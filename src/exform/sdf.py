"""
Stochastic decision forests over finite scenario spaces.

A stochastic decision forest couples a decision forest with a scenario
space: connected components are indexed by scenarios and random moves are
sections of moves over events.  Sigma-algebras on the finite scenario
space are represented as partitions throughout; "measurable" means
"a union of blocks".
"""

import functools
import itertools
from dataclasses import dataclass, field

from ._util import (budget, canonical, canonical_text, partitions_of,
                    sorted_violations)
from .errors import (
    BudgetExceeded,
    ChoiceError,
    InputError,
    NotOrderConsistent,
    StructureError,
)
from .forest import DecisionForest, immediate_predecessors, is_union_of_nodes
from .order import Poset, roots_and_components

# the kinds of SDF violation, in the order their checks run
SDF_KINDS = ("forest", "scenarios", "projection", "random_moves", "covering")

# default caps of the random-move merge and recall-structure searches;
# EXFORM_BUDGET overrides both
MERGE_CAP = 10 ** 5
RECALL_CAP = 10 ** 5


class RandomMove:
    """A section of moves: one move per scenario of a nonempty event."""

    def __init__(self, assignment):
        items = dict(assignment)
        if not items:
            raise InputError("random move with empty domain")
        self._graph = tuple(sorted(((w, frozenset(x)) for w, x in items.items()),
                                   key=repr))
        self._domain = frozenset(items)
        self._map = dict(self._graph)
        self._hash = hash(self._graph)   # the graph never changes

    @property
    def domain(self):
        return self._domain

    @property
    def graph(self):
        return self._graph

    def __call__(self, scenario):
        try:
            return self._map[scenario]
        except KeyError:
            raise InputError(
                f"scenario {scenario!r} outside the domain") from None

    @property
    def image(self):
        return frozenset(x for _, x in self._graph)

    @functools.cached_property
    def canonical_key(self):
        """The canonical key of the graph, which never changes: computed
        once per move."""
        return canonical(self._graph)

    def restricted(self, event):
        return RandomMove({w: x for w, x in self._graph if w in event})

    def __eq__(self, other):
        return isinstance(other, RandomMove) and self._graph == other._graph

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RandomMove({len(self._domain)} scenarios)"


def merge_random_moves(moves):
    """
    The union of a family of random moves, defined when the members agree
    wherever their domains overlap.  Returns None otherwise.
    """
    combined = {}
    for m in moves:
        for w, x in m.graph:
            if combined.get(w, x) != x:
                return None
            combined[w] = x
    return RandomMove(combined)


@dataclass(frozen=True)
class SDFReport:
    valid: bool
    violations: tuple = ()
    # the components' roots, which the constructor indexes
    roots: frozenset = field(default=None, repr=False, compare=False)

    def __bool__(self):
        return self.valid


class StochasticDecisionForest:
    """
    A decision forest with scenario projection and random moves.

    Construction validates the axioms and then indexes the forest once:
    each scenario's component nodes, each scenario's root, read off the
    roots validation found, and each outcome's scenario.  ``tree_of``,
    ``root_of`` and ``scenario_of_outcome`` answer from these maps; the
    forest, the projection and the scenarios are not to be changed
    afterwards.
    """

    def __init__(self, forest, scenarios, projection, random_moves):
        report = validate_sdf(forest, scenarios, projection, random_moves)
        if not report:
            raise StructureError(
                f"invalid SDF: {canonical_text(report.violations[0])}")
        self.forest = forest
        self.scenarios = tuple(scenarios)
        self.projection = dict(projection)
        self.random_moves = frozenset(random_moves)
        trees = {w: [] for w in self.scenarios}
        for x in forest.nodes:
            trees[self.projection[x]].append(x)
        self._tree = {w: frozenset(nodes) for w, nodes in trees.items()}
        roots = {self.projection[r]: r for r in report.roots}
        self._root = {w: roots[w] for w in self.scenarios}
        self._scenario_of = {o: w for w, root in self._root.items()
                             for o in root}

    def tree_of(self, scenario):
        """All nodes of the component indexed by the scenario."""
        try:
            return self._tree[scenario]
        except KeyError:
            raise InputError(f"unknown scenario: {scenario!r}") from None

    def root_of(self, scenario):
        try:
            return self._root[scenario]
        except KeyError:
            raise InputError(f"unknown scenario: {scenario!r}") from None

    def scenario_of_outcome(self, w):
        try:
            return self._scenario_of[w]
        except KeyError:
            raise InputError(f"unknown outcome: {w!r}") from None

    def __repr__(self):
        return (f"StochasticDecisionForest({len(self.scenarios)} scenarios, "
                f"{len(self.random_moves)} random moves)")


def validate_sdf(forest, scenarios, projection, random_moves):
    """
    Check the SDF axioms: the projection's fibres are exactly the connected
    components, and the random moves are sections of moves covering the
    move set.  The violations come sorted by ``sorted_violations``; where
    the projection is not total, the least node off it is the one listed.
    """
    scenarios = tuple(scenarios)
    violations = []
    if not isinstance(forest, DecisionForest):
        return SDFReport(False, (("forest", "not a valid decision forest"),))
    if len(set(scenarios)) != len(scenarios) or not scenarios:
        violations.append(("scenarios", "labels empty or not unique"))

    component_of = {x: max(forest.up(x), key=len) for x in forest.nodes}
    roots = frozenset(component_of.values())
    off = [x for x in forest.nodes
           if x not in projection or projection[x] not in scenarios]
    split = [] if off else [x for x in forest.nodes
                            if projection[x] != projection[component_of[x]]]
    if off:
        violations.append(("projection", ("not total / out of range",
                                          min(off, key=canonical))))
    violations.extend(("projection", ("fibre splits a component", x))
                      for x in split)
    if not off and not split:
        images = {projection[r] for r in roots}
        if len(images) != len(roots):
            violations.append(("projection", "two components share a scenario"))
        if images != set(scenarios):
            violations.append(("projection", "fibres do not exhaust the scenarios"))

    moves = forest.moves()
    covered = set()
    for m in random_moves:
        if not isinstance(m, RandomMove):
            violations.append(("random_moves", ("not a random move", m)))
            continue
        for w, x in m.graph:
            if w not in scenarios:
                violations.append(("random_moves", ("domain outside scenarios", w)))
            elif x not in moves:
                violations.append(("random_moves", ("value is not a move", w, x)))
            elif projection.get(x) != w:
                violations.append(("random_moves", ("not a section", w, x)))
            else:
                covered.add(x)
    uncovered = moves - covered
    for x in uncovered:
        violations.append(("covering", ("uncovered move", x)))
    return SDFReport(not violations, sorted_violations(violations, SDF_KINDS),
                     roots)


def xgeq(m1, m2):
    """The partial order on random moves: wider domain, node-wise above."""
    return m1.domain >= m2.domain and all(m1(w) >= m2(w) for w in m2.domain)


def is_order_consistent(random_moves):
    """One-point comparability must already imply the full order; the
    witness is the least failing (m1, m2, w) under ``canonical``."""
    for m1 in random_moves:
        for m2 in random_moves:
            for w in m1.domain & m2.domain:
                if m1(w) >= m2(w) and not xgeq(m1, m2):
                    return False, min(
                        ((a, b, x) for a in random_moves for b in random_moves
                         for x in a.domain & b.domain
                         if a(x) >= b(x) and not xgeq(a, b)), key=canonical)
    return True, None


@dataclass(frozen=True)
class SDFFlags:
    order_consistent: bool
    surely_nontrivial: bool
    maximal: bool | None   # None when not order consistent
    witnesses: dict = field(default_factory=dict)


def check_flags(sdf):
    """
    Order consistency, sure non-triviality, and maximality of the random
    move cover.  Maximality is decided by exhaustive search over mergings
    of compatible random moves into coarser order-consistent covers, and
    over proper sub-covers, when the cover is order consistent; else it
    is None.  A search over the budget raises ``BudgetExceeded``.
    """
    merge_cap = budget(MERGE_CAP)
    consistent, witness = is_order_consistent(sdf.random_moves)
    witnesses = {}
    if not consistent:
        witnesses["order_consistent"] = witness

    moves = sdf.forest.moves()
    nontrivial = all(r in moves for r in sdf.forest.roots())
    if not nontrivial:
        witnesses["surely_nontrivial"] = next(
            r for r in sdf.forest.roots() if r not in moves)

    maximal = None
    if consistent:
        maximal, merge_witness = _check_maximal(sdf, merge_cap)
        if merge_witness is not None:
            witnesses["maximal"] = merge_witness
    return SDFFlags(consistent, nontrivial, maximal, witnesses)


def _check_maximal(sdf, cap):
    members = sorted(sdf.random_moves, key=canonical)
    moves = sdf.forest.moves()

    # a proper sub-cover is itself a coarser valid cover
    for drop in members:
        remaining = [m for m in members if m != drop]
        covered = {x for m in remaining for x in m.image}
        if covered == moves:
            return False, ("redundant member", drop)

    count = 0
    for partition in partitions_of(members):
        count += 1
        if count > cap:
            raise BudgetExceeded(f"more than {cap} candidate mergings")
        if all(len(group) == 1 for group in partition):
            continue
        merged = []
        for group in partition:
            candidate = merge_random_moves(group)
            if candidate is None:
                break
            merged.append(candidate)
        else:
            if is_order_consistent(merged)[0]:
                return False, ("mergeable groups", tuple(partition))
    return True, None


def random_terminal_nodes(sdf):
    """One singleton-domain section per terminal node."""
    return frozenset(
        RandomMove({sdf.projection[x]: x}) for x in sdf.forest.terminals())


def induced_tree(sdf):
    """
    The rooted decision tree of random moves and random terminal nodes,
    for order-consistent SDFs possessing the root random move.

    Returns the tree as a Poset whose elements are the sections.  The
    evaluation map onto the forest is asserted to be an order isomorphism.
    """
    consistent, witness = is_order_consistent(sdf.random_moves)
    if not consistent:
        m1, m2, w = witness
        raise NotOrderConsistent(
            f"witness pair: {canonical_text((m1.graph, m2.graph, w))}")
    root_section = RandomMove({w: sdf.root_of(w) for w in sdf.scenarios})
    if root_section not in sdf.random_moves:
        raise StructureError("the root section is not a random move")

    terminals = random_terminal_nodes(sdf)
    elements = sdf.random_moves | terminals

    def tgeq(a, b):
        if a in sdf.random_moves and b in sdf.random_moves:
            return xgeq(a, b)
        if a in sdf.random_moves and b in terminals:
            ((w, x),) = b.graph
            return w in a.domain and x <= a(w)
        if a in terminals and b in terminals:
            return a == b
        return False

    leq = [(b, a) for a in elements for b in elements if tgeq(a, b)]
    tree = Poset(elements, leq)

    roots, components = roots_and_components(tree)
    if len(components) != 1:
        raise StructureError("induced structure is not a single tree")

    # evaluation map bijectivity and order reflection
    pairs = [(y, w) for y in elements for w in y.domain]
    values = [y(w) for (y, w) in pairs]
    assert len(set(values)) == len(values) == len(sdf.forest.nodes)
    for (y1, w1) in pairs:
        for (y2, w2) in pairs:
            lhs = tgeq(y1, y2) and w1 == w2
            assert lhs == (y1(w1) >= y2(w2))
    return tree


def check_recall(sdf, info, agent_moves):
    """
    True iff the per-move partitions never lose information along the
    random-move order: any event measurable earlier stays measurable,
    restricted to the later domain.
    """
    agent_moves = list(agent_moves)
    for m in agent_moves:
        _require_partition(info.get(m), m)
    for m1 in agent_moves:
        for m2 in agent_moves:
            if m1 == m2 or not xgeq(m1, m2):
                continue
            for block in info[m1]:
                cut = block & m2.domain
                if cut and not _is_block_union(cut, info[m2]):
                    return False
    return True


def _require_partition(partition, m):
    if partition is None:
        raise InputError(f"no partition supplied for {m!r}")
    blocks = [frozenset(b) for b in partition]
    if any(not b for b in blocks):
        raise InputError("empty partition block")
    union = frozenset().union(*blocks) if blocks else frozenset()
    if union != m.domain or sum(len(b) for b in blocks) != len(union):
        raise InputError(f"blocks do not partition the domain of {m!r}")


def _is_block_union(event, partition):
    rest = set(event)
    for block in partition:
        if block <= rest:
            rest -= block
    return not rest


def enumerate_recall_structures(sdf, agent_moves):
    """All families of per-move partitions admitting recall, exhaustively."""
    cap = budget(RECALL_CAP)
    agent_moves = sorted(agent_moves, key=canonical)
    per_move = [
        [tuple(p) for p in partitions_of(sorted(m.domain, key=repr))]
        for m in agent_moves
    ]
    total = 1
    for options in per_move:
        total *= len(options)
    if total > cap:
        raise BudgetExceeded(f"{total} candidate structures exceed the budget")
    result = []
    for combo in itertools.product(*per_move):
        info = {m: frozenset(frozenset(b) for b in p)
                for m, p in zip(agent_moves, combo)}
        if check_recall(sdf, info, agent_moves):
            result.append(info)
    return result


def preimage(m, node_set):
    """The event on which the section takes a value in the node set."""
    return frozenset(w for w in m.domain if m(w) in node_set)


def is_non_redundant(sdf, c):
    """
    The choice must be void in every scenario where it is never on offer.
    Inside a tree, a nonempty set of outcomes has an immediate predecessor
    unless it is the whole tree, so this says that c contains no root.
    """
    c = frozenset(c)
    return not any(sdf.root_of(w) <= c for w in sdf.scenarios)


def is_complete(sdf, c, agent_moves):
    """Availability of the choice is all-or-nothing on each random move."""
    return _all_or_nothing(_hits(immediate_predecessors(sdf.forest, c),
                                 _moves_at(agent_moves)))


def _moves_at(agent_moves):
    """Each node's agent moves, one entry per scenario the move takes it."""
    at = {}
    for m in agent_moves:
        for _, x in m.graph:
            at.setdefault(x, []).append(m)
    return at


def _hits(p, moves_at):
    """Per agent move with a node in p, the size of its preimage of p,
    counted off p through ``moves_at`` (``_moves_at``)."""
    hits = {}
    for x in p:
        for m in moves_at.get(x, ()):
            hits[m] = hits.get(m, 0) + 1
    return hits


def _all_or_nothing(hits):
    """Whether each counted preimage is its move's whole domain."""
    return all(k == len(m.domain) for m, k in hits.items())


def is_available_at(sdf, c, m):
    return preimage(m, immediate_predecessors(sdf.forest, c)) == m.domain


def validate_reference_choices(sdf, refchoices, agent_moves):
    """Each reference choice must be non-redundant, complete, available;
    completeness and availability read one walk to its predecessors, whose
    preimages are counted off the nodes' agent moves, in time linear in
    the predecessor set.  Of the failing (move, choice) pairs, the least
    one is reported."""
    failed = []
    moves_at = _moves_at(agent_moves)
    for m in agent_moves:
        for c in refchoices.get(m, ()):
            if not is_union_of_nodes(sdf.forest, c):
                why = ("reference choice not a union of nodes: "
                       + canonical_text(frozenset(c)))
            elif not is_non_redundant(sdf, c):
                why = f"redundant reference choice at {m!r}"
            elif not _all_or_nothing(hits := _hits(
                    immediate_predecessors(sdf.forest, c), moves_at)):
                why = f"incomplete reference choice at {m!r}"
            elif hits.get(m, 0) != len(m.domain):
                why = f"reference choice unavailable at {m!r}"
            else:
                continue
            failed.append((m, c, why))
    if failed:
        raise ChoiceError(min(failed, key=canonical)[2])
