"""
Decision forests in the refined-partitions representation.

A forest is a family of nonempty outcome subsets ordered by reverse
inclusion.  Construction validates the family and indexes its graph view
once: the moves and each node's up-set, parent and children.
"""

from dataclasses import dataclass

from ._util import canonical, canonical_text
from .errors import ChoiceError, InputError, NotAHistory, StructureError
from .order import Poset


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failure: str | None = None   # "rooted_forest" | "duality" | None
    witness: object = None

    def __bool__(self):
        return self.valid


class DecisionForest:
    """A finite outcome set together with a valid family of nodes."""

    def __init__(self, outcomes, nodes):
        report = validate_decision_forest(outcomes, nodes)
        if not report:
            raise StructureError(
                f"{report.failure}: {canonical_text(report.witness)}")
        self._outcomes = frozenset(outcomes)
        self._nodes = frozenset(frozenset(x) for x in nodes)
        # duality makes every singleton a node, so the moves are the rest
        self._moves = frozenset(x for x in self._nodes if len(x) > 1)
        # nodes holding an outcome form a chain, so taken largest first,
        # a node's parent is the last node seen that holds its outcomes
        self._parent, self._up, lowest = {}, {}, {}
        self._children = dict.fromkeys(self._nodes, frozenset())
        for x in sorted(self._nodes, key=len, reverse=True):
            parent = self._parent[x] = lowest.get(next(iter(x)))
            self._up[x] = self._up.get(parent, frozenset()) | {x}
            if parent is not None:
                self._children[parent] |= {x}
            lowest.update(dict.fromkeys(x, x))

    @property
    def outcomes(self):
        return self._outcomes

    @property
    def nodes(self):
        return self._nodes

    def _lookup(self, index, x):
        if x not in index:
            raise InputError(f"not a node: {sorted(map(repr, x))}")
        return index[x]

    def up(self, x):
        """All nodes weakly preceding the node x in play: its supersets."""
        return self._lookup(self._up, x)

    def down(self, x):
        """All nodes weakly following x in play, i.e. subsets of x."""
        return frozenset(y for y in self._nodes if y <= x)

    def down_sets(self):
        """Every move's down-set, from one pass over the up-sets: each node
        is listed under every move above it."""
        below = {x: [] for x in self._moves}
        for y in self._nodes:
            for x in self._up[y]:
                if len(x) > 1:
                    below[x].append(y)
        return {x: frozenset(ys) for x, ys in below.items()}

    def chain_of(self, w):
        """The decision path of an outcome: all nodes containing it."""
        if w not in self._outcomes:
            raise InputError(f"unknown outcome: {w!r}")
        return self._up[frozenset({w})]

    def maximal_chains(self):
        """The decision paths: in a rooted forest every maximal chain is the
        decision path of an outcome."""
        return {self.chain_of(w) for w in self._outcomes}

    def moves(self):
        return self._moves

    def terminals(self):
        return self._nodes - self._moves

    def roots(self):
        return frozenset(x for x in self._nodes if self._parent[x] is None)

    def parent(self, x):
        """The immediate predecessor of a non-root node."""
        return self._lookup(self._parent, x)

    def children(self, x):
        return self._lookup(self._children, x)

    def as_poset(self):
        """The node family as a Poset; roots are the maximal elements."""
        return Poset(self._nodes,
                     [(a, b) for a in self._nodes for b in self._up[a]])

    def __eq__(self, other):
        return (isinstance(other, DecisionForest)
                and self._outcomes == other._outcomes
                and self._nodes == other._nodes)

    def __hash__(self):
        return hash((self._outcomes, self._nodes))

    def __repr__(self):
        return f"DecisionForest({len(self._outcomes)} outcomes, {len(self._nodes)} nodes)"


def validate_decision_forest(outcomes, nodes):
    """
    Check the two structural invariants: the nodes form a rooted forest
    under reverse inclusion, and outcomes correspond dually to maximal
    chains (w maps to the set of nodes containing w).
    """
    outcomes = frozenset(outcomes)
    nodes = frozenset(frozenset(x) for x in nodes)
    if not outcomes:
        return ValidationReport(False, "duality", "empty outcome set")
    if all(x and x <= outcomes for x in nodes) \
            and _laminar_with_singletons(outcomes, nodes):
        return ValidationReport(True)
    # the scans below run in canonical order and find the least witness
    ordered = sorted(nodes, key=canonical)
    for x in ordered:
        if not x:
            return ValidationReport(False, "rooted_forest", "empty node")
        if not x <= outcomes:
            return ValidationReport(False, "rooted_forest", ("alien outcomes", x))
    up = {}
    for x in ordered:
        above = [y for y in ordered if y >= x]
        for i, a in enumerate(above):
            for b in above[i + 1:]:
                if not (a <= b or b <= a):
                    return ValidationReport(False, "rooted_forest",
                                            ("incomparable ancestors", x, a, b))
        # finite chains always carry a maximum, so rootedness follows
        up[x] = frozenset(above)
    outcomes = sorted(outcomes, key=canonical)
    chains = {}
    for w in outcomes:
        chain = frozenset(x for x in nodes if w in x)
        if not chain:
            return ValidationReport(False, "duality", ("outcome in no node", w))
        chains[w] = chain
    # in a rooted forest the maximal chains are the up-sets of minimal
    # nodes, the nodes in no other node's up-set
    above_others = {a for x in nodes for a in up[x] if a != x}
    maximal = {up[x] for x in nodes if x not in above_others}
    if set(chains.values()) != maximal:
        missing = maximal - set(chains.values())
        extra = [w for w, c in chains.items() if c not in maximal]
        return ValidationReport(False, "duality", (
            "chain mismatch", sorted(missing, key=canonical), extra))
    if len(set(chains.values())) != len(outcomes):
        collide = [w for w in outcomes
                   if sum(1 for v in outcomes if chains[v] == chains[w]) > 1]
        return ValidationReport(False, "duality", ("chains collide", collide))
    return ValidationReport(True)


def _laminar_with_singletons(outcomes, nodes):
    """
    One largest-first pass, at a cost of the sum of the node sizes: True
    when the outcomes of each node share one lowest node seen so far,
    which then contains the node, and each outcome ends at its own
    singleton node.  Every earlier node meeting a node then contains it,
    so the ancestors of each node form a chain, and the maximal chains are
    the decision paths of the outcomes, one per outcome: the family is a
    valid forest.
    """
    lowest = {}
    for x in sorted(nodes, key=len, reverse=True):
        if len({lowest.get(w) for w in x}) != 1:
            return False
        lowest.update(dict.fromkeys(x, x))
    return all(len(lowest.get(w, ())) == 1 for w in outcomes)


def is_union_of_nodes(forest, c):
    """
    True iff c is a (nonempty) union of members of the forest.  Duality
    gives every outcome its own decision path, so every singleton of a
    valid forest is a node and any nonempty set of outcomes qualifies.
    """
    c = frozenset(c)
    return bool(c) and c <= forest.outcomes


def immediate_predecessors(forest, c):
    """
    The moves at which c is on offer: for each outcome of c, its first
    ancestor not inside c.  A node inside c lies on the walk up from each
    of its outcomes, so this is also the first ancestor outside c of every
    node inside c.  c must be a nonempty union of nodes; nothing is
    memoised.
    """
    c = frozenset(c)
    if not is_union_of_nodes(forest, c):
        raise ChoiceError(f"not a nonempty union of nodes: {sorted(map(repr, c))}")
    parent, result = forest._parent, set()
    for w in c:
        x = parent[frozenset({w})]
        while x is not None and x <= c:
            x = parent[x]
        if x is not None:
            result.add(x)
    return frozenset(result)


def histories(forest):
    """
    All histories: nonempty, non-maximal, upward closed chains.  In a
    finite forest these are exactly the principal up-sets of the moves.
    """
    return {forest.up(x) for x in forest.moves()}


def is_history(forest, h):
    """
    True iff h is a nonempty, non-maximal, upward closed chain.  In a
    finite forest such a chain is the up-set of its smallest member, and
    that member is a move.
    """
    h = frozenset(frozenset(x) for x in h)
    if not h or not h <= forest.nodes:
        return False
    x = min(h, key=len)
    return x in forest.moves() and forest.up(x) == h


def closure(forest, h):
    """
    The history together with its infimum.  A history is the up-set of
    its minimum, which is that infimum, so every history is closed.
    """
    h = frozenset(frozenset(x) for x in h)
    if not is_history(forest, h):
        raise NotAHistory(f"not a history: {sorted(map(sorted, h))}")
    return h
