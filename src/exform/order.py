"""
Finite partially ordered sets.

Elements are opaque hashable labels; the only ordering is the declared
relation.  The module provides the bound calculus, the forest predicates
used to classify well-posedness, and the Dedekind-MacNeille completion.

Convention: in a forest the roots are the MAXIMAL elements, so a chain of
play runs downward from a root to a minimal (terminal) element.
"""

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import combinations
from operator import and_

from ._util import budget
from .errors import BudgetExceeded, InputError, StructureError

# default cap of the DM completion's cuts times the poset's elements: the
# mask operations that build and check the cuts, and the size of the
# family as sets of labels; EXFORM_BUDGET overrides it
DM_CAP = 2 ** 22


class Poset:
    """An explicit finite poset: a label set plus its full order relation."""

    def __init__(self, elements, leq):
        self._elements = frozenset(elements)
        pairs = frozenset((a, b) for (a, b) in leq)
        up = {x: set() for x in self._elements}
        down = {x: set() for x in self._elements}
        for (a, b) in pairs:
            if a not in self._elements or b not in self._elements:
                raise InputError(f"relation mentions unknown label: {(a, b)!r}")
            up[a].add(b)
            down[b].add(a)
        # No silent reflexive-transitive closure: a malformed relation is an error.
        for x in self._elements:
            if x not in up[x]:
                raise InputError(f"relation not reflexive at {x!r}")
        for (a, b) in pairs:
            if a != b and a in up[b]:
                raise InputError(f"relation not antisymmetric on {(a, b)!r}")
        for (a, b) in pairs:
            if not up[b] <= up[a]:
                c = next(c for c in self._elements
                         if c in up[b] and c not in up[a])
                raise InputError(f"relation not transitive via {(a, b, c)!r}")
        self._up = {x: frozenset(s) for x, s in up.items()}
        self._down = {x: frozenset(s) for x, s in down.items()}
        # by antisymmetry no two elements share an up-set or a down-set
        self._of_up = {s: x for x, s in self._up.items()}
        self._of_down = {s: x for x, s in self._down.items()}

    @property
    def elements(self):
        return self._elements

    def leq(self, a, b):
        if a not in self._elements or b not in self._elements:
            raise InputError(f"unknown label in comparison: {(a, b)!r}")
        return b in self._up[a]

    def up(self, x):
        """The principal up-set of x (including x)."""
        if x not in self._elements:
            raise InputError(f"unknown label: {x!r}")
        return self._up[x]

    def down(self, x):
        """The principal down-set of x (including x)."""
        if x not in self._elements:
            raise InputError(f"unknown label: {x!r}")
        return self._down[x]

    def supremum_of(self, subset):
        """The least upper bound, or None: m is it iff the upper bounds
        are the up-set of m."""
        return self._of_up.get(bounds(self, subset)[0])

    def infimum_of(self, subset):
        return self._of_down.get(bounds(self, subset)[1])

    def __eq__(self, other):
        return isinstance(other, Poset) and self._up == other._up

    def __hash__(self):
        return hash(self._elements)

    def __repr__(self):
        return f"Poset({len(self._elements)} elements)"


def bounds(poset, subset):
    """Upper and lower bound sets of a subset; everything for the empty set."""
    subset = frozenset(subset)
    unknown = subset - poset.elements
    if unknown:
        raise InputError(f"unknown labels: {sorted(map(repr, unknown))}")
    upper = poset.elements.intersection(*map(poset.up, subset))
    lower = poset.elements.intersection(*map(poset.down, subset))
    return upper, lower


def is_forest(poset):
    """True iff every principal up-set is totally ordered; in a finite
    poset, iff every strict up-set is empty or principal."""
    return all(up == {x} or up - {x} in poset._of_up
               for x, up in poset._up.items())


def _require_rooted_forest(poset):
    # a finite nonempty chain has a maximum, so every forest is rooted
    if not is_forest(poset):
        raise StructureError("not a forest: some principal up-set is not a chain")


def roots_and_components(poset):
    """
    The roots and the unique partition of a rooted forest into trees.

    Each component is the down-set of its root; the roots are exactly the
    maximal elements.
    """
    _require_rooted_forest(poset)
    roots = frozenset(x for x in poset.elements if poset.up(x) == {x})
    return roots, frozenset(poset.down(r) for r in roots)


def order_predicates(poset):
    """
    The four order-theoretic forest predicates of a finite rooted forest.

    weakly_up_discrete: for every non-terminal x, every maximal chain of the
        strict down-set of x has a maximum.
    up_discrete: every nonempty chain has a maximum.
    coherent: every history without a minimum admits a continuation chain
        with a maximum (vacuous when all histories have minima).
    regular: for every non-maximal x, the strict up-set of x has an infimum.

    Every nonempty chain of a finite poset has a maximum and a minimum, so
    all four hold: every history has a minimum, and the strict up-set of x
    is the up-set of x's parent, its own infimum.  Only the rooted-forest
    check can fail.
    """
    _require_rooted_forest(poset)
    return {
        "weakly_up_discrete": True,
        "up_discrete": True,
        "coherent": True,
        "regular": True,
    }


class Cuts:
    """
    A family of sets ordered by inclusion: no relation is stored.  The
    completion keeps its cuts as int masks over its poset's labels, bit i
    for labels[i], and ``elements``, the cuts as frozensets of labels, is
    decoded only when it is read.  A family given by its sets keeps no
    masks.
    """

    def __init__(self, elements):
        self.elements = frozenset(elements)
        self.labels = self.masks = None

    @classmethod
    def _of_masks(cls, labels, masks):
        cuts = cls.__new__(cls)
        cuts.labels, cuts.masks = labels, frozenset(masks)
        return cuts

    @cached_property
    def elements(self):
        return frozenset(
            frozenset(x for i, x in enumerate(self.labels) if cut >> i & 1)
            for cut in self.masks)

    def __len__(self):
        return len(self.elements if self.masks is None else self.masks)

    def leq(self, a, b):
        return a <= b

    def as_poset(self):
        return Poset(self.elements, [(a, b) for a in self.elements
                                     for b in self.elements if a <= b])


def _masks(labels, sets):
    bit = {x: 1 << i for i, x in enumerate(labels)}
    return [sum(bit[x] for x in s) for s in sets]


def dm_completion(poset):
    """
    The Dedekind-MacNeille completion: all subsets A with A^{ul} = A,
    ordered by inclusion, together with the embedding x -> down-set of x.

    These cuts are exactly the intersections of principal down-sets, the
    whole poset being the empty one, so they are closed from {P} by
    meeting every cut found so far with each down-set in turn.  They are
    returned as int masks over the poset's labels.
    """
    cap = budget(DM_CAP)
    labels = tuple(poset.elements)
    closed = {(1 << len(labels)) - 1}
    for down in _masks(labels, map(poset.down, labels)):
        closed |= {cut & down for cut in closed}
        if len(closed) * len(labels) > cap:
            raise BudgetExceeded(f"more than {cap // len(labels)} cuts of "
                                 f"a {len(labels)}-element poset")
    return Cuts._of_masks(labels, closed), \
        {x: poset.down(x) for x in poset.elements}


def _are_the_cuts(poset, family, phi):
    """True iff phi is x -> down-set of x and the family is the poset's
    cuts: all of them iff it holds P and is closed under meets with each
    principal down-set, and only cuts iff each member A is A^{ul}, the
    meet of the principal down-sets that contain A."""
    if any(phi.get(x) != poset.down(x) for x in poset.elements):
        return False
    labels = tuple(poset.elements)
    full, *downs = _masks(labels, [labels, *map(poset.down, labels)])
    if family.labels == labels:
        masks = family.masks
    elif all(a <= poset.elements for a in family.elements):
        masks = frozenset(_masks(labels, family.elements))
    else:
        return False
    return full in masks and all(
        masks.issuperset([cut & down for down in downs])
        and reduce(and_, [d for d in downs if cut & d == cut], full) == cut
        for cut in masks)


def is_complete_lattice(poset):
    """
    True iff the finite poset is a complete lattice.

    A finite poset with a top in which every pair has a meet is one: the
    meet of any nonempty subset follows pair by pair, the empty meet is
    the top, and the join of a subset is the meet of its upper bounds.
    The top exists iff the whole poset is a principal down-set, and a
    meet of a and b iff their down-sets meet in a principal one.
    """
    if poset.elements not in poset._of_down:
        return False
    return all((a & b) in poset._of_down
               for a, b in combinations(poset._down.values(), 2))


@dataclass(frozen=True)
class CompletionReport:
    dense: bool
    is_lattice_complete: bool
    embedding: dict
    detail: str = ""

    def __bool__(self):
        return self.dense


def check_dense_completion(poset, lattice, phi):
    """
    Decide whether phi: poset -> lattice is a dense completion: an order
    embedding into a complete lattice whose image is join- and meet-dense.

    The completion is unique, so Cuts with phi: x -> down-set of x are one
    iff they are the poset's cuts, which hold every down-set; that is
    decided on the cuts' masks, and the definitions decide anything else.
    """
    if isinstance(lattice, Cuts) and _are_the_cuts(poset, lattice, phi):
        return CompletionReport(True, True, dict(phi))
    for x in poset.elements:
        if x not in phi or phi[x] not in lattice.elements:
            raise InputError(f"map not total / out of range at {x!r}")
    if isinstance(lattice, Cuts):
        lattice = lattice.as_poset()
    complete = is_complete_lattice(lattice)
    fail = partial(CompletionReport, False, complete, dict(phi))
    for a in poset.elements:
        for b in poset.elements:
            if poset.leq(a, b) != lattice.leq(phi[a], phi[b]):
                return fail(f"not an order embedding at {(a, b)!r}")
    if not complete:
        return fail("codomain is not a complete lattice")
    image = [phi[x] for x in poset.elements]
    for a in lattice.elements:
        below = [v for v in image if lattice.leq(v, a)]
        if lattice.supremum_of(below) != a:
            return fail(f"image not join-dense at {a!r}")
        above = [v for v in image if lattice.leq(a, v)]
        if lattice.infimum_of(above) != a:
            return fail(f"image not meet-dense at {a!r}")
    return CompletionReport(True, True, dict(phi))
