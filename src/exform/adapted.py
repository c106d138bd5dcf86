"""
Adapted choice: an agent's choices cut into one slice per scenario's tree
(``SliceTable``), each slice's availability and measurability bits, and
the one engine that lists the adapted unions of one slice per scenario
(``adapted_unions``) for Axiom 6, the choice completion and action-path
forms.  Every join of bits keeps the one agreement rule, ``_fold``.
"""

import functools
import itertools

from ._util import budget, canonical, canonical_text
from .errors import BudgetExceeded, ChoiceError
from .forest import immediate_predecessors, is_union_of_nodes
from .sdf import _require_partition

# default cap of the adapted-choice search (slices tried and unions joined)
# per information set of Axiom 6 or the choice completion, and per (agent,
# time, history block) of an action-path form; EXFORM_BUDGET overrides it
ADAPTED_CAP = 10 ** 5


def _fold(known, value, entries):
    """The bits (known, value) with each entry (mask, bits) joined in
    turn, or None once an entry is False (a whole root's) or gives a known
    bit another value: the agreement rule of slices and of the join's
    groups."""
    for entry in entries:
        if not entry or (value ^ entry[1]) & known & entry[0]:
            return None
        known, value = known | entry[0], value | entry[1]
    return known, value


def check_adapted(sdf, c, info, refchoices, agent_moves):
    """Adaptedness of a choice: non-redundant, complete on the agent's
    moves, and the joint availability with every reference choice is
    measurable at every move the choice is available at."""
    if not is_union_of_nodes(sdf.forest, c):
        raise ChoiceError("not a nonempty union of nodes: "
                          + canonical_text(frozenset(c)))
    table = SliceTable(sdf, agent_moves, info, refchoices)
    return not table.cut([frozenset(c)], join=True)


class _Slice:
    """A distinct slice of one tree: its outcomes, its mask of outcome
    bits, its predecessor set, the choices cut to it when it is nonempty,
    and its entry once read (False for a whole root)."""

    __slots__ = ("outcomes", "mask", "preds", "members", "entry")

    def __init__(self, outcomes, mask, preds):
        self.outcomes, self.mask, self.preds = outcomes, mask, preds
        self.members, self.entry = [], None


class SliceTable:
    """
    An agent's choices, each cut once by the root of every scenario's
    tree.  Every node of a tree lies inside its root, so x <= c iff
    x <= c & root: a choice's predecessor set is the union of its slices'
    sets, and each distinct (scenario, slice) is walked up the forest once.
    The table gives each outcome one bit, root by root in scenario order,
    and a choice is cut as its mask of outcome bits & each root's mask;
    ``trees`` maps each slice mask cut or read in a tree to its ``_Slice``,
    whose outcomes are cut as a set once, when the record is made;
    ``offering`` maps each move to the records it precedes.  ``preds``
    maps each cut choice to its predecessor set, equal sets kept once, and
    ``choice_of`` maps its mask to it.  Records, bits and masks are read
    by this module alone.

    Adaptedness is read one slice at a time: a move m defined at w offers
    slice s iff m(w) is an immediate predecessor of s, and jointly with a
    reference choice r iff m(w) precedes s & r.  A slice's entry reads
    these as two ints over the agent's variables: one availability
    variable per move, and where the move offers s, one measurability
    variable per (move, reference choice, block of the move's partition);
    ``mask`` holds the variables the slice sets and ``value`` their bits.
    A choice is adapted iff no slice is a whole root and, joined scenario
    by scenario, its entries agree (``_fold``): then availability is
    constant on each move's domain, and joint availability on each block.
    ``cut`` reads a batch of choices per information component, so its
    cost follows their distinct slices.  The variables are laid out on the
    first entry read, so a malformed partition is reported by the check
    that first reads one.  The table refers to no form, so it is freed
    when the call that built it returns.
    """

    def __init__(self, sdf, agent_moves, info, refchoices, choices=()):
        self.forest = sdf.forest
        self.scenarios = sdf.scenarios
        self.position = {w: k for k, w in enumerate(sdf.scenarios)}
        self.roots = [sdf.root_of(w) for w in sdf.scenarios]
        self.bit = {o: 1 << n for n, o in enumerate(
            itertools.chain.from_iterable(self.roots))}
        ends = itertools.accumulate(map(len, self.roots), initial=0)
        self.root_masks = [((1 << len(root)) - 1) << end
                           for root, end in zip(self.roots, ends)]
        self.trees = [{} for _ in self.roots]
        self.offering = {}
        self.preds, self.choice_of = {}, {}
        self.shared = {}   # equal predecessor sets are kept once
        self.agent = agent_moves, info, refchoices
        self.cut(choices)

    def mask(self, outcomes):
        """The outcomes' mask; an outcome off the forest has no bit."""
        return sum(map(self.bit.get, outcomes, itertools.repeat(0)))

    def _record(self, k, s, outcomes):
        """The record of slice mask s of tree k, cut from the outcomes."""
        got = self.trees[k].get(s)
        if got is None:
            cut = outcomes & self.roots[k]
            p = immediate_predecessors(self.forest, cut) \
                if s and s != self.root_masks[k] else frozenset()
            got = self.trees[k][s] = _Slice(cut, s,
                                            self.shared.setdefault(p, p))
            for x in got.preds:
                self.offering.setdefault(x, []).append(got)
        return got

    @functools.cached_property
    def components(self):
        """(mask, [(k, tree, root mask)]) per set of trees that share a
        measurability variable, as ``_components`` splits a search whose
        every scenario has one option setting all of the tree's variables."""
        found = _components([[(0, (sum({var for _, _, joint in self.at[w]
                                        for var, _ in joint}), 0))]
                             for w in self.scenarios], 0)
        return [(sum(self.root_masks[k] for k in ks), [
            (k, self.trees[k], self.root_masks[k]) for k in ks]) for ks in found]

    def cut(self, choices, join=False):
        """Record each choice's slices, predecessor set and memberships, in
        order; with ``join``, return the choices not adapted.  Each mask of
        the choices on a component (on a tree without ``join``) is cut once
        into a piece: its slices' predecessor sets and folded entries, cut
        to the availability bits that components share."""
        choices = list(choices)
        if not choices:   # lay out no variables
            return []
        wholes = list(map(self.mask, choices))
        self.choice_of.update(zip(wholes, choices))
        free = join and self.start(self.scenarios)
        pieces, kept = [[] for _ in choices], {}   # equal pieces kept once
        for group, ks in self.components if join else [
                (root, [(k, tree, root)]) for k, tree, root in zip(
                    itertools.count(), self.trees, self.root_masks)]:
            seen = {}   # a mask on the group -> (its piece, its positions)
            into = {}   # a nonempty slice's record -> its masks' positions
            for n, whole in enumerate(wholes):
                key = whole & group
                got = seen.get(key)
                if got is None:
                    records = [(k, tree.get(key & root) or self._record(
                        k, key & root, choices[n])) for k, tree, root in ks]
                    bits = join and _fold(0, 0, [r.entry or self._entry(k, r)
                                                 for k, r in records])
                    piece = (frozenset().union(*[r.preds for _, r in records]),
                             bits and (bits[0] & free, bits[1] & free))
                    got = seen[key] = kept.setdefault(piece, piece), []
                    for _, r in records:
                        if r.mask:
                            into.setdefault(r, []).append(got[1])
                got[1].append(n)
                pieces[n].append(got[0])
            for r, lists in into.items():
                r.members.extend(map(choices.__getitem__,
                                     sorted(itertools.chain(*lists))))
        failed, joined = [], {}
        for c, mine in zip(choices, pieces):
            key = tuple(map(id, mine))
            if key not in joined:
                p = frozenset().union(*[preds for preds, _ in mine])
                joined[key] = (self.shared.setdefault(p, p),
                               not join or _fold(0, 0, [b for _, b in mine]))
            self.preds[c], adapted = joined[key]
            if not adapted:
                failed.append(c)
        return failed

    def distinct(self, w):
        """The cut choices' distinct nonempty slices on w, sorted."""
        tree = self.trees[self.position[w]]
        return sorted((r.outcomes for r in tree.values() if r.members),
                      key=sorted)

    def slices_at(self, x):
        """The distinct slices on x's tree of the choices offered at x: x
        precedes c iff it precedes c's slice there."""
        return [r.outcomes for r in self.offering.get(x, ())]

    def groups_at(self, x):
        """The choices offered at x, grouped by slice as in ``slices_at``."""
        return tuple(tuple(r.members) for r in self.offering.get(x, ()))

    def options(self, w, x, void):
        """(mask, entry) of each distinct slice offered at x, and of the
        empty slice when ``void``; a whole root's entry is False."""
        k = self.position[w]
        records = [*self.offering.get(x, ())]
        if void:
            records.append(self._record(k, 0, frozenset()))
        return [(r.mask, r.entry or self._entry(k, r)) for r in records]

    def offered_option(self, w, outcomes, nodes):
        """(mask, entry) of the given slice of w's tree, recorded once, if
        it is offered at each of the nodes; else None."""
        k = self.position[w]
        record = self._record(k, self.mask(outcomes), outcomes)
        if nodes <= record.preds:
            return record.mask, record.entry or self._entry(k, record)

    def overlapping(self):
        """(k, members, members2) for each pair of distinct slices of tree
        k that overlap and share a nonempty predecessor set; two choices
        with one predecessor set have slices with one in every tree."""
        for k, tree in enumerate(self.trees):
            for r, r2 in itertools.combinations(tree.values(), 2):
                if r.preds and r.preds == r2.preds and r.mask & r2.mask:
                    yield k, r.members, r2.members

    def offered(self):
        """Each move's choices offered there: the members of the slices the
        move precedes.  Moves that precede the same slices share the set."""
        at, shared = {}, {}
        for x, records in self.offering.items():
            key = tuple(id(r) for r in records if r.members)
            if key:
                if key not in shared:
                    shared[key] = frozenset(itertools.chain(*[
                        r.members for r in records]))
                at[x] = shared[key]
        return at

    @functools.cached_property
    def at(self):
        """Per scenario, each agent move defined there as (its availability
        bit, its node, [(measurability bit, reference choice)])."""
        agent_moves, info, refchoices = self.agent
        at = {w: [] for w in self.scenarios}
        count = itertools.count()
        for m in agent_moves:
            _require_partition(info.get(m), m)
            available = 1 << next(count)
            refs = [frozenset(r) for r in refchoices.get(m, ())]
            for block in info[m]:
                joint = [(1 << next(count), r) for r in refs]
                for w in block:
                    at[w].append((available, m(w), joint))
        return at

    def _entry(self, k, record):
        """(mask, value) of a slice record of tree k, False for a whole
        root; read once, off the walk of the slice's predecessors."""
        if record.entry is None:
            at = self.at[self.scenarios[k]]   # laid out, partitions checked
            s, offered = record.outcomes, record.preds
            mask = value = 0
            for available, x, joint in at:
                mask |= available
                if x in offered:
                    value |= available
                    for var, r in joint:
                        mask |= var
                        both = s & r
                        if both and x in (offered if both == s else
                                          immediate_predecessors(
                                              self.forest, both)):
                            value |= var
            record.entry = record.mask != self.root_masks[k] and (mask, value)
        return record.entry

    def start(self, scenarios):
        """The availability bits of the moves defined on the scenarios:
        the bits the empty slice fixes there, each to 0."""
        return sum({bit for w in scenarios for bit, _, _ in self.at[w]})

    def missing(self, whole):
        """None where ``whole``, a union of slices the table holds, is a
        cut choice's mask; else that union's outcomes, read off its slices'
        records."""
        if whole in self.choice_of:
            return None
        return frozenset().union(*[
            tree[whole & root].outcomes
            for tree, root in zip(self.trees, self.root_masks) if whole & root])


def slice_table(form, i, choices):
    """The agent's slice table, holding the given choices."""
    return SliceTable(form.sdf, form.agent_moves[i], form.info[i],
                      form.refchoices[i], choices)


# --- the adapted unions of one slice per scenario ---------------------------

def _search_plan(form, i, members, table, void):
    """
    The information set's scenarios, visited block by block of its first
    move so that each measurability bit is tested soon after it is fixed,
    and each one's options: the slices the table holds at the set's move
    there, and the empty slice when ``void``.  When every choice is
    adapted, hence complete, a choice offered at that move is offered at
    every move of the set, so it is on the menu; validation reaches Axiom
    6 only then.
    """
    first = min(members, key=canonical)
    blocks = sorted((sorted(b, key=repr) for b in form.info[i][first]),
                    key=repr)
    move = {w: m(w) for m in members for w in m.domain}
    visit = [w for block in blocks for w in block] + sorted(
        set(move) - first.domain, key=repr)
    return visit, [table.options(w, move[w], void) for w in visit]


def _nodes():
    """One draw per node of an adapted-choice search, each slice tried and
    each union joined; past ``ADAPTED_CAP`` it raises BudgetExceeded."""
    cap = budget(ADAPTED_CAP)
    yield from range(cap)
    raise BudgetExceeded(f"more than {cap} adapted-choice search nodes")


def _leaves(options, start, nodes):
    """
    The (known, value, mask) of each leaf of the search from the known
    bits ``start``, all 0: it backtracks over the positions of ``options``
    with a stack of the bits fixed and the mask of the slices taken, and
    takes a slice only if its entry agrees with the bits already fixed
    (``_fold``), so every leaf is adapted.  Each slice tried is drawn from
    ``nodes`` (``_nodes``).
    """
    # one iterator per position taken so far, and the bits and mask fixed
    # before it; no recursive closure, whose reference cycle would keep
    # the tables alive until the cycle collector
    levels, fixed = [iter(options[0])], [(start, 0, 0)]
    depth = len(options)
    while levels:
        known, value, whole = fixed[-1]
        for mask, entry in levels[-1]:
            next(nodes)
            bits = _fold(known, value, (entry,))
            if not bits:
                continue
            step = (*bits, whole | mask)
            if len(levels) < depth:
                fixed.append(step)
                levels.append(iter(options[len(levels)]))
                break
            yield step
        else:
            levels.pop()
            fixed.pop()


def _components(options, free):
    """The positions of the options split into components that share no
    bit outside ``free`` (the availability bits), each in visiting order:
    the measurability bits a scenario's options can set are those of its
    blocks, so on a form that passes Axiom 5 these are the blocks of the
    information set's partition."""
    parts = []   # (the component's bits, its positions)
    for k, opts in enumerate(options):
        bits = 0
        for _, entry in opts:
            bits |= entry and entry[0]   # a whole root's entry is False
        bits &= ~free
        positions = [k]
        for part in [part for part in parts if part[0] & bits]:
            parts.remove(part)
            bits |= part[0]
            positions += part[1]
        parts.append((bits, positions))
    return [sorted(positions) for _, positions in parts]


def _join(options, start, parts, free):
    """
    The masks of the adapted unions of one option per position, joined
    component by component: once the availability bits ``free`` are
    fixed, the components share no bit, so the unions are those of one
    leaf per component that agree on those bits (cutset conditioning;
    Dechter, *Constraint Processing*, 2003, ch. 10).  Each component is
    searched alone from the start bits, its leaves' masks grouped by the
    availability bits they fix, and the groups joined across components
    when they agree (``_fold``); a set with one component is the whole
    search.  Each slice tried and each union made is a node (``_nodes``).
    """
    nodes = _nodes()
    joined, fixed = {0: [0]}, 0   # union masks per value of the bits fixed
    for positions in parts:
        groups, bits = {}, 0
        for known, value, mask in _leaves([options[k] for k in positions],
                                          start, nodes):
            bits |= known & free
            groups.setdefault(value & free, []).append(mask)
        pairs = {}
        for value, masks in joined.items():
            for value2, masks2 in groups.items():
                if _fold(fixed, value, ((bits, value2),)):
                    made = pairs.setdefault(value | value2, [])
                    for mask in masks:
                        for mask2 in masks2:
                            next(nodes)
                            made.append(mask | mask2)
        joined, fixed = pairs, fixed | bits
    return [mask for masks in joined.values() for mask in masks]


def adapted_unions(table, visit, options):
    """The adapted unions of one option per visited scenario, joined over
    the components (``_join``) from the empty slice on every other
    scenario, each read out by ``table.missing``: the one engine of Axiom
    6, of the choice completion and of action-path forms' choices."""
    free = table.start(visit)
    start = table.start(set(table.scenarios) - set(visit))
    return map(table.missing, _join(options, start,
                                    _components(options, free), free))


def missing_choices(form, i, p, table, void=False):
    """The adapted unions of the information set's options
    (``_search_plan``) that are not choices: Axiom 6's violations there,
    and what the choice completion adds."""
    return [c for c in adapted_unions(table, *_search_plan(
        form, i, p.random_moves, table, void)) if c is not None]
