"""
Refining grid sequences and tilting limits.

A grid places well-ordered decision opportunities on the extended time
axis; a refining, convergent sequence of grids carries a sequence of
stop indicators whose limit, if any, lives in vertically extended time.
Everything here is deterministic: grids are constant in the scenario
argument and processes are plain value tables.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._util import budget
from .errors import (
    BudgetExceeded,
    GridAxiomViolation,
    InputError,
    TargetOutOfRange,
)
from .vtime import (
    INFINITY,
    OMEGA,
    ZERO,
    Ordinal,
    VTime,
    first_stage_at_least,
    format_ordinal,
    format_vtime,
    fundamental_sequence,
    is_limit,
    ord_add,
    ord_cmp,
    ord_left_sub,
    ord_succ,
    ordinal,
    vt,
)

OMEGA_SQ = Ordinal(((2, 1),))

# default cap of the deepest grid depth a tilting limit reads (the last
# depth of a closed form's period), and of the subdivision depth of a
# nested grid's index; EXFORM_BUDGET overrides it
DEPTH_CAP = 10 ** 4

# the shallowest grid depth a closed form reads: every n0 is at least this
START_DEPTH = 4


@dataclass(frozen=True)
class Grid:
    """
    A deterministic classical grid: a strictly increasing enumeration of
    time points indexed by the ordinals up to and including ``bound``,
    starting at 0 and ending at infinity.
    """

    bound: Ordinal
    eval: object                       # Ordinal -> VTime (horizontal)
    locate: object = None              # t -> least index with value >= t
    gap: Fraction | None = None        # exact size, on every grid exform builds
    vet: object = None                 # index -> raises where eval would

    def __call__(self, beta):
        # indices beyond the bound read as infinity
        if not isinstance(beta, Ordinal):
            raise InputError(f"grid index must be an ordinal: {beta!r}")
        if ord_cmp(beta, self.bound) > 0:
            return INFINITY
        return self.eval(beta)


@dataclass(frozen=True)
class GridFamily:
    """A refining, convergent sequence of grids, registered by its name."""

    member: object                     # n -> Grid
    name: str | None = None


@dataclass(frozen=True)
class StopIndexFamily:
    """
    The processes "stop at the kappa(n)-th opportunity of the n-th grid":
    the n-th process is 1 strictly before the time of that opportunity
    and 0 from it onwards.  kappa is a nonempty tuple of ordinals, read
    as kappa(n) = kappa[n % len(kappa)]: a declared period.

    An anchored family stops at a fixed vertically extended target
    instead: kappa(n) is the first index at or after the target's real
    time, shifted up by the target's vertical part.  A family takes
    exactly one of kappa and anchor.
    """

    kappa: tuple | None = None
    anchor: VTime | None = None

    def __post_init__(self):
        kappa, anchor = self.kappa, self.anchor
        if anchor is None:
            if not (isinstance(kappa, tuple) and kappa
                    and all(isinstance(k, Ordinal) for k in kappa)):
                raise InputError(
                    f"kappa must be a nonempty tuple of ordinals: {kappa!r}")
        elif kappa is not None:
            raise InputError("a stop-index family takes a kappa or an "
                             "anchor, not both")
        elif not (isinstance(anchor, VTime) and not anchor.is_infinity
                  and isinstance(anchor.v, Ordinal)):
            raise InputError("an anchor must be a finite time with an "
                             f"ordinal vertical part: {anchor!r}")

    def index(self, n, grid):
        if self.anchor is not None:
            base = _locate(grid, vt(self.anchor.t))
            return ord_add(base, self.anchor.v)
        value = self.kappa[n % len(self.kappa)]
        if ord_cmp(value, grid.bound) > 0:
            raise InputError("stop index exceeds the grid bound")
        return value


@dataclass(frozen=True)
class TiltingResult:
    converged: bool
    stop: VTime | None                 # descriptor 1 on [0, stop), when known
    table: dict                        # probe -> limit value
    witness: tuple | None              # when diverged: (probe, n0, period)

    def __repr__(self):
        if self.converged:
            inner = format_vtime(self.stop) if self.stop is not None else "table"
            return f"TiltingResult(limit, {inner})"
        return f"TiltingResult(diverged at {format_vtime(self.witness[0])})"


def dyadic_grid(n):
    """Uniform mesh 2^-n with one opportunity block of order type omega."""
    g = Fraction(2) ** -n

    def evaluate(beta):
        if beta == OMEGA:
            return INFINITY
        return vt(beta.cnf[0][1] * g if beta.cnf else 0)

    def locate(t):
        if t.is_infinity:
            return OMEGA
        k = -((-t.t) // g)             # least k with k*g >= t
        return ordinal(int(k))

    return Grid(OMEGA, evaluate, locate=locate, gap=g)


def nested_grid(n):
    """
    Mesh-2^-n blocks, each block containing a copy of the dyadic
    subdivision of its own cell: index k*w + m reads as (k+1-2^-m)*2^-n.
    Its subdivision depth m is capped as a tilting limit's depth is.
    """
    g = Fraction(2) ** -n
    cap = budget(DEPTH_CAP)

    def split(beta):
        k = m = 0
        for e, c in beta.cnf:
            if e == 1:
                k = c
            elif e == 0:
                m = c
        if m > cap:
            raise BudgetExceeded(f"subdivision depth {m} exceeds {cap}")
        return k, m

    def evaluate(beta):
        if beta == OMEGA_SQ:
            return INFINITY
        k, m = split(beta)
        return vt((k + 1 - Fraction(1, 2 ** m)) * g)

    def locate(t):
        if t.is_infinity:
            return OMEGA_SQ
        s = t.t / g
        k = s.numerator // s.denominator
        if k == s:
            return Ordinal(((1, k),)) if k else ZERO
        # within block k the values climb as k + 1 - 2^-m; with
        # k + 1 - s = p/q, the least m with 2^-m <= p/q has 2^m >= ceil(q/p)
        gap = k + 1 - s
        m = (-(-gap.denominator // gap.numerator) - 1).bit_length()
        return ord_add(Ordinal(((1, k),)) if k else ZERO, ordinal(m))

    return Grid(OMEGA_SQ, evaluate, locate=locate, gap=g / 2, vet=split)


def dyadic_family():
    return GridFamily(dyadic_grid, "dyadic")


def nested_family():
    return GridFamily(nested_grid, "nested")


REGISTERED = {"dyadic": dyadic_family, "nested": nested_family}


def _locate(grid, t):
    """The least index whose grid time is at least t."""
    if grid.locate is None:
        raise InputError("cannot locate a time on a grid without a locator")
    return grid.locate(t)


def _sample_indices(bound):
    samples = {ZERO, bound}
    for k in range(6):
        samples.add(ordinal(k))
    for piece in range(len(bound.cnf)):
        prefix = Ordinal(bound.cnf[: piece + 1])
        samples.add(prefix)
        if is_limit(prefix):
            samples.update(itertools.islice(fundamental_sequence(prefix), 1, 5))
    return sorted((s for s in samples if ord_cmp(s, bound) <= 0),
                  key=lambda s: (len(s.cnf), s.cnf))


# stages of the fundamental sequence validate_grid reads below each limit
LIMIT_STAGES = 8


def validate_grid(grid):
    """
    Check the grid axioms of a grid from outside exform at sampled
    indices: starts at zero, ends at infinity, strictly increasing where
    finite, continuous at limit indices.  A violation raises
    GridAxiomViolation.  exform's own grids meet the axioms by
    construction, and none is checked at run time.
    """
    if grid(ZERO) != vt(0):
        raise GridAxiomViolation(f"grid starts at {format_vtime(grid(ZERO))}, not 0")
    if not grid(grid.bound).is_infinity:
        raise GridAxiomViolation("grid does not end at infinity")
    samples = _sample_indices(grid.bound)
    values = [grid(s) for s in samples]
    indexed = list(zip(samples, values))
    for (a, va), (b, vb) in zip(indexed, indexed[1:]):
        if ord_cmp(a, b) < 0 and not va.is_infinity and not va < vb:
            raise GridAxiomViolation(
                f"not strictly increasing at {format_ordinal(a)}")
    for sample, value in zip(samples, values):
        if not is_limit(sample):
            continue
        below = list(itertools.islice(fundamental_sequence(sample),
                                      LIMIT_STAGES))
        climb = [grid(s) for s in below]
        if any(not u < value for u in climb if not value.is_infinity):
            raise GridAxiomViolation(
                f"discontinuous at limit index {format_ordinal(sample)}")
        if not value.is_infinity and len(climb) >= 2:
            first = value.t - climb[0].t
            last = value.t - climb[-1].t
            if not last * 4 <= first:
                raise GridAxiomViolation(
                    f"stages do not approach {format_ordinal(sample)}")
        if value.is_infinity and len(climb) >= 3:
            # an infinite limit needs unbounded stages, not a finite sup
            steps = [b.t - a.t for a, b in zip(climb, climb[1:])
                     if not b.is_infinity]
            if len(steps) >= 4 and steps[-1] * 4 < steps[-4]:
                raise GridAxiomViolation(
                    f"stages stay bounded below {format_ordinal(sample)}")


def grid_size(grid):
    """
    The supremum of consecutive horizontal gaps: the grid's exact gap,
    or infinite when the bound is finite, since the image below a finite
    bound stops at a finite horizon.  An infinite grid with no gap is an
    InputError.
    """
    if grid.gap is not None:
        return grid.gap
    if not grid.bound.cnf or grid.bound.cnf[0][0] == 0:
        return INFINITY
    raise InputError("the size of an infinite grid is read off its gap")


def psi_delta(grid, t):
    """
    The re-indexing at a real time: the first grid index not before t,
    and the order type of everything from there to the bound.
    """
    if not isinstance(t, VTime):
        t = vt(t)
    base = _locate(grid, t)
    return base, ord_left_sub(base, grid.bound)


def gamma(family, t):
    """
    The vertical extent that the grids fill in at a real time: the first
    offset whose grid times stay strictly above t in the limit.  On a
    registered family it is the member grid's bound at every time: below
    infinity the grids fill in a whole block of that order type, and at
    infinity no offset's time exceeds t, so the extent reaches the bound.
    Any other family is an InputError.
    """
    if family.name == "dyadic":
        return OMEGA
    if family.name == "nested":
        return OMEGA_SQ
    raise InputError("the vertical extent is decided on a registered "
                     "grid family")


def _indicators(process, family):
    """
    The reader of one indicator, (t, beta, n) -> the value at depth n of
    the probe t + beta.  Its tables of depth -> (grid, stop) and of time
    -> {depth: located index}, which an anchored stop index reads too,
    fill at first use, so every error surfaces where a fresh read would.

    Each indicator is decided by index, with no grid time built: a
    registered grid is strictly increasing on [0, bound] and reads
    infinity from the bound on, so an index's time is below the stop's
    iff the index clipped at the bound is below the stop index clipped
    there.  Each index below the bound is vetted (``Grid.vet``) where its
    time would have been read.
    """
    grids, located, stops = {}, {}, {}

    def base(t, n):
        at = located.setdefault(t, {})
        if n not in at:
            at[n] = _locate(grids[n], t)
        return at[n]

    def read(grid, index):
        if ord_cmp(index, grid.bound) >= 0:
            return grid.bound
        if grid.vet is not None:
            grid.vet(index)
        return index

    def value(t, beta, n):
        if n not in grids:
            grids[n] = family.member(n)
        grid = grids[n]
        here = read(grid, ord_add(base(t, n), beta))
        if n not in stops:
            anchor = process.anchor
            stops[n] = read(grid, process.index(n, grid) if anchor is None
                            else ord_add(base(vt(anchor.t), n), anchor.v))
        return 1 if here < stops[n] else 0

    return value


def _stops(process):
    """The stop indices: the anchor's offset, or kappa's declared period."""
    return (process.anchor.v,) if process.anchor is not None \
        else process.kappa


def _period(value, process, bound, t, beta, cap):
    """
    (n0, indicators): the indicators at t + beta repeat with kappa's
    period (1 when anchored) from n0 on, the least such depth from
    START_DEPTH.  An index's coefficient of w^(e-1), for the bound w^e,
    is ceil(t*2^n) (dyadic) or floor(t*2^n) (nested) plus its offset's;
    once rate*2^n passes margin + 1, with rate t, or |t - a| for an
    anchor at a, it decides every comparison, and each indicator is fixed
    by its stop index's place in the period.  One period is read from
    there, and, only where it is not constant, back.
    """
    anchor = process.anchor
    period = 1 if anchor is not None else len(process.kappa)
    coefficient = bound.cnf[0][0] - 1
    below = [dict(k.cnf).get(coefficient, 0) for k in _stops(process)
             if ord_cmp(k, bound) < 0]
    n = START_DEPTH
    if below and not t.is_infinity:
        rate = t.t if anchor is None else abs(t.t - anchor.t)
        offset = dict(beta.cnf).get(coefficient, 0)
        margin = max(below) - offset if anchor is None \
            else abs(below[0] - offset)
        if rate:
            # the least n with rate * 2^n > margin + 1
            n = max(n, (max(margin + 1, 0) * rate.denominator
                        // rate.numerator).bit_length())
    if n + period - 1 > cap:
        raise BudgetExceeded(f"closed-form depth {n + period - 1} exceeds {cap}")
    cycle = [value(t, beta, n + i) for i in range(period)]
    if len(set(cycle)) > 1:
        while n > START_DEPTH and value(t, beta, n - 1) == cycle[-1]:
            n, cycle = n - 1, cycle[-1:] + cycle[:-1]
    return n, tuple(cycle)


def default_probes(process):
    """Probes at the anchor's time, or at time 0, at the vertical parts 0
    and 1 and at and just above each stop index, with the first stages
    below a limit one."""
    t = vt(process.anchor.t if process.anchor is not None else 0).t
    verticals = {ZERO, ordinal(1)}
    for top in _stops(process):
        verticals.add(top)
        verticals.add(ord_succ(top))
        if is_limit(top):
            verticals.update(itertools.islice(fundamental_sequence(top), 1, 3))
    return sorted(VTime(t, v) for v in verticals)


def tilting_limit(process, family, probes=None):
    """
    Decide the limit of the stop indicators of a stop-index family,
    anchored or with a declared period, through a registered grid family
    at each probe point, in closed form (``_period``): the limit exists
    iff one period of indicators is constant, and a divergence's witness
    is (probe, n0, period).  A probe at or above the filled-in vertical
    extent is read off by left extension, at one stage: an indicator
    falls as the stage climbs, so every stage of the extent's fundamental
    sequence at or above the stop indices below the extent reads alike.
    Any other process or grid family is an InputError.
    """
    if not isinstance(process, StopIndexFamily) \
            or family.name not in REGISTERED:
        raise InputError("a tilting limit is decided for a stop-index "
                         "family on a registered grid family")
    cap = budget(DEPTH_CAP)
    if probes is None:
        probes = default_probes(process)
    value = _indicators(process, family)
    extent = gamma(family, INFINITY)
    table = {}
    for probe in sorted(set(probes)):
        if probe.is_infinity:
            t, beta = INFINITY, ZERO
        else:
            t, beta = vt(probe.t), probe.v
        if not isinstance(beta, Ordinal) or ord_cmp(beta, extent) >= 0:
            beta = first_stage_at_least(
                extent, max((k for k in _stops(process) if k < extent),
                            default=ZERO))
        n0, cycle = _period(value, process, extent, t, beta, cap)
        if len(set(cycle)) > 1:
            return TiltingResult(False, None, table, (probe, n0, cycle))
        table[probe] = cycle[0]
    return TiltingResult(True, _stop_descriptor(process, extent), table, None)


def _stop_descriptor(process, extent):
    """The limit stop time, when the family stops at a stable index: the
    anchor, or the one stop index's time; an anchor or a stop index whose
    vertical part is at or above the vertical extent stops at infinity,
    since its index reads infinity at every depth."""
    if process.anchor is not None:
        top, stop = process.anchor.v, process.anchor
    else:
        tops = set(process.kappa)
        if len(tops) != 1:
            return None
        top = tops.pop()
        stop = vt(0, top)
    return INFINITY if ord_cmp(top, extent) >= 0 else stop


def approximate_stop_indicator(target):
    """
    A registered family and stop-index family whose tilting limit is the
    indicator of the half-open prefix below the target.
    """
    if not isinstance(target, VTime):
        raise InputError(f"target must be a vertically extended time: {target!r}")
    if target.is_infinity or not isinstance(target.v, Ordinal):
        raise TargetOutOfRange("target must be deterministic with an "
                               "ordinal vertical part")
    if ord_cmp(target.v, OMEGA_SQ) >= 0:
        raise TargetOutOfRange(
            f"vertical part {format_ordinal(target.v)} not below w^2")
    family = dyadic_family() if ord_cmp(target.v, OMEGA) < 0 else nested_family()
    process = StopIndexFamily(anchor=target)
    return family, process
