"""
Vertically extended time.

Time points carry a nonnegative rational horizontal coordinate and a
countable-ordinal vertical coordinate, ordered lexicographically, with a
symbolic vertical endpoint above all ordinals and a single top element
above everything.  Ordinals live in one-level Cantor normal form (below
the first epsilon-free tower step), which covers every value the rest of
the package computes with.  Suprema and infima of finite symbolic set
descriptors are evaluated by the closed-form case analysis on the
horizontal projection.
"""

import itertools
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, total_ordering

from ._util import format_rational, parse_rational
from .errors import ANotLeqB, InputError, NotLimit


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """An ordinal below the one-level normal-form cap: a sum of terms
    w^exponent * coefficient with strictly decreasing natural exponents."""
    cnf: tuple = ()

    def __post_init__(self):
        terms = tuple((int(e), int(c)) for e, c in self.cnf)
        object.__setattr__(self, "cnf", terms)
        exps = [e for e, _ in terms]
        if any(e < 0 for e in exps) or any(c < 1 for _, c in terms):
            raise InputError(f"malformed normal form: {terms!r}")
        if any(a <= b for a, b in zip(exps, exps[1:])):
            raise InputError(f"exponents not decreasing: {terms!r}")

    def __lt__(self, other):
        if not isinstance(other, Ordinal):
            return NotImplemented
        return ord_cmp(self, other) < 0

    def __repr__(self):
        return f"Ordinal({format_ordinal(self)!r})"


ZERO = Ordinal()
ONE = Ordinal(((0, 1),))
OMEGA = Ordinal(((1, 1),))


def ordinal(n):
    """The finite ordinal n."""
    if isinstance(n, Ordinal):
        return n
    if n < 0:
        raise InputError(f"not a natural number: {n!r}")
    return Ordinal(((0, n),)) if n else ZERO


def _require_ordinals(*values):
    for a in values:
        if not isinstance(a, Ordinal):
            raise InputError(f"not an ordinal: {a!r}")


def ord_cmp(a, b):
    """-1, 0, or 1: term-wise comparison of normal forms."""
    _require_ordinals(a, b)
    for (ea, ca), (eb, cb) in zip(a.cnf, b.cnf):
        if ea != eb:
            return 1 if ea > eb else -1
        if ca != cb:
            return 1 if ca > cb else -1
    if len(a.cnf) != len(b.cnf):
        return 1 if len(a.cnf) > len(b.cnf) else -1
    return 0


def ord_add(a, b):
    """Normal-form addition: terms of a below b's leading term are
    absorbed.  Associative, not commutative."""
    _require_ordinals(a, b)
    if not b.cnf:
        return a
    e = b.cnf[0][0]
    kept = tuple(term for term in a.cnf if term[0] > e)
    merged = sum(c for ee, c in a.cnf if ee == e) + b.cnf[0][1]
    return Ordinal(kept + ((e, merged),) + b.cnf[1:])


def ord_succ(a):
    return ord_add(a, ONE)


def is_limit(a):
    return bool(a.cnf) and a.cnf[-1][0] > 0


def ord_left_sub(a, b):
    """The unique c with a + c = b; requires a <= b."""
    for j in range(len(a.cnf)):
        if j == len(b.cnf):
            raise ANotLeqB(f"{a!r} > {b!r}")
        (ea, ca), (eb, cb) = a.cnf[j], b.cnf[j]
        if (ea, ca) == (eb, cb):
            continue
        if ea > eb or (ea == eb and ca > cb):
            raise ANotLeqB(f"{a!r} > {b!r}")
        if ea < eb:
            return Ordinal(b.cnf[j:])
        return Ordinal(((eb, cb - ca),) + b.cnf[j + 1:])
    return Ordinal(b.cnf[len(a.cnf):])


def _stages_of(gamma):
    """(base, e, k0): gamma = base + w^e, and the fundamental sequence's
    k-th term, from k = k0, is base + w^(e-1)*k."""
    if not is_limit(gamma):
        raise NotLimit(f"not a limit ordinal: {gamma!r}")
    e, c = gamma.cnf[-1]
    base = Ordinal(gamma.cnf[:-1] + (((e, c - 1),) if c > 1 else ()))
    return base, e, 0 if e == 1 else 1


def _stage(base, e, k):
    return ord_add(base, Ordinal(((e - 1, k),)) if k else ZERO)


def fundamental_sequence(gamma):
    """A strictly increasing canonical sequence with supremum gamma: the
    last term w^e is approached through w^(e-1) stages."""
    base, e, k = _stages_of(gamma)

    def stages():
        for j in itertools.count(k):
            yield _stage(base, e, j)
    return stages()


def first_stage_at_least(gamma, alpha):
    """The first term of gamma's fundamental sequence at or above
    alpha < gamma, its index read off alpha's coefficient of w^(e-1)
    rather than climbed to, which takes alpha's coefficient many steps."""
    base, e, k = _stages_of(gamma)
    if ord_cmp(alpha, base) > 0:
        d = ord_left_sub(base, alpha)      # 0 < d < w^e
        lead, coefficient = d.cnf[0]
        # d below w^(e-1) is passed by the first term, w^(e-1)*k by the k-th
        k = coefficient + (len(d.cnf) > 1) if lead == e - 1 else 1
    return _stage(base, e, k)


class _Omega1:
    """The symbolic top of the vertical axis; not an ordinal."""

    def __repr__(self):
        return "W1"


OMEGA1 = _Omega1()


def _v_cmp(a, b):
    if isinstance(a, _Omega1):
        return 0 if isinstance(b, _Omega1) else 1
    if isinstance(b, _Omega1):
        return -1
    return ord_cmp(a, b)


_V_KEY = cmp_to_key(_v_cmp)


@total_ordering
@dataclass(frozen=True)
class VTime:
    """A lexicographic time point (t, v), or the top element when both
    coordinates are None."""
    t: object
    v: object

    def __post_init__(self):
        if self.t is None:
            if self.v is not None:
                raise InputError("the top element has no coordinates")
            return
        t = Fraction(self.t)
        if t < 0:
            raise InputError(f"negative time: {t}")
        object.__setattr__(self, "t", t)
        if not isinstance(self.v, (_Omega1, Ordinal)):
            object.__setattr__(self, "v", ordinal(self.v))

    @property
    def is_infinity(self):
        return self.t is None

    def __lt__(self, other):
        if not isinstance(other, VTime):
            return NotImplemented
        return vt_cmp(self, other) < 0

    def __repr__(self):
        return f"VTime({format_vtime(self)!r})"


INFINITY = VTime(None, None)


def vt(t, v=ZERO):
    return VTime(Fraction(t), v)


def vt_cmp(x, y):
    if x.is_infinity:
        return 0 if y.is_infinity else 1
    if y.is_infinity:
        return -1
    if x.t != y.t:
        return 1 if x.t > y.t else -1
    return _v_cmp(x.v, y.v)


# --- symbolic set descriptors ------------------------------------------------

@dataclass(frozen=True)
class PointPiece:
    time: VTime


@dataclass(frozen=True)
class VerticalSegment:
    """The half-open vertical fiber {t} x [lo, hi)."""
    t: Fraction
    lo: Ordinal
    hi: object   # Ordinal or OMEGA1


@dataclass(frozen=True)
class HorizontalInterval:
    """A rational interval at a fixed vertical level."""
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool
    level: object = ZERO


def validate_descriptor(pieces):
    for piece in pieces:
        if isinstance(piece, PointPiece):
            continue
        if isinstance(piece, VerticalSegment):
            if Fraction(piece.t) < 0:
                raise InputError(f"negative time: {piece!r}")
            if isinstance(piece.lo, _Omega1) or \
                    (not isinstance(piece.hi, _Omega1)
                     and ord_cmp(piece.lo, piece.hi) >= 0):
                raise InputError(f"empty or malformed segment: {piece!r}")
        elif isinstance(piece, HorizontalInterval):
            lo, hi = Fraction(piece.lo), Fraction(piece.hi)
            if lo < 0 or lo > hi or \
                    (lo == hi and not (piece.lo_closed and piece.hi_closed)):
                raise InputError(f"empty or malformed interval: {piece!r}")
        else:
            raise InputError(f"unknown piece: {piece!r}")
    return tuple(pieces)


def _h_inf(piece):
    if isinstance(piece, PointPiece):
        return piece.time.t
    if isinstance(piece, VerticalSegment):
        return Fraction(piece.t)
    return Fraction(piece.lo)


def _h_sup(piece):
    if isinstance(piece, HorizontalInterval):
        return Fraction(piece.hi)
    return _h_inf(piece)


def _h_contains(piece, c):
    if isinstance(piece, PointPiece):
        return piece.time.t == c
    if isinstance(piece, VerticalSegment):
        return Fraction(piece.t) == c
    lo, hi = Fraction(piece.lo), Fraction(piece.hi)
    return (lo < c or (lo == c and piece.lo_closed)) and \
        (c < hi or (c == hi and piece.hi_closed))


def _fiber_min(piece, c):
    if isinstance(piece, PointPiece):
        return piece.time.v
    if isinstance(piece, VerticalSegment):
        return piece.lo
    return piece.level


def _fiber_sup(piece, c):
    if isinstance(piece, VerticalSegment):
        hi = piece.hi
        if isinstance(hi, _Omega1) or is_limit(hi):
            return hi
        e, k = hi.cnf[-1]
        return Ordinal(hi.cnf[:-1] + (((e, k - 1),) if k > 1 else ()))
    return _fiber_min(piece, c)


def vt_inf(pieces):
    """
    The infimum by the horizontal case analysis: at an attained leftmost
    real time the fiber minimum; at an unattained one the vertical
    endpoint; the top element for the empty set.
    """
    pieces = validate_descriptor(pieces)
    finite = [p for p in pieces
              if not (isinstance(p, PointPiece) and p.time.is_infinity)]
    if not finite:
        return INFINITY
    a = min(_h_inf(p) for p in finite)
    hit = [p for p in finite if _h_contains(p, a)]
    if hit:
        return VTime(a, min([_fiber_min(p, a) for p in hit], key=_V_KEY))
    return VTime(a, OMEGA1)


def vt_sup(pieces):
    """
    The supremum: the top element if it belongs to the set; at an
    attained rightmost real time the fiber supremum; at an unattained
    one the level-zero point; the zero point for the empty set.
    """
    pieces = validate_descriptor(pieces)
    if any(isinstance(p, PointPiece) and p.time.is_infinity for p in pieces):
        return INFINITY
    if not pieces:
        return VTime(Fraction(0), ZERO)
    b = max(_h_sup(p) for p in pieces)
    hit = [p for p in pieces if _h_contains(p, b)]
    if hit:
        return VTime(b, max([_fiber_sup(p, b) for p in hit], key=_V_KEY))
    return VTime(b, ZERO)


# --- textual syntax ----------------------------------------------------------

_TERM = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")


def parse_ordinal(text):
    """Parse "w^2*3 + w*2 + 4" syntax."""
    text = text.strip()
    if text == "0":
        return ZERO
    terms = []
    for part in text.split("+"):
        m = _TERM.match(part.strip().replace(" ", ""))
        if not m:
            raise InputError(f"cannot parse ordinal term: {part!r}")
        try:
            exp, coeff, const = (None if g is None else int(g)
                                 for g in m.groups())
        except ValueError as err:   # more digits than int() converts
            limit = sys.get_int_max_str_digits()
            raise InputError(f"an ordinal term of over {limit} digits") \
                from err
        if const is not None:
            terms.append((0, const))
        else:
            terms.append((1 if exp is None else exp,
                          1 if coeff is None else coeff))
    return Ordinal(tuple(terms))


def format_ordinal(a):
    if not a.cnf:
        return "0"
    parts = []
    for e, c in a.cnf:
        if e == 0:
            parts.append(str(c))
        else:
            head = "w" if e == 1 else f"w^{e}"
            parts.append(head if c == 1 else f"{head}*{c}")
    return " + ".join(parts)


def parse_vtime(text):
    """Parse "(3/4, w+1)", "(2, W1)", or "inf"."""
    text = text.strip()
    if text == "inf":
        return INFINITY
    m = re.match(r"^\(\s*([^,]+?)\s*,\s*(.+?)\s*\)$", text)
    if not m:
        raise InputError(f"cannot parse time point: {text!r}")
    t_text, v_text = m.groups()
    try:   # as an option's rational: no long expansion, and printable
        t = parse_rational(t_text)
        format_rational(t)
    except InputError as err:
        raise InputError(f"cannot parse time coordinate: {err}") from err
    v = OMEGA1 if v_text == "W1" else parse_ordinal(v_text)
    return VTime(t, v)


def format_vtime(x):
    if x.is_infinity:
        return "inf"
    v = "W1" if isinstance(x.v, _Omega1) else format_ordinal(x.v)
    return f"({x.t}, {v})"
