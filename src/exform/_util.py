"""Small shared helpers: budgets, the canonical order, rational formatting."""

import os
import re
import sys
from fractions import Fraction
from itertools import chain, combinations

from .errors import InputError


def budget(default):
    """
    Enumeration cap for exhaustive searches.

    The EXFORM_BUDGET environment variable, when set to a positive integer,
    overrides every module's default cap.
    """
    raw = os.environ.get("EXFORM_BUDGET")
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"EXFORM_BUDGET must be an integer, got {raw!r}")
    if value <= 0:
        raise InputError("EXFORM_BUDGET must be positive")
    return value


def canonical(value):
    """
    The total sort key of witnesses and random moves: a set as the sorted
    keys of its members, a random move as its graph, a tuple or list
    member by member, anything else as its repr.  Each shape is tagged, so
    labels of mixed types never compare a list with a str.
    """
    if isinstance(value, str):   # most labels: the last line's key, sooner
        return 0, repr(value)
    if isinstance(value, (set, frozenset)):
        return 1, sorted(map(canonical, value))
    if isinstance(value, (tuple, list)):
        return 2, list(map(canonical, value))
    key = getattr(value, "canonical_key", None)   # only random moves have one
    return (0, repr(value)) if key is None else key


def sorted_violations(violations, kinds):
    """The (kind, payload) violations by kind in ``kinds`` order, then by
    the payload's canonical key."""
    return tuple(sorted(violations,
                        key=lambda v: (kinds.index(v[0]), canonical(v[1]))))


def canonical_text(value):
    """The value's repr with each set as the list of its members in
    canonical order, which reads the same under any hash seed."""
    def plain(v):
        if isinstance(v, (set, frozenset)):
            return list(map(plain, sorted(v, key=canonical)))
        return type(v)(map(plain, v)) if isinstance(v, (tuple, list)) else v
    return repr(plain(value))


def powerset(iterable):
    """All subsets of the iterable as tuples, smallest first."""
    items = list(iterable)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def parse_rational(text):
    """
    Parse "num/den", "num" or a decimal such as "1.5e-3" into an exact
    Fraction.  A decimal exponent over the interpreter's int-to-str limit
    in magnitude is rejected before Fraction expands it, which would take
    seconds to minutes; a run of more digits than that limit is rejected
    with the same message rather than echoed back.
    """
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    text = str(text)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    oversized = InputError(f"a rational of over {limit} digits, or with a "
                           f"decimal exponent over {limit}, cannot be parsed")
    _, mark, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if mark and digits.isdecimal() and (len(digits) > len(str(limit))
                                        or int(digits) > limit):
        raise oversized
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        if any(len(run.replace("_", "")) > limit
               for run in re.findall(r"[\d_]+", text)):
            raise oversized
        raise InputError(f"not a rational: {text!r}")


def format_rational(q):
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError as err:   # over the interpreter's int-to-str limit
        raise InputError(f"a rational of over {sys.get_int_max_str_digits()} "
                         "digits cannot be printed") from err


def partitions_of(items):
    """All set partitions of the given finite collection, as tuples of frozensets."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in partitions_of(rest):
        for k in range(len(sub)):
            yield sub[:k] + (sub[k] | {first},) + sub[k + 1:]
        yield sub + (frozenset({first}),)
