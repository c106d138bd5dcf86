"""
A two-player preemption race over a released dollar.

Both players wait for an exogenous whistle, then race down a vertical
axis of stopping opportunities attached to the whistle time.  At every
level each player independently stops with a probability calibrated to
the opponent's currency value of the dollar, which makes every pure
post-whistle stopping level worth exactly zero and supports the mixing.
"""

import functools
import hashlib
import math
import struct
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import tilt
from ._util import parse_rational
from .errors import InconsistentOutcome, InputError
from .vtime import INFINITY, OMEGA, VTime, ordinal, vt

# vertical levels sampled before the forced boundary stop; the chance of
# ever getting here is below (3/4)**200 for any positive eta
BOUNDARY = 200


class _Never:
    def __repr__(self):
        return "NEVER"


NEVER = _Never()


class StopperClass(Enum):
    SOLE_1 = "sole-1"
    SOLE_2 = "sole-2"
    SIMULTANEOUS = "simultaneous"
    PRE_WHISTLE = "pre-whistle"
    NEVER = "never"


@dataclass(frozen=True)
class PureLevel:
    level: int


@dataclass(frozen=True)
class NeverBelowOmega:
    pass


@dataclass(frozen=True)
class PreWhistleStop:
    pass


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(name, value):
    """An int (not a bool), a Fraction, or a string read by parse_rational;
    a float's binary fraction is not taken for the decimal it prints as."""
    if not (_is_int(value) or isinstance(value, (Fraction, str))):
        raise InputError(f"{name} must be a rational: {value!r}")
    try:
        return parse_rational(value)
    except InputError as err:
        raise InputError(f"{name}: {err}") from None


@dataclass(frozen=True)
class TimingConfig:
    eta: Fraction = Fraction(1)
    whistle: object = Fraction(0)      # rational time or {time: probability}
    trials: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eta", _rational("eta", self.eta))
        if self.eta <= 0:
            raise InputError(f"currency value must be positive: {self.eta}")
        whistle = self.whistle
        if isinstance(whistle, dict):
            whistle = {_rational("whistle", t): _rational("whistle", q)
                       for t, q in whistle.items()}
            if not whistle or sum(whistle.values()) != 1 \
                    or any(q < 0 for q in whistle.values()) \
                    or any(t < 0 for t in whistle):
                raise InputError(f"bad whistle distribution: {whistle}")
        else:
            whistle = _rational("whistle", whistle)
            if whistle < 0:
                raise InputError(f"whistle time must be nonnegative: {whistle}")
        object.__setattr__(self, "whistle", whistle)
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise InputError(f"{name} must be an integer: {value!r}")
        if not 0 <= self.trials:
            raise InputError(f"negative trial count: {self.trials}")
        if not 0 <= self.seed < 2 ** 64:
            raise InputError(f"seed must fit in 64 bits: {self.seed}")


@dataclass(frozen=True)
class RaceOutcome:
    stop_level_1: object               # natural or NEVER
    stop_level_2: object
    stopper_class: StopperClass
    payoffs: tuple


@dataclass(frozen=True)
class SimStats:
    trials: int
    counts: dict
    probabilities: dict
    mean_payoffs: tuple | None
    radii: dict

    def __post_init__(self):
        if sum(self.counts.values()) != self.trials:
            raise InconsistentOutcome("class counts do not sum to trials")


def stop_prob(player, eta):
    """A player's per-level stopping probability, set by the opponent's
    currency value of the dollar."""
    eta = Fraction(eta)
    if eta <= 0:
        raise InputError(f"currency value must be positive: {eta}")
    if player not in (1, 2):
        raise InputError(f"unknown player: {player}")
    opponent_value = eta if player == 1 else Fraction(1)
    return opponent_value / (1 + opponent_value)


def outcome_distribution(eta):
    """
    The exact conditional-on-stopping distribution of the three stopping
    classes.  Per level the classes weigh q1(1-q2), q2(1-q1) and q1*q2;
    the level index integrates out by the shared geometric factor.
    """
    q1, q2 = stop_prob(1, eta), stop_prob(2, eta)
    weights = {
        StopperClass.SOLE_1: q1 * (1 - q2),
        StopperClass.SOLE_2: q2 * (1 - q1),
        StopperClass.SIMULTANEOUS: q1 * q2,
    }
    total = 1 - (1 - q1) * (1 - q2)
    return {cls: w / total for cls, w in weights.items()}


def payoff(outcome, eta):
    """The four-case payoff table, in each player's local currency; the
    outcome's class says whether it stopped before the whistle."""
    return _payoff(outcome.stopper_class, outcome.stop_level_1,
                   outcome.stop_level_2, eta)


def _payoff(cls, a, b, eta):
    eta = Fraction(eta)
    if cls is StopperClass.PRE_WHISTLE:
        return (Fraction(-1), Fraction(-1))
    if cls is StopperClass.NEVER:
        if a is not NEVER or b is not NEVER:
            raise InconsistentOutcome("never-class outcome with a stop level")
        return (Fraction(0), Fraction(0))
    if cls is StopperClass.SOLE_1:
        if a is NEVER or (b is not NEVER and b <= a):
            raise InconsistentOutcome("sole stop by 1 requires 1 strictly first")
        return (Fraction(1), Fraction(0))
    if cls is StopperClass.SOLE_2:
        if b is NEVER or (a is not NEVER and a <= b):
            raise InconsistentOutcome("sole stop by 2 requires 2 strictly first")
        return (Fraction(0), eta)
    if a is NEVER and b is NEVER:
        # forced joint stop at the vertical boundary: nothing is grabbed
        return (Fraction(0), Fraction(0))
    if a is NEVER or b is NEVER or a != b:
        raise InconsistentOutcome("simultaneous stop at distinct levels")
    return (Fraction(-1), Fraction(-1))


def _cut(q):
    """
    The integer cut of a coin with probability q: a 64-bit draw n comes
    up iff n < ceil(q * 2**64), which is n * q.denominator < q.numerator
    << 64, i.e. exactly n / 2**64 < q, with no Fraction per draw.
    """
    return -(-(q.numerator << 64) // q.denominator)


def _bound(cut):
    """The cut as bytes that an 8-byte big-endian draw n sorts below iff
    n < cut; a cut of 2**64 is nine bytes, above every draw."""
    return cut.to_bytes(8, "big") if cut < 2 ** 64 else b"\xff" * 9


def _seeded(seed):
    """The blake2b state that has read a seed's 8 key bytes.  A draw keyed
    (seed, trial, level, player) is the digest of a copy updated with the
    rest of the key: blake2b reads its input as a stream, so that is the
    digest of the whole packed key."""
    return hashlib.blake2b(struct.pack(">Q", seed), digest_size=8)


def sample_whistle(config, trial):
    if not isinstance(config.whistle, dict):
        return config.whistle
    state = _seeded(config.seed)
    state.update(struct.pack(">QQQ", trial, 0, 0))
    digest = state.digest()
    *times, last = sorted(config.whistle)
    running = Fraction(0)
    for t in times:
        running += config.whistle[t]
        if digest < _bound(_cut(running)):
            return t
    return last


def _cuts(eta):
    return _cut(stop_prob(1, eta)), _cut(stop_prob(2, eta))


@functools.cache
def _tails(boundary):
    """The packed (level, player) key tails of levels 1..boundary, one
    pair per level, shared by every trial of every race."""
    return tuple((struct.pack(">QQ", level, 1), struct.pack(">QQ", level, 2))
                 for level in range(1, boundary + 1))


def _races(seed, trials, cut1, cut2):
    """
    The post-whistle race of each trial on integer cuts: the first level
    at which either coin comes up, with the two stop bits.  A race that
    reaches the boundary ends there with neither bit, the forced joint
    stop.  The seed's key bytes are hashed once per call and each trial's
    once per trial: every coin copies its trial's hash state and reads
    only its (level, player) tail, and each draw is decided on its
    digest's bytes, which is exactly n < cut.
    """
    boundary = BOUNDARY
    tails = _tails(boundary)
    bound1, bound2 = _bound(cut1), _bound(cut2)
    seeded, pack = _seeded(seed), struct.Struct(">Q").pack
    for trial in trials:
        head = seeded.copy()
        head.update(pack(trial))
        for level, (tail1, tail2) in enumerate(tails):
            draw1, draw2 = head.copy(), head.copy()
            draw1.update(tail1)
            draw2.update(tail2)
            one, two = draw1.digest() < bound1, draw2.digest() < bound2
            if one or two:
                yield level, one, two
                break
        else:
            yield boundary, False, False


def _outcome(race, eta):
    """The RaceOutcome of a kernel result, with its payoffs."""
    level, one, two = race
    a, b = (level if one else NEVER), (level if two else NEVER)
    cls = (StopperClass.SOLE_1 if one and not two
           else StopperClass.SOLE_2 if two and not one
           else StopperClass.SIMULTANEOUS)
    return RaceOutcome(a, b, cls, _payoff(cls, a, b, eta))


def sample_race(config, trial):
    """
    One post-whistle race: independent per-level coins, keyed by
    (seed, trial, level, player) so that the draw is reproducible and
    independent of evaluation order.
    """
    race, = _races(config.seed, (trial,), *_cuts(config.eta))
    return _outcome(race, config.eta)


def monte_carlo(config):
    """Exact-count statistics over independent trials; identical output
    for identical (seed, trials) however the trials are scheduled.  The
    trials are tallied per distinct race, and each distinct race is
    classified and paid once."""
    tally = Counter(_races(config.seed, range(config.trials),
                           *_cuts(config.eta)))
    counts = {cls: 0 for cls in StopperClass}
    sums = [Fraction(0), Fraction(0)]
    for race, k in tally.items():
        outcome = _outcome(race, config.eta)
        counts[outcome.stopper_class] += k
        sums[0] += k * outcome.payoffs[0]
        sums[1] += k * outcome.payoffs[1]
    if config.trials == 0:
        return SimStats(0, counts, {}, None, {})
    probabilities = {cls: Fraction(k, config.trials)
                     for cls, k in counts.items()}
    radii = {cls: 3 * math.sqrt(float(p * (1 - p)) / config.trials)
             for cls, p in probabilities.items()}
    means = (sums[0] / config.trials, sums[1] / config.trials)
    return SimStats(config.trials, counts, probabilities, means, radii)


def equilibrium_identity(eta):
    """
    The per-level cancellation making every stopping level worth zero:
    each player's sole-stop gain weighs exactly as much as the
    simultaneous fine, both in that player's local currency.
    """
    eta = Fraction(eta)
    q1, q2 = stop_prob(1, eta), stop_prob(2, eta)
    return (
        (q1 * (1 - q2) * 1, q1 * q2 * 1),
        (q2 * (1 - q1) * eta, q1 * q2 * 1),
    )


def deviation_payoff(config, deviation, player=1):
    """
    Exact expected payoff of a unilateral deviation, conditional on the
    whistle having been reached, against the equilibrium opponent.
    """
    eta = config.eta
    if player not in (1, 2):
        raise InputError(f"unknown player: {player}")
    opponent = 3 - player
    own_value = Fraction(1) if player == 1 else eta
    q_opp = stop_prob(opponent, eta)
    if isinstance(deviation, PreWhistleStop):
        return Fraction(-1)
    if isinstance(deviation, NeverBelowOmega):
        # the opponent stops almost surely below the boundary, leaving 0;
        # the null boundary event also pays 0
        return Fraction(0)
    if isinstance(deviation, PureLevel):
        if not _is_int(deviation.level):
            raise InputError(f"level must be an integer: {deviation.level!r}")
        if deviation.level < 0:
            raise InputError(f"negative level: {deviation.level}")
        # the calibration zeroes the per-level gain (equilibrium_identity),
        # so the survival power is taken only when it is not
        gain = -q_opp + (1 - q_opp) * own_value
        return gain and (1 - q_opp) ** deviation.level * gain
    raise InputError(f"unknown deviation: {deviation!r}")


@dataclass(frozen=True)
class GridApproximant:
    grid: tilt.Grid
    mesh: Fraction
    stats: SimStats


def race_grid(config, n):
    """The dyadic grid of mesh 2^-n anchored at the whistle.  Its first
    step is the whistle and each step after it one mesh, so its size is
    the larger of the two.  It meets the grid axioms by construction: it
    starts at 0, its steps are the whistle (at least 0, by
    ``TimingConfig``) and then the mesh (positive), and it reads
    infinity at w."""
    if isinstance(config.whistle, dict):
        raise InputError("grid approximants need a deterministic whistle")
    mesh = Fraction(2) ** -n
    whistle = config.whistle

    def evaluate(beta):
        if beta == OMEGA:
            return INFINITY
        k = beta.cnf[0][1] if beta.cnf else 0
        if whistle == 0:
            return vt(k * mesh)
        return vt(0) if k == 0 else vt(whistle + (k - 1) * mesh)

    def locate(t):
        if t.is_infinity:
            return OMEGA
        if t.t <= 0:
            return ordinal(0)
        if whistle == 0:
            return ordinal(int(-((-t.t) // mesh)))
        if t.t <= whistle:
            return ordinal(1)
        return ordinal(1 + int(-((-(t.t - whistle)) // mesh)))

    return tilt.Grid(OMEGA, evaluate, locate=locate, gap=max(whistle, mesh))


def grid_approximant(config, n):
    """
    The discrete-time symmetric race on the anchored grid.  Step k of
    the grid game uses the same coin as vertical level k of the race, so
    the two simulations agree trial by trial; the grid frequencies
    therefore estimate the same closed-form distribution.
    """
    grid = race_grid(config, n)
    stats = monte_carlo(config)
    return GridApproximant(grid, Fraction(2) ** -n, stats)


def path_tilt(config, level):
    """
    The vertically extended stop time that a stop-at-step-``level`` path
    converges to as the anchored grids refine, computed through the
    tilting machinery.
    """
    if isinstance(config.whistle, dict):
        raise InputError("path tilting needs a deterministic whistle")
    target = VTime(config.whistle, ordinal(level))
    family, process = tilt.approximate_stop_indicator(target)
    result = tilt.tilting_limit(process, family)
    if not result.converged:
        raise InconsistentOutcome("stop path failed to tilt")
    return result.stop
