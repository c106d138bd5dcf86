import itertools
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from exform import cli, tilt
from exform.errors import (
    BudgetExceeded,
    GridAxiomViolation,
    InputError,
    TargetOutOfRange,
)
from exform.tilt import (
    OMEGA_SQ,
    Grid,
    GridFamily,
    StopIndexFamily,
    TiltingResult,
    approximate_stop_indicator,
    default_probes,
    dyadic_family,
    dyadic_grid,
    gamma,
    grid_size,
    nested_family,
    nested_grid,
    psi_delta,
    tilting_limit,
    validate_grid,
)
from exform.timing import TimingConfig, path_tilt, race_grid
from exform.vtime import (
    INFINITY,
    OMEGA,
    OMEGA1,
    ZERO,
    Ordinal,
    VTime,
    format_vtime,
    fundamental_sequence,
    ord_add,
    ord_cmp,
    ord_succ,
    ordinal,
    parse_ordinal,
    parse_vtime,
    vt,
)

def nested_locate_oracle(n, t):
    """The least index of ``nested_grid(n)`` whose time is at least the
    real t, its subdivision level found by halving a step until the block's
    values k + 1 - 2^-m pass t: the locator before it read the level off
    the gap's bit length."""
    s = t / Fraction(2) ** -n
    k = s.numerator // s.denominator
    if k == s:
        return Ordinal(((1, k),)) if k else ZERO
    m, step = 0, Fraction(1)
    while k + 1 - step < s:
        m, step = m + 1, step / 2
    return ord_add(Ordinal(((1, k),)) if k else ZERO, ordinal(m))


ALICE = StopIndexFamily(kappa=(ordinal(1),))
BOB = StopIndexFamily(kappa=(ordinal(2),))
CAROL = StopIndexFamily(kappa=(ordinal(4), ordinal(1)))


def table_grid(times):
    """A finite grid from an explicit list of times ending at infinity."""
    values = [vt(x) if x is not None else INFINITY for x in times]

    def evaluate(beta):
        k = beta.cnf[0][1] if beta.cnf else 0
        return values[k]

    return Grid(ordinal(len(values) - 1), evaluate)


class TestGridAxioms:
    def test_registered_families_valid(self):
        for n in range(5):
            validate_grid(dyadic_grid(n))
            validate_grid(nested_grid(n))

    def test_nonzero_start_rejected(self):
        with pytest.raises(GridAxiomViolation):
            validate_grid(table_grid([1, 2, None]))

    def test_finite_end_rejected(self):
        with pytest.raises(GridAxiomViolation):
            validate_grid(table_grid([0, 1, 2]))

    def test_non_monotone_rejected(self):
        with pytest.raises(GridAxiomViolation):
            validate_grid(table_grid([0, 2, 1, None]))

    def test_table_grid_valid(self):
        assert validate_grid(table_grid([0, 1, 2, None])) is None

    def test_discontinuous_limit_rejected(self):
        bounded = Grid(OMEGA, lambda b: INFINITY if b == OMEGA
                       else vt(1 - Fraction(1, 2 ** (b.cnf[0][1] if b.cnf else 0))))
        with pytest.raises(GridAxiomViolation):
            validate_grid(bounded)


# --- refinement and the embeddings as oracles ----------------------------------
# The sampled refinement check and each registered family's embedding of
# member(n)'s indices into member(n + 1)'s, verbatim; no path of the
# package reads them, and every grid exform builds refines by construction.

def check_refines(coarse, fine):
    """True iff every sampled opportunity of the coarse grid reappears in
    the fine one at the same time."""
    for index in tilt._sample_indices(coarse.bound):
        t = coarse(index)
        if t.is_infinity:
            continue
        if fine(tilt._locate(fine, t)) != t:
            return False
    return True


def dyadic_embed(n, beta):
    if beta == OMEGA:
        return OMEGA
    k = beta.cnf[0][1] if beta.cnf else 0
    return ordinal(2 * k)


def nested_embed(n, beta):
    if beta == OMEGA_SQ:
        return OMEGA_SQ
    k = m = 0
    for e, c in beta.cnf:
        k, m = (c, m) if e == 1 else (k, c)
    if m >= 1:
        return ord_add(Ordinal(((1, 2 * k + 1),)), ordinal(m - 1))
    return Ordinal(((1, 2 * k),)) if k else ZERO


EMBEDDINGS = {"dyadic": dyadic_embed, "nested": nested_embed}


class TestRefinement:
    def test_dyadic_chain(self):
        for n in range(4):
            assert check_refines(dyadic_grid(n), dyadic_grid(n + 1))

    def test_nested_chain(self):
        for n in range(4):
            assert check_refines(nested_grid(n), nested_grid(n + 1))

    def test_coarsening_is_not_refinement(self):
        assert not check_refines(dyadic_grid(3), dyadic_grid(2))

    def test_embedding_witnesses(self):
        for name, indices in [
                ("dyadic", [ZERO, ordinal(1), ordinal(3), ordinal(17), OMEGA]),
                ("nested", [ZERO, ordinal(3), parse_ordinal("w*2 + 1"),
                            parse_ordinal("w"), OMEGA_SQ])]:
            fam, embed = tilt.REGISTERED[name](), EMBEDDINGS[name]
            for index in indices:
                image = embed(2, index)
                assert fam.member(2)(index) == fam.member(3)(image)


def brute_force_size(grid):
    """The largest gap between consecutive grid times over the first 64
    finite indices."""
    times = [grid(ordinal(k)) for k in range(65)]
    return max(b.t - a.t for a, b in zip(times, times[1:]))


class TestGridSize:
    def test_dyadic(self):
        for n in range(5):
            assert grid_size(dyadic_grid(n)) == Fraction(1, 2 ** n)

    def test_nested_half_mesh(self):
        for n in range(5):
            assert grid_size(nested_grid(n)) == Fraction(1, 2 ** (n + 1))

    def test_bounded_image_is_infinite(self):
        assert grid_size(table_grid([0, 1, 2, None])) is INFINITY

    def test_sizes_vanish_along_both_families(self):
        for family in (dyadic_family(), nested_family()):
            sizes = [grid_size(family.member(n)) for n in range(8)]
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[-1] <= Fraction(1, 128)

    @pytest.mark.parametrize("n", range(-2, 11))
    def test_exact_size_is_the_largest_gap(self, n):
        # every grid that exform builds carries its exact size; on the
        # finite indices it is the largest gap between consecutive times
        grids = [dyadic_grid(n), nested_grid(n)] + [
            race_grid(TimingConfig(whistle=w), n)
            for w in (0, Fraction(1, 3), Fraction(5, 8), 3)]
        for grid in grids:
            assert grid_size(grid) == brute_force_size(grid)

    def test_infinite_grid_without_a_gap_is_refused(self):
        unnamed = replace(dyadic_grid(3), gap=None)
        with pytest.raises(InputError, match="gap"):
            grid_size(unnamed)


class TestReindexing:
    def test_time_zero_is_identity(self):
        base, delta = psi_delta(dyadic_grid(6), vt(0))
        assert base == ZERO and delta == OMEGA

    def test_first_mesh_point(self):
        base, delta = psi_delta(dyadic_grid(6), vt(Fraction(1, 64)))
        assert base == ordinal(1) and delta == OMEGA

    def test_infinity_probes_the_bound(self):
        base, delta = psi_delta(dyadic_grid(6), INFINITY)
        assert base == OMEGA and delta == ZERO
        base, delta = psi_delta(nested_grid(6), INFINITY)
        assert base == OMEGA_SQ and delta == ZERO

    def test_nested_locator(self):
        grid = nested_grid(2)
        for t in [Fraction(0), Fraction(1, 4), Fraction(3, 8), Fraction(5, 7),
                  Fraction(9, 8), Fraction(31, 32)]:
            base = grid.locate(vt(t))
            assert grid(base) >= vt(t)
            below = _predecessor_times(grid, base)
            assert all(x < vt(t) for x in below)

    @given(st.builds(Fraction, st.integers(0, 10 ** 6),
                     st.integers(1, 10 ** 6)), st.integers(-3, 8))
    @settings(max_examples=200)
    def test_nested_locator_reads_the_level_off_the_gap(self, t, n):
        assert nested_grid(n).locate(vt(t)) == nested_locate_oracle(n, t)

    @given(st.builds(Fraction, st.integers(0, 64), st.integers(1, 16)),
           st.integers(0, 6))
    @settings(max_examples=60)
    def test_delta_monotone_along_refinements(self, t, n):
        for family in (dyadic_family(), nested_family()):
            here = psi_delta(family.member(n), vt(t))[1]
            deeper = psi_delta(family.member(n + 1), vt(t))[1]
            assert ord_cmp(here, deeper) <= 0


def _predecessor_times(grid, base):
    times = []
    for k in range(1, 4):
        step = ordinal(k)
        if ord_cmp(step, base) <= 0:
            # sample a few immediate predecessors where they exist
            cnf = list(base.cnf)
            if cnf and cnf[-1][0] == 0:
                down = cnf[-1][1] - k
                if down >= 0:
                    tail = ((0, down),) if down else ()
                    times.append(grid(Ordinal(tuple(cnf[:-1]) + tail)))
    return times


class TestVerticalExtent:
    def test_symbolic_values(self):
        assert gamma(dyadic_family(), vt(0)) == OMEGA
        assert gamma(nested_family(), vt(0)) == OMEGA_SQ
        assert gamma(dyadic_family(), vt(Fraction(7, 3))) == OMEGA

    def test_registered_extent_at_infinity(self):
        # the member grid's bound, decided; the same grids in an unnamed
        # family are refused
        for family, bound in ((dyadic_family(), OMEGA),
                              (nested_family(), OMEGA_SQ)):
            assert gamma(family, INFINITY) == bound == family.member(0).bound
            with pytest.raises(InputError, match="registered"):
                gamma(GridFamily(family.member), INFINITY)

    def test_extent_is_a_limit_ordinal(self):
        from exform.vtime import is_limit
        for family in (dyadic_family(), nested_family()):
            for t in [vt(0), vt(1), vt(Fraction(5, 16))]:
                assert is_limit(gamma(family, t))


class TestTiltingLimits:
    def test_stop_at_first_opportunity(self):
        result = tilting_limit(ALICE, dyadic_family())
        assert result.converged and result.stop == vt(0, ordinal(1))

    def test_stop_at_second_opportunity(self):
        result = tilting_limit(BOB, dyadic_family())
        assert result.converged and result.stop == vt(0, ordinal(2))

    def test_alternation_diverges(self):
        result = tilting_limit(CAROL, dyadic_family())
        assert not result.converged
        probe, n0, period = result.witness
        assert probe == vt(0, ordinal(1))
        assert n0 == tilt.START_DEPTH and period == (1, 0)
        # the window read the same indicators, alternating from its start
        values = window_tilting_limit(CAROL, dyadic_family()).witness[1]
        assert values == (1, 0) * 10 + (1,)

    def test_nested_family_tilts_the_same_processes_higher(self):
        alice = StopIndexFamily(kappa=(OMEGA,))
        bob = StopIndexFamily(kappa=(parse_ordinal("w*2"),))
        assert tilting_limit(alice, nested_family()).stop == vt(0, OMEGA)
        assert tilting_limit(bob, nested_family()).stop \
            == vt(0, parse_ordinal("w*2"))

    def test_left_extension_above_the_extent(self):
        probes = [vt(0, ordinal(1)), vt(0, OMEGA), VTime(0, OMEGA1)]
        result = tilting_limit(ALICE, dyadic_family(), probes=probes)
        assert result.table[vt(0, ordinal(1))] == 0
        assert result.table[vt(0, OMEGA)] == 0
        assert result.table[VTime(0, OMEGA1)] == 0

    def test_uniqueness_across_runs(self):
        probes = default_probes(BOB)
        first = tilting_limit(BOB, dyadic_family(), probes=probes)
        second = tilting_limit(BOB, dyadic_family(), probes=probes)
        assert first.table == second.table and first.stop == second.stop

    def test_linearity_of_real_valued_tables(self):
        # a real-valued process is no stop-index family: the window reads
        # its tables, and a tilting limit refuses it
        def stopper(threshold):
            return lambda n, time: 1 if time < vt(threshold * Fraction(1, 2 ** n)) else 0

        probes = [vt(0, ordinal(k)) for k in range(6)]
        one = window_tilting_limit(stopper(1), dyadic_family(), probes=probes)
        three = window_tilting_limit(stopper(3), dyadic_family(), probes=probes)
        mixed = window_tilting_limit(
            lambda n, time: 5 * stopper(1)(n, time) + stopper(3)(n, time),
            dyadic_family(), probes=probes)
        for probe in probes:
            assert mixed.table[probe] == 5 * one.table[probe] + three.table[probe]
        with pytest.raises(InputError, match="stop-index family"):
            tilting_limit(stopper(1), dyadic_family(), probes=probes)

    def test_single_late_switch_is_inconclusive(self):
        # a kappa of 1 up to depth 22 and 2 from 23 on switches once in
        # the window's tail; such a kappa declares no period, and is refused
        with pytest.raises(InputError, match="nonempty tuple of ordinals"):
            StopIndexFamily(kappa=lambda n: ordinal(1) if n < 23 else ordinal(2))
        with pytest.raises(WindowInconclusive):
            settle([0] * 19 + [1, 1], Window(), vt(0, ordinal(1)))

    def test_a_tail_with_two_switches_oscillates(self):
        # the least number of switches the window reads as oscillation
        window = Window(0, 7, 3)
        assert settle([1, 1, 1, 1, 1, 0, 1, 0], window, vt(0)) is None
        assert settle([0, 0, 0, 0, 1, 0, 1, 0], Window(0, 7, 4),
                      vt(0)) is None

    def test_a_tail_with_one_switch_is_inconclusive(self):
        window = Window(0, 7, 3)
        with pytest.raises(WindowInconclusive):
            settle([1, 1, 1, 1, 1, 0, 0, 1], window, vt(0))
        with pytest.raises(WindowInconclusive):
            settle([1, 0, 1, 0, 1, 1, 0, 0], window, vt(0))

    def test_excessive_stop_index_rejected(self):
        runaway = StopIndexFamily(kappa=(OMEGA_SQ,))
        with pytest.raises(InputError):
            tilting_limit(runaway, dyadic_family())

    @pytest.mark.parametrize("kappa", [
        (), None, [ordinal(1)], (ordinal(1), 2), lambda n: ordinal(1)])
    def test_a_kappa_that_is_no_tuple_of_ordinals_is_rejected(self, kappa):
        with pytest.raises(InputError, match="nonempty tuple of ordinals"):
            StopIndexFamily(kappa=kappa)

    @pytest.mark.parametrize("options, match", [
        ({"anchor": "x"}, "anchor must be"),
        ({"anchor": INFINITY}, "anchor must be"),
        ({"anchor": VTime(0, OMEGA1)}, "anchor must be"),
        ({"kappa": (ordinal(1),), "anchor": vt(0, ordinal(2))}, "not both"),
    ], ids=["not-a-time", "infinity", "omega1", "kappa-and-anchor"])
    def test_an_anchor_is_checked_when_built(self, options, match):
        # each raised an AttributeError or a TypeError in tilting_limit,
        # or tilted to the anchor with its kappa ignored
        with pytest.raises(InputError, match=match):
            StopIndexFamily(**options)

    def test_no_kappa_is_rejected_unless_anchored(self):
        with pytest.raises(InputError, match="nonempty tuple of ordinals"):
            StopIndexFamily()
        anchored = StopIndexFamily(anchor=vt(0, ordinal(2)))
        assert tilting_limit(anchored, dyadic_family()).stop == vt(0, ordinal(2))


class TestStopIndicatorSynthesis:
    def test_examples(self):
        for text, name in [("(0, 1)", "dyadic"), ("(0, w*2)", "nested"),
                           ("(0, 0)", "dyadic")]:
            family, process = approximate_stop_indicator(parse_vtime(text))
            assert family.name == name
            assert tilting_limit(process, family).stop == parse_vtime(text)

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRange):
            approximate_stop_indicator(vt(0, OMEGA_SQ))
        with pytest.raises(TargetOutOfRange):
            approximate_stop_indicator(INFINITY)
        with pytest.raises(TargetOutOfRange):
            approximate_stop_indicator(VTime(1, OMEGA1))

    @given(st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 2, 4, 8])),
           st.integers(0, 3), st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, t, blocks, steps):
        vertical = ord_add(Ordinal(((1, blocks),)) if blocks else ZERO,
                           ordinal(steps))
        target = VTime(t, vertical)
        family, process = approximate_stop_indicator(target)
        result = tilting_limit(process, family)
        assert result.converged and result.stop == target
        for probe, value in result.table.items():
            assert value == (1 if probe < target else 0)


# --- the per-probe window reader as oracle ------------------------------------
# tilting_limit as it read each (probe, depth) afresh, by grid time: two
# family.member calls and one stop-index locate per read.  The window reader
# reads a probe's indicators over a window of depths and settles them by the
# window's tail, which is evidence, not a proof: it serves any process and
# grid family, plain callables and unregistered families too.  On a
# registered family it is exact at each depth, so a deep window from the
# closed form's first depth, put in closed-form terms, is the closed form's
# oracle.

class WindowInconclusive(Exception):
    """A window's tail is neither constant nor oscillating: the window
    reader leaves the limit undecided."""


@dataclass(frozen=True)
class Window:
    """Grid depths a windowed verdict reads per probe, and the constant
    tail it requires."""

    start: int = tilt.START_DEPTH
    stop: int = 24
    tail: int = 8

    def depths(self):
        return range(self.start, self.stop + 1)


def settle(values, window, probe):
    """The limit a window's tail shows: its value when constant, None when
    it switches at least twice; a single switch is inconclusive."""
    tail = values[-window.tail:]
    if all(x == tail[0] for x in tail):
        return tail[0]
    switches = sum(1 for a, b in zip(tail, tail[1:]) if a != b)
    if switches >= 2:
        return None                    # oscillation over the window
    raise WindowInconclusive(
        f"window tail neither constant nor oscillating at "
        f"{format_vtime(probe)}")


def oracle_value(process, family, n, index):
    grid = family.member(n)
    time = grid(index)
    if isinstance(process, StopIndexFamily):
        return 1 if time < grid(process.index(n, grid)) else 0
    return process(n, time)


def oracle_probe_values(process, family, t, beta, window):
    values = []
    for n in window.depths():
        base = tilt._locate(family.member(n), t)
        values.append(oracle_value(process, family, n, ord_add(base, beta)))
    return values


def empirical_gamma(family, t):
    """
    The vertical extent as the window reader reads it, (extent, exact):
    symbolic for the registered families, and otherwise the first offset
    whose time at depth 16 exceeds t, up to 1,024 offsets.
    """
    if not isinstance(t, VTime):
        t = vt(t)
    if family.name == "dyadic":
        return OMEGA, True
    if family.name == "nested":
        return OMEGA_SQ, True
    # empirical: offsets whose times exceed t at the deepest sampled grid
    deep = family.member(16)
    base = tilt._locate(deep, t)
    for k in range(2 ** 10):
        offset = ordinal(k)
        if deep(ord_add(base, offset)) > t:
            return offset, False
    return deep.bound, False


def closed_form_input(process, family):
    return isinstance(process, StopIndexFamily) \
        and family.name in tilt.REGISTERED


def stop_indices(process):
    return (process.anchor.v,) if process.anchor is not None \
        else process.kappa


def left_stage(process, extent):
    """The stage a closed form reads for a probe at or above the vertical
    extent: the first of the extent's fundamental sequence at or above
    every stop index below the extent."""
    top = max((k for k in stop_indices(process) if k < extent), default=ZERO)
    return next(s for s in fundamental_sequence(extent) if s >= top)


def probe_stages(process, family, probe):
    """(t, the stages read at probe): its vertical part below the extent;
    at or above it, the left stage of a closed-form input, and twelve
    stages of the extent's fundamental sequence otherwise."""
    if probe.is_infinity:
        t, beta = INFINITY, ZERO
    else:
        t, beta = vt(probe.t), probe.v
    extent, _ = empirical_gamma(family, t)
    if isinstance(beta, Ordinal) and ord_cmp(beta, extent) < 0:
        return t, [beta]
    if closed_form_input(process, family):
        return t, [left_stage(process, extent)]
    return t, list(itertools.islice(fundamental_sequence(extent), 12))


def window_tilting_limit(process, family, probes=None, window=Window()):
    """The window reader: a probe's limit is the value its settled stages
    agree on in their last four, and a witness of divergence is (probe,
    the window's values)."""
    if probes is None:
        probes = default_probes(process)
    table = {}
    for probe in sorted(set(probes)):
        t, stages = probe_stages(process, family, probe)
        settled = []
        for stage in stages:
            values = oracle_probe_values(process, family, t, stage, window)
            limit = settle(values, window, probe)
            if limit is None:
                return TiltingResult(False, None, table, (probe, tuple(values)))
            settled.append(limit)
        tail = settled[-4:]
        if any(x != tail[0] for x in tail):
            raise WindowInconclusive(
                f"window shows no eventual constancy below the vertical "
                f"extent at {format_vtime(probe)}")
        table[probe] = tail[0]
    stop = tilt._stop_descriptor(
        process, empirical_gamma(family, INFINITY)[0]) \
        if isinstance(process, StopIndexFamily) else None
    return TiltingResult(True, stop, table, None)


def oracle_period(process, family, t, beta, deep):
    """(limit or None, n0, period) off a deep window from the closed form's
    first depth: n0 is the least depth from which its values repeat with
    kappa's period, and they must show four periods from there."""
    period = 1 if process.anchor is not None else len(process.kappa)
    start = tilt.START_DEPTH
    values = oracle_probe_values(process, family, t, beta,
                                 Window(start, start + deep, 1))
    i = len(values) - period
    while i > 0 and values[i - 1] == values[i - 1 + period]:
        i -= 1
    assert len(values) - i >= 4 * period, "the deep window misses the period"
    cycle = tuple(values[i:i + period])
    return (cycle[0] if len(set(cycle)) == 1 else None), start + i, cycle


def oracle_tilting_limit(process, family, probes=None, deep=40):
    """The closed form's oracle: each probe's period off a deep window."""
    if probes is None:
        probes = default_probes(process)
    table = {}
    for probe in sorted(set(probes)):
        t, (stage,) = probe_stages(process, family, probe)
        limit, n0, cycle = oracle_period(process, family, t, stage, deep)
        if limit is None:
            return TiltingResult(False, None, table, (probe, n0, cycle))
        table[probe] = limit
    stop = tilt._stop_descriptor(process, empirical_gamma(family, INFINITY)[0])
    return TiltingResult(True, stop, table, None)


def assert_stop_agrees(result):
    """The stop descriptor's cross-check, which compares two exact results:
    every probe of a converged result with a stop descriptor reads 1
    exactly when it lies below the stop."""
    if result.converged and result.stop is not None:
        for probe, value in result.table.items():
            assert value == (1 if probe < result.stop else 0), (probe, result)


def run_tilt(limit, process, family, **options):
    """Every field of the result, its table in order, or the error's class
    and message."""
    try:
        result = limit(process, family, **options)
    except Exception as err:
        return type(err), str(err)
    assert_stop_agrees(result)
    return ([getattr(result, f.name) for f in fields(result)],
            list(result.table.items()))


def counted(family):
    """The family with its member calls recorded, depth by depth."""
    calls = []

    def member(n):
        calls.append(n)
        return family.member(n)

    return GridFamily(member, family.name), calls


@pytest.fixture
def grid_reads(monkeypatch):
    """The (grid, index) pairs of every grid time read, in order."""
    reads = []
    read = Grid.__call__

    def counted_read(grid, beta):
        reads.append((grid, beta))
        return read(grid, beta)

    monkeypatch.setattr(Grid, "__call__", counted_read)
    return reads


def path_targets():
    for whistle in (Fraction(0), Fraction(5, 8)):
        for level in range(6):
            yield VTime(whistle, ordinal(level))
        for k in range(4):
            yield VTime(whistle, ord_add(OMEGA, ordinal(k)))


CLI_KAPPAS = ["alt:1,4", "alt:w,w*2", "0", "1", "3", "w", "w*2+1"]
CLI_OPTIONS = [{}, {"probes": [vt(0, ordinal(1)), vt(0, OMEGA), INFINITY]},
               {"probes": []}]
PROBES = [vt(0, ordinal(1)), vt(Fraction(1, 3), ordinal(2))]


def oracle_cases():
    """(process, family, options) triples: the path tilts, the tilt CLI's
    families and kappas, a divergence, empty probe lists, a probe whose
    own index is over the cap and a stop index past the bound."""
    for target in path_targets():
        family, process = approximate_stop_indicator(target)
        yield process, family, {}
        yield process, family, {"probes": []}
    for name, factory in sorted(tilt.REGISTERED.items()):
        for text in CLI_KAPPAS:
            process = StopIndexFamily(kappa=cli._parse_kappa(text))
            for options in CLI_OPTIONS:
                yield process, factory(), options
    for options in ({}, {"probes": PROBES}, {"probes": []}):
        yield CAROL, dyadic_family(), options
    # reading the probe's own index raises before the stop index, past the
    # nested grid's bound, is read
    yield (StopIndexFamily(kappa=(ord_succ(OMEGA_SQ),)), nested_family(),
           {"probes": [vt(0, ordinal(tilt.DEPTH_CAP + 1))]})
    # a stop index past the bound reads infinity, as the bound itself does,
    # so an anchor at or past the vertical extent stops at infinity: a probe
    # at a later real time still reads 1
    yield (StopIndexFamily(anchor=VTime(0, ord_add(OMEGA, OMEGA))),
           dyadic_family(), {"probes": [vt(0, ordinal(1)), INFINITY]})
    yield (StopIndexFamily(anchor=VTime(Fraction(1, 4), OMEGA)),
           dyadic_family(), {"probes": [vt(Fraction(1, 2))]})
    yield (StopIndexFamily(anchor=VTime(Fraction(1, 4), OMEGA_SQ)),
           nested_family(), {"probes": [vt(Fraction(1, 2)), INFINITY]})


class TestAgainstPerProbeReads:
    def test_every_case_agrees(self):
        seen = set()
        for process, family, options in oracle_cases():
            fast = run_tilt(tilting_limit, process, family, **options)
            slow = run_tilt(oracle_tilting_limit, process, family, **options)
            assert fast == slow, (process, family.name, options)
            seen.add(fast[0] if isinstance(fast[0], type)
                     else fast[0][0])
        # the cases reach convergence, divergence and raised errors alike
        assert {True, False, InputError, BudgetExceeded} <= seen

    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, OMEGA,
                                       ord_add(OMEGA, ordinal(3))])
    def test_path_tilt(self, level):
        config = TimingConfig(whistle=Fraction(3, 7))
        family, process = approximate_stop_indicator(
            VTime(config.whistle, ordinal(level)))
        expected = oracle_tilting_limit(process, family)
        assert path_tilt(config, level) == expected.stop

    @pytest.mark.parametrize("text, top", [("alt:1,4", False), ("3", True),
                                           ("w", True)])
    @pytest.mark.parametrize("name", sorted(tilt.REGISTERED))
    def test_one_grid_per_depth(self, name, text, top):
        # each depth's grid is built once, however many probes read it; at
        # time 0 the closed form reads one period from its first depth,
        # where the window read its 21 depths
        family, calls = counted(tilt.REGISTERED[name]())
        process = StopIndexFamily(kappa=cli._parse_kappa(text))
        result = tilting_limit(process, family)
        assert result.converged != text.startswith("alt:")
        start = tilt.START_DEPTH
        assert calls == [start] + [start + 1] * (not top)

    def test_one_locate_per_depth_and_time(self, monkeypatch, grid_reads):
        # every default probe of the anchored family shares the anchor's
        # time, and its stop index reads the same table: one locate at the
        # one depth the closed form reads, where the window's 21 depths
        # made 21 and a locate per (probe, depth) and stop index made 105
        calls = []
        locate = tilt._locate

        def counted_locate(grid, t):
            calls.append((grid, t))
            return locate(grid, t)

        monkeypatch.setattr(tilt, "_locate", counted_locate)
        assert path_tilt(TimingConfig(), 3) == vt(0, ordinal(3))
        assert len(calls) == len({(id(g), t) for g, t in calls}) == 1
        # the preemption race's tilts stop where they did, and on their
        # registered family no grid time is read, where the time reads
        # made 63, 84, 105 and 105
        grid_reads.clear()
        for level in range(4):
            assert path_tilt(TimingConfig(), level) == vt(0, ordinal(level))
        assert grid_reads == []

    def test_registered_family_names_decide_by_index(self, grid_reads):
        # a registered family keeps its name when its member calls are
        # counted, and reads no grid time; the same member function in an
        # unnamed family is unregistered and refused, and the window reader
        # compares its grid times at every depth (empirical_gamma samples
        # only depth 16's grid, and puts the vertical extent at time 0 at 1,
        # above the probe (0, 0))
        registered, _ = counted(dyadic_family())
        fast = run_tilt(tilting_limit, BOB, registered, probes=[vt(0)])
        assert grid_reads == []
        assert fast[0][0] and fast == run_tilt(
            oracle_tilting_limit, BOB, registered, probes=[vt(0)])
        unregistered = GridFamily(dyadic_grid)
        with pytest.raises(InputError):
            tilting_limit(BOB, unregistered, probes=[vt(0)])
        grid_reads.clear()
        read = window_tilting_limit(BOB, unregistered, probes=[vt(0)])
        assert {grid.gap for grid, _ in grid_reads} \
            == {Fraction(1, 2 ** n) for n in Window().depths()}
        assert read.table == fast[0][2]

    @pytest.mark.parametrize("name", sorted(tilt.REGISTERED))
    def test_cli_json_as_the_per_probe_reads(self, monkeypatch, name):
        for text in CLI_KAPPAS:
            for probe in ([], ["--probe", "(0, 1);(0, w);(1/3, 2)"]):
                args = ["tilt", "--family", name, "--kappa", text, *probe,
                        "--json"]
                fast = CliRunner().invoke(cli.cli, args)
                with monkeypatch.context() as m:
                    m.setattr(tilt, "tilting_limit", oracle_tilting_limit)
                    slow = CliRunner().invoke(cli.cli, args)
                assert (fast.exit_code, fast.output) \
                    == (slow.exit_code, slow.output)

    @pytest.mark.parametrize("target", list(path_targets()))
    def test_one_grid_per_depth_of_a_path_tilt(self, target):
        family, process = approximate_stop_indicator(target)
        family, calls = counted(family)
        assert tilting_limit(process, family).converged
        # every probe sits at the anchor's time, so one depth decides it
        assert calls == [tilt.START_DEPTH]
        # the per-probe reads built two grids per (probe, depth)
        family, calls = counted(family)
        oracle_tilting_limit(process, family)
        assert len(calls) > 2 * len(Window().depths())


# --- the closed form against a deep window --------------------------------------
# On a registered family a window decides each depth exactly, so a window that
# spans several periods past n0 is the closed form's oracle.

DEEP = Window(tilt.START_DEPTH, 120, 8)
SWEEP_KAPPAS = ["0", "1", "3", "5", "alt:1,4", "alt:0,3", "w", "w*2+1",
                "alt:1,w"]
SWEEP_PROBES = [VTime(Fraction(p, 2 ** q), v) for p in (1, 3)
                for q in (0, 3, 10, 20, 23, 26, 30, 36)
                for v in (ZERO, ordinal(1), OMEGA)]


def verdict(limit, process, family, **options):
    """Converged, stop, table and the witness's probe, or the error."""
    try:
        result = limit(process, family, **options)
    except Exception as err:
        return type(err), str(err)
    assert_stop_agrees(result)
    return (result.converged, result.stop, list(result.table.items()),
            result.witness and result.witness[0])


def search_locate(grid, t):
    """The least index whose grid time is at least t, by climbing the
    finite indices: what _locate searched on a grid without a locator."""
    index = ZERO
    for _ in range(2 ** 12):
        if grid(index) >= t:
            return index
        index = ord_succ(index)
    raise InputError("cannot locate a time on an unregistered infinite grid")


class TestClosedForm:
    def test_the_sweep_gives_the_deep_window_verdict(self):
        cases = diverged = 0
        for name, factory in sorted(tilt.REGISTERED.items()):
            for text in SWEEP_KAPPAS:
                process = StopIndexFamily(kappa=cli._parse_kappa(text))
                for probe in SWEEP_PROBES:
                    options = {"probes": [probe]}
                    fast = tilting_limit(process, factory(), **options) \
                        if "w*2" not in text or name == "nested" else None
                    deep = verdict(window_tilting_limit, process, factory(),
                                   window=DEEP, **options)
                    assert verdict(tilting_limit, process, factory(),
                                   **options) == deep, (name, text, probe)
                    cases += 1
                    if fast is None or fast.converged:
                        continue
                    diverged += 1
                    n0, cycle = fast.witness[1:]
                    if probe.v == OMEGA and name == "dyadic":
                        continue       # left extension: another stage
                    values = window_tilting_limit(process, factory(),
                                                  window=DEEP,
                                                  **options).witness[1]
                    assert all(values[n - DEEP.start]
                               == cycle[(n - n0) % len(cycle)]
                               for n in range(n0, DEEP.stop + 1))
                    assert n0 == DEEP.start \
                        or values[n0 - 1 - DEEP.start] != cycle[-1]
        assert (cases, diverged) == (864, 48)

    @given(st.integers(0, 60), st.sampled_from([3, 5, 7]), st.integers(0, 3),
           st.sampled_from([ZERO, ordinal(1), OMEGA, ord_add(OMEGA, ordinal(1))]),
           st.sampled_from(SWEEP_KAPPAS + ["alt:w,w*2", "alt:w*2+1,w+3"]))
    @settings(max_examples=60, deadline=None)
    def test_nested_probes_of_odd_denominators(self, p, d, k, v, text):
        process = StopIndexFamily(kappa=cli._parse_kappa(text))
        options = {"probes": [VTime(Fraction(p, d * 2 ** k), v)]}
        assert run_tilt(tilting_limit, process, nested_family(), **options) \
            == run_tilt(oracle_tilting_limit, process, nested_family(),
                        **options)

    @given(st.sampled_from(list(path_targets())),
           st.sampled_from([Fraction(1, 3), Fraction(5, 7), Fraction(1, 5)]),
           st.integers(0, 12), st.booleans(),
           st.sampled_from([ZERO, ordinal(1), ordinal(4), OMEGA,
                            ord_add(OMEGA, ordinal(2))]))
    @settings(max_examples=60, deadline=None)
    def test_anchored_targets_probed_off_the_anchor(self, target, step, k,
                                                    above, v):
        family, process = approximate_stop_indicator(target)
        shift = step / 2 ** k
        t = target.t + shift if above or target.t < shift else target.t - shift
        options = {"probes": [VTime(t, v), VTime(target.t, v)]}
        fast = run_tilt(tilting_limit, process, family, **options)
        assert fast == run_tilt(oracle_tilting_limit, process, family,
                                **options)
        assert fast[0][0] and fast[1] == [
            (p, 1 if p < target else 0) for p in sorted(options["probes"])]

    @pytest.mark.parametrize("level", range(4))
    def test_the_race_path_tilts(self, level):
        config = TimingConfig(whistle=Fraction(5, 8))
        family, process = approximate_stop_indicator(
            VTime(config.whistle, ordinal(level)))
        result = tilting_limit(process, family)
        assert result.stop == path_tilt(config, level)
        assert run_tilt(tilting_limit, process, family) \
            == run_tilt(oracle_tilting_limit, process, family, deep=116)

    @pytest.mark.parametrize("name, text", [
        (name, text) for name in sorted(tilt.REGISTERED)
        for text in ["alt:1,4", "alt:3,5", "7"]] + [("nested", "alt:w*2,w")])
    def test_every_stage_past_the_left_one_reads_alike(self, name, text):
        # a probe at the extent reads one stage; the stages after it agree
        family = tilt.REGISTERED[name]()
        process = StopIndexFamily(kappa=cli._parse_kappa(text))
        extent = gamma(family, vt(0))
        first = left_stage(process, extent)
        stages = itertools.islice(fundamental_sequence(extent), 40)
        later = [s for s in stages if s >= first][:4]
        def read(probe):
            result = tilting_limit(process, family, probes=[probe])
            return result.converged, list(result.table.values()), \
                result.witness and result.witness[1:]

        assert len(later) == 4
        for stage in later:
            assert read(vt(0, stage)) == read(vt(0, extent))

    @given(st.one_of(st.integers(31, 90).map(lambda n: {"period": n}),
                     st.integers(31, 200).map(lambda q: {"q": q})))
    @settings(max_examples=30, deadline=None)
    def test_past_the_depth_cap_is_undecided(self, case):
        # a period, or a depth from which a probe settles, past the cap
        if "period" in case:
            kappa = tuple(ordinal(k % 3) for k in range(case["period"]))
            process, probes = StopIndexFamily(kappa=kappa), [vt(0, ordinal(1))]
        else:
            process = StopIndexFamily(kappa=(ordinal(3),))
            probes = [vt(Fraction(1, 2 ** case["q"]))]
        with pytest.MonkeyPatch.context() as m:
            m.setenv("EXFORM_BUDGET", "30")
            with pytest.raises(BudgetExceeded, match="closed-form depth"):
                tilting_limit(process, dyadic_family(), probes=probes)

    @pytest.mark.parametrize("name, kappa, probe, value", [
        # a kappa of the bound alone has no coefficient to pass
        ("dyadic", (OMEGA,), VTime(Fraction(1, 2 ** 14000), ZERO), 1),
        # the probe's offset 1000 is past kappa 3 at every depth
        ("dyadic", (ordinal(3),),
         VTime(Fraction(1, 2 ** 9995), ordinal(1000)), 0),
        # ceil(2^(n - 9998)) passes 2 from depth 9999; the closed form,
        # waiting for 2^(n - 9998) > 2, reads depth 10000, the cap
        ("dyadic", (ordinal(2),), VTime(Fraction(1, 2 ** 9998), ZERO), 0),
        # an anchor at 1/2 + w*40, probed 2^-9997 later at the same offset:
        # the gap of the two w-coefficients passes 1 from depth 9998 on
        ("nested", None, VTime(Fraction(1, 2) + Fraction(1, 2 ** 9997),
                               Ordinal(((1, 40),))), 0),
    ])
    def test_decided_within_the_cap(self, name, kappa, probe, value):
        process = StopIndexFamily(kappa=kappa) if kappa else \
            StopIndexFamily(anchor=VTime(Fraction(1, 2), Ordinal(((1, 40),))))
        result = tilting_limit(process, tilt.REGISTERED[name](), probes=[probe])
        assert result.converged and list(result.table.values()) == [value]

    @pytest.mark.parametrize("name, kappa, t", [
        # at odd depths the index ceil(3 * 2^(n-10)) is below 3 up to
        # depth 9 and not from 11 on: n0 = 10, the period (1, 0)
        ("dyadic", "alt:3,w", Fraction(3, 1024)),
        ("nested", "alt:w*3,w^2", Fraction(5, 1024)),
        # a period of three, (1, 0, 0) from depth 9, whose last stop index
        # 5 the index passes at depth 11
        ("dyadic", (OMEGA, ordinal(1), ordinal(5)), Fraction(3, 1024)),
    ])
    def test_a_divergence_reads_back_to_its_first_depth(self, name, kappa, t):
        kappa = cli._parse_kappa(kappa) if isinstance(kappa, str) else kappa
        process, options = StopIndexFamily(kappa=kappa), {"probes": [vt(t)]}
        fast = run_tilt(tilting_limit, process, tilt.REGISTERED[name](),
                        **options)
        assert not fast[0][0] and fast[0][3][1] > tilt.START_DEPTH
        assert fast == run_tilt(oracle_tilting_limit, process,
                                tilt.REGISTERED[name](), deep=60, **options)

    def test_a_settled_probe_reads_one_period(self):
        # 2^n / 8 passes kappa 3 + 1 from depth 6, which alone is read
        family, calls = counted(dyadic_family())
        result = tilting_limit(StopIndexFamily(kappa=(ordinal(3),)), family,
                               probes=[vt(Fraction(1, 8))])
        assert result.table == {vt(Fraction(1, 8)): 0}
        assert calls == [6]

    def test_the_rate_is_read_exactly(self, monkeypatch):
        # (2048 + 1) * 1024 // 1023 has 12 bits: t = 1023/1024 passes the
        # stop index 2048 + 1 at depth 12, well within a budget of 30
        monkeypatch.setenv("EXFORM_BUDGET", "30")
        probe = vt(Fraction(1023, 1024))
        result = tilting_limit(StopIndexFamily(kappa=(ordinal(2048),)),
                               dyadic_family(), probes=[probe])
        assert result.table == {probe: 0}

    def test_one_depth_past_the_cap_is_undecided(self):
        with pytest.raises(BudgetExceeded,
                           match="closed-form depth 10001 exceeds 10000"):
            tilting_limit(StopIndexFamily(kappa=(ordinal(2),)),
                          dyadic_family(),
                          probes=[vt(Fraction(1, 2 ** 9999))])

    def test_windowed_inputs_are_rejected(self):
        # a plain callable, or any process on an unregistered family, has
        # no closed form; the window reader still reads them
        unregistered = GridFamily(dyadic_grid)
        plain = lambda n, time: 1 if time < vt(3 * Fraction(1, 2 ** n)) else 0
        for process, family in ((plain, dyadic_family()), (BOB, unregistered)):
            with pytest.raises(InputError, match="stop-index family on a "
                                                 "registered grid family"):
                tilting_limit(process, family, probes=PROBES)
            assert window_tilting_limit(process, family,
                                        probes=[vt(0)]).table == {vt(0): 1}

    def test_a_kappa_reads_the_stage_above_its_stops(self):
        # at (0, w) on dyadic, every stage from 21 on reads 0 at every
        # depth; the window reader's twelve stages (0 to 11) of a plain
        # callable stopping at the 21st opportunity read 1, below the stops
        probes = [VTime(0, OMEGA)]
        result = tilting_limit(StopIndexFamily(kappa=(ordinal(21), ordinal(20))),
                               dyadic_family(), probes=probes)
        assert result.table == {probes[0]: 0}
        plain = window_tilting_limit(
            lambda n, t: 1 if t < vt(Fraction(21, 2 ** n)) else 0,
            dyadic_family(), probes=probes)
        assert plain.table == {probes[0]: 1}

    @given(st.builds(Fraction, st.integers(0, 40), st.integers(1, 64)),
           st.integers(0, 6), st.sampled_from([Fraction(0), Fraction(5, 8)]))
    @settings(max_examples=60, deadline=None)
    def test_locators_as_a_search(self, t, n, whistle):
        for grid in (dyadic_grid(n), race_grid(TimingConfig(whistle=whistle), n)):
            assert grid.locate(vt(t)) == search_locate(grid, vt(t))

    def test_a_grid_without_a_locator_is_rejected(self):
        with pytest.raises(InputError, match="without a locator"):
            psi_delta(table_grid([0, 1, 2, None]), vt(1))
