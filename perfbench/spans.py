"""
Span tracing of exform's layers from outside the package.

``Tracer.install`` replaces each traced public function in every exform
module namespace that bound it (and the SDF lookup methods on their
class) by a wrapper that records a span: name, start and end
(``perf_counter_ns``), parent span and op id.  Spans stay in memory in
flat arrays; ``layer_stats`` derives each span's self time as its duration
minus its child spans, and ``dump`` writes them out when the run ends.
"""

import contextlib
import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# every traced name as (module, attribute); a dotted attribute is a method
TARGETS = (
    ("forest", "validate_decision_forest"),
    ("sdf", "validate_sdf"),
    ("sdf", "StochasticDecisionForest.tree_of"),
    ("sdf", "StochasticDecisionForest.root_of"),
    ("sdf", "StochasticDecisionForest.scenario_of_outcome"),
    ("sef", "validate_sef"),
    ("sef", "info_sets"),
    ("sef", "strategies"),
    ("instances", "mp_sef"),
    ("instances", "amd_sef"),
    ("play", "profile_tables"),
    ("play", "outcome_from"),
    ("play", "check_wellposed_direct"),
    ("play", "check_wellposed_order"),
    ("equil", "check_dynamic_consistency"),
    ("equil", "check_dynamic_rationality"),
    ("equil", "bayes_beliefs"),
    ("equil", "verify_equilibrium"),
    ("order", "dm_completion"),
    ("order", "is_complete_lattice"),
    ("order", "check_dense_completion"),
    ("timing", "monte_carlo"),
    ("timing", "sample_race"),
    ("timing", "grid_approximant"),
    ("timing", "deviation_payoff"),
    ("tilt", "tilting_limit"),
    ("tilt", "validate_grid"),
    ("cli", "parse_sef"),
    ("cli", "load_instance"),
)


def _span_name(module, attr):
    return f"{module}.{attr.rpartition('.')[2]}"


# counters read off a traced call's arguments and result
def _count_strategies(counters, args, result):
    counters["strategies"] += len(result)


def _count_cuts(counters, args, result):
    counters["cuts"] += len(result[0].elements)
    counters["subsets"] += 2 ** len(args[0].elements)


def _count_trials(counters, args, result):
    counters["trials"] += args[0].trials


HOOKS = {"sef.strategies": _count_strategies,
         "order.dm_completion": _count_cuts,
         "timing.monte_carlo": _count_trials}

# spans whose self times one metric adds up
GROUPS = {"sdf.lookup": ("sdf.tree_of", "sdf.root_of", "sdf.scenario_of_outcome"),
          "instances.build": ("instances.mp_sef", "instances.amd_sef")}

# the per-layer metrics, as (name, unit, better): "<span or group>.self_s"
# is a self time, "<span>.calls" a call count, the rest are derived below
METRICS = (
    ("sdf.validate_sdf.self_s", "s", "lower"),
    ("forest.validate_decision_forest.self_s", "s", "lower"),
    ("sdf.tree_of.calls", "count", "lower"),
    ("sdf.root_of.calls", "count", "lower"),
    ("sdf.lookup.self_s", "s", "lower"),
    ("sef.validate_sef.calls", "count", "lower"),
    ("sef.validate_sef.self_s", "s", "lower"),
    ("instances.build.self_s", "s", "lower"),
    ("sef.info_sets.self_s", "s", "lower"),
    ("sef.strategies.self_s", "s", "lower"),
    ("play.profile_tables.calls", "count", "lower"),
    ("play.outcome_from.calls", "count", "lower"),
    ("play.outcome_from.self_s", "s", "lower"),
    ("play.check_wellposed_direct.self_s", "s", "lower"),
    ("play.check_wellposed_order.self_s", "s", "lower"),
    ("equil.check_dynamic_consistency.self_s", "s", "lower"),
    ("equil.check_dynamic_rationality.self_s", "s", "lower"),
    ("equil.bayes_beliefs.self_s", "s", "lower"),
    ("order.dm_completion.self_s", "s", "lower"),
    ("order.is_complete_lattice.self_s", "s", "lower"),
    ("order.check_dense_completion.self_s", "s", "lower"),
    ("timing.monte_carlo.self_s", "s", "lower"),
    ("timing.sample_race.calls", "count", "lower"),
    ("timing.grid_approximant.self_s", "s", "lower"),
    ("timing.deviation_payoff.self_s", "s", "lower"),
    ("tilt.tilting_limit.self_s", "s", "lower"),
    ("tilt.validate_grid.self_s", "s", "lower"),
    ("cli.command.self_s", "s", "lower"),
    ("cli.parse_sef.self_s", "s", "lower"),
    ("cli.load_instance.self_s", "s", "lower"),
    ("sef.strategies.enumerated", "count", "lower"),
    ("sef.validate_sef.setup_s", "s", "lower"),
    ("equil.deviations_per_verdict", "count", "lower"),
    ("order.dm_completion.closed_ratio", "ratio", "higher"),
    ("timing.trials_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def exform_modules():
    return [m for n, m in sys.modules.items()
            if n == "exform" or n.startswith("exform.")]


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def span(self, name):
        return contextlib.nullcontext()

    def op(self, op_id):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.names = []          # name id -> span name
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.windows = []        # (start, end) of each traced stretch
        self.absent = []
        self.counters = dict.fromkeys(("strategies", "cuts", "subsets", "trials"), 0)
        self._stack = []
        self._op = -1
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _leave(self, idx):
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._leave(idx)

    @contextlib.contextmanager
    def op(self, op_id):
        """A root span around one op; its spans carry the op id."""
        self._op = op_id
        with self.span("bench.op"):
            yield

    @contextlib.contextmanager
    def window(self):
        start = perf_counter_ns()
        try:
            yield
        finally:
            self.windows.append((start, perf_counter_ns()))

    def _wrap(self, name, fn):
        nid, hook = self._id(name), HOOKS.get(name)
        enter, leave, counters = self._enter, self._leave, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(idx)
            if hook is not None:
                hook(counters, args, result)
            return result
        return traced

    def install(self, X):
        """Wrap every traced name; a name the package no longer has is
        recorded as absent."""
        self.absent = []
        modules = exform_modules()
        for module_name, attr in TARGETS:
            name = _span_name(module_name, attr)
            owner = getattr(X, module_name)
            cls_name, _, attr = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            traced = self._wrap(name, original)
            if cls_name:
                self._rebind(owner, attr, original, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, traced)

    def _rebind(self, owner, key, original, traced):
        setattr(owner, key, traced)
        self._undo.append((owner, key, original))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def layer_stats(self, first):
        """Calls, self and total time per span name, split into the spans
        before index ``first`` (set-up) and from it on (timed ops), plus a
        check that self times and un-spanned time add up to the traced
        wall time."""
        n = len(self.start)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * n))
        contained = True
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
                contained &= self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]
        rationality = self._ids.get("equil.check_dynamic_rationality")
        tables = self._ids.get("play.profile_tables")
        under = bytearray(n)     # span lies inside a rationality span
        deviations = 0
        phases = ({}, {})
        total_self = 0
        for i in range(n):
            p = self.parent[i]
            nid = self.name[i]
            under[i] = nid == rationality or (p >= 0 and under[p])
            own = dur[i] - child[i]
            contained &= own >= 0
            total_self += own
            stats = phases[i >= first].setdefault(self.names[nid], [0, 0, 0])
            stats[0] += 1
            stats[1] += own
            stats[2] += dur[i]
            if i >= first and nid == tables and p >= 0 and under[p]:
                deviations += 1
        # un-spanned time: the gaps between root spans inside each traced
        # window, which must not overlap or leave their window
        roots = [i for i in range(n) if self.parent[i] < 0]
        unspanned, k = 0, 0
        for begin, end in self.windows:
            cursor = begin
            while k < len(roots) and self.start[roots[k]] < end:
                contained &= self.start[roots[k]] >= cursor
                unspanned += self.start[roots[k]] - cursor
                cursor = self.end[roots[k]]
                k += 1
            contained &= cursor <= end
            unspanned += end - cursor
        traced = sum(end - begin for begin, end in self.windows)
        return {
            "setup": phases[0], "ops": phases[1],
            "deviation_tables": deviations,
            "traced_ns": traced, "self_ns": total_self, "unspanned_ns": unspanned,
            "adds_up": contained and k == len(roots)
            and total_self + unspanned == traced,
        }

    def dump(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t"
                          f"{self.end[i]}\t{self.parent[i]}\t{self.op_id[i]}\n")


def layer_metrics(stats, counters, passes, overhead):
    """The per-layer metrics of a traced run, per pass of timed ops."""
    ops = stats["ops"]

    def total(span, field):
        return sum(ops.get(s, (0, 0, 0))[field] for s in GROUPS.get(span, (span,)))

    values = {}
    for name, _, _ in METRICS:
        span, _, stat = name.rpartition(".")
        if stat == "self_s":
            values[name] = total(span, 1) / 1e9 / passes
        elif stat == "calls":
            values[name] = total(span, 0) / passes
    verdicts = total("equil.verify_equilibrium", 0)
    sampling_s = total("timing.monte_carlo", 2) / 1e9
    values.update({
        "sef.strategies.enumerated": counters["strategies"] / passes,
        "sef.validate_sef.setup_s":
            stats["setup"].get("sef.validate_sef", (0, 0, 0))[1] / 1e9,
        "equil.deviations_per_verdict":
            stats["deviation_tables"] / verdicts if verdicts else 0,
        "order.dm_completion.closed_ratio":
            counters["cuts"] / counters["subsets"] if counters["subsets"] else 0,
        "timing.trials_per_s": counters["trials"] / sampling_s if sampling_s else 0,
        "trace.overhead_ratio": overhead,
    })
    return values
