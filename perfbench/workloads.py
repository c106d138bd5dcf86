"""
The four benchmark workloads.

Every workload is a closed loop with one caller: the harness runs a pass of
ops one after the other, each op starting when the previous one has
finished, and repeats passes.  A workload provides

* ``setup(X, rng, size)``: inputs and anything built once before the
  timed ops, returned as a state dict;
* ``pass_ops(state, rng)``: the ops of one pass, in seeded order;
* ``execute(X, state, op, tracer)``: one op, returning its output;
* ``check(state, op, output, seen)``: ``None`` when the output is right,
  else a description of what is wrong.  ``seen`` maps the keys of the
  ops already run in the same pass to their outputs.

``size`` is "full" for the benchmark and "tiny" for the benchmark's own
tests.  ``PASS_SECONDS`` is about the time one full-size pass took at the
commit that introduced the benchmark, on a shared 2-core x86-64 sandbox
with Python 3.11.7; a run of ``--seconds`` seconds does that many
seconds' worth of passes.
"""

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction
from typing import NamedTuple

from . import inputs


class Op(NamedTuple):
    kind: str
    key: object


F = Fraction
TWO_THIRDS = F(2, 3)
FOUR_FIFTHS = F(4, 5)


def _payoffs(value_i, value_j):
    return (("i", (value_i,)), ("j", (value_j,)))


class CoinMatching:
    """The paper's four coin-matching condition sets: verdicts and reached
    payoffs, each op building its form from scratch as a CLI call does."""

    name = "coin-matching"
    PASS_SECONDS = 7.0
    # (kind, case, first-mover map, second-mover picks, coin bias, expected)
    CHECKS = (
        ("verdict", 1, "const2", "react", TWO_THIRDS, True),
        ("verdict", 1, "z0split", "react", TWO_THIRDS, False),
        ("verdict", 1, "const1", "same", TWO_THIRDS, False),
        ("payoffs", 1, "const1", "react", TWO_THIRDS, _payoffs(F(-1, 3), F(1, 3))),
        ("payoffs", 1, "const1", "react", FOUR_FIFTHS, _payoffs(F(-3, 5), F(3, 5))),
        ("verdict", 2, "z0flip", "balanced", TWO_THIRDS, True),
        ("verdict", 2, "const1", "balanced", TWO_THIRDS, False),
        ("verdict", 2, "z0split", "lopsided", TWO_THIRDS, False),
        ("payoffs", 2, "z0split", "balanced", TWO_THIRDS, _payoffs(F(0), F(0))),
        ("payoffs", 3, "z0split", "blocks22", TWO_THIRDS, _payoffs(F(0), F(0))),
        ("verdict", 3, "z0split", "blocks10", TWO_THIRDS, True),
        ("verdict", 3, "z0split", "blocks34", TWO_THIRDS, True),
        ("verdict", 3, "z0split", "blocks21", TWO_THIRDS, False),
        ("verdict", 3, "const1", "blocks22", TWO_THIRDS, False),
        ("verdict", 4, "const1", "best", TWO_THIRDS, False),
        ("verdict", 4, "z0split", "best", TWO_THIRDS, False),
        ("verdict", 4, "const2", "react", TWO_THIRDS, False),
        ("payoffs", 4, "const2", "best", TWO_THIRDS, _payoffs(F(-1, 3), F(1, 3))),
        ("payoffs", 4, "const2", "best", FOUR_FIFTHS, _payoffs(F(-3, 5), F(3, 5))),
    )

    def setup(self, X, rng, size):
        # the seed sets only the op order; tiny runs skip the slow case 3
        checks = [c for c in self.CHECKS if size == "full" or c[1] != 3]
        return {"checks": checks}

    def pass_ops(self, state, rng):
        order = list(range(len(state["checks"])))
        rng.shuffle(order)
        return [Op(state["checks"][k][0], k) for k in order]

    def execute(self, X, state, op, tracer):
        _, case, first, picks, p, _ = state["checks"][op.key]
        sef, eu, profile = inputs.coin_profile(X, case, first, picks, p)
        verdict = X.equil.verify_equilibrium(sef, eu, profile).in_equilibrium
        if op.kind == "verdict":
            return verdict
        return verdict, inputs.reached_payoffs(X, sef, eu, profile)

    def check(self, state, op, output, seen):
        expected = state["checks"][op.key][-1]
        if op.kind == "payoffs":
            expected = (True, expected)
        if output != expected:
            return f"check {op.key}: got {output!r}, expected {expected!r}"
        return None


class ExitRace:
    """One large exit/continue form, built once, verified at several
    exit thresholds."""

    name = "exit-race"
    PASS_SECONDS = 10.0
    THRESHOLD = TWO_THIRDS   # the one bias at which the profile is an equilibrium
    PAYOFF = F(8, 5)         # every reached conditional payoff there
    SIZES = {"full": (6, (F(1, 2), F(2, 3), F(5, 6))),
             "tiny": (3, (F(1, 3), F(2, 3), F(1)))}

    def setup(self, X, rng, size):
        atoms, biases = self.SIZES[size]
        sef, prior, taste = inputs.exit_race_form(X, atoms)
        return {"atoms": atoms, "biases": biases, "sef": sef,
                "prior": prior, "taste": taste}

    def pass_ops(self, state, rng):
        biases = list(state["biases"])
        rng.shuffle(biases)
        return [Op("verify", p) for p in biases]

    def execute(self, X, state, op, tracer):
        equil, sef = X.equil, state["sef"]
        profile = inputs.exit_race_profile(X, sef, state["atoms"], op.key)
        taste = state["taste"]
        eu = equil.EUStructure(
            equil.bayes_beliefs(sef, state["prior"], profile),
            equil.uniform_tastes(sef, {1: taste, 2: taste}))
        report = equil.verify_equilibrium(sef, eu, profile)
        payoffs = sorted({v for blocks in report.rationality.payoffs.values()
                          for v in blocks.values()})
        return report.in_equilibrium, report.consistency.consistent, tuple(payoffs)

    def check(self, state, op, output, seen):
        verdict, consistent, payoffs = output
        at_threshold = op.key == self.THRESHOLD
        if not consistent:
            return f"p={op.key}: beliefs not consistent"
        if verdict != at_threshold:
            return f"p={op.key}: equilibrium verdict {verdict}"
        if at_threshold and payoffs != (self.PAYOFF,):
            return f"p={op.key}: payoffs {payoffs}, expected {self.PAYOFF}"
        return None


class Preemption:
    """Seeded batches of the preemption race, the grid approximant on the
    same coin, and the exact distribution, deviation values and path
    tilts."""

    name = "preemption"
    PASS_SECONDS = 0.4
    CLASSES = ("simultaneous", "sole-1", "sole-2")
    SPLIT = F(1, 3)          # the exact share of each class
    SIGMAS = 6               # tolerance of a batch frequency, in standard errors
    GRID_N = 10
    LEVELS = range(6)
    # (step, level): the stop-at-step path tilts to that vertical level
    # at the whistle, time 0
    TILTS = ((0, 0), (1, 1), (2, 2), (3, 3))
    SIZES = {"full": 5000, "tiny": 300}

    def setup(self, X, rng, size):
        tilts = tuple(X.vtime.vt(0, X.vtime.ordinal(v)) for _, v in self.TILTS)
        return {"trials": self.SIZES[size], "tilts": tilts}

    def pass_ops(self, state, rng):
        seed = rng.getrandbits(63)
        return [Op("batch", seed), Op("grid", seed), Op("exact", seed)]

    def _config(self, X, state, seed):
        return X.timing.TimingConfig(eta=1, trials=state["trials"], seed=seed)

    @staticmethod
    def _counts(stats):
        return tuple(sorted((cls.value, k) for cls, k in stats.counts.items()))

    def execute(self, X, state, op, tracer):
        timing, config = X.timing, self._config(X, state, op.key)
        if op.kind == "batch":
            stats = timing.monte_carlo(config)
            return self._counts(stats), stats.mean_payoffs
        if op.kind == "grid":
            approx = timing.grid_approximant(config, self.GRID_N)
            return approx.mesh, self._counts(approx.stats)
        exact = timing.outcome_distribution(config.eta)
        deviations = []
        for player in (1, 2):
            moves = [timing.PureLevel(k) for k in self.LEVELS]
            moves += [timing.NeverBelowOmega(), timing.PreWhistleStop()]
            deviations.extend(timing.deviation_payoff(config, d, player)
                              for d in moves)
        tilts = tuple(timing.path_tilt(config, k) for k, _ in self.TILTS)
        return (tuple(sorted((c.value, p) for c, p in exact.items())),
                tuple(deviations), tilts)

    def check(self, state, op, output, seen):
        trials = state["trials"]
        if op.kind == "batch":
            counts, means = output
            sigma = math.sqrt(self.SPLIT * (1 - self.SPLIT) / trials)
            for cls, k in counts:
                if k if cls not in self.CLASSES else \
                        abs(k / trials - self.SPLIT) > self.SIGMAS * sigma:
                    return f"seed {op.key}: {cls} frequency {k / trials:.4f}"
            if sum(k for _, k in counts) != trials:
                return f"seed {op.key}: counts do not sum to {trials}"
            # per-trial payoffs are -1, 0 or 1, each with probability 1/3
            limit = self.SIGMAS * math.sqrt(F(2, 3) / trials)
            if any(abs(float(m)) > limit for m in means):
                return f"seed {op.key}: mean payoffs {means}"
            return None
        if op.kind == "grid":
            mesh, counts = output
            batch = seen.get(Op("batch", op.key))
            if mesh != F(1, 2 ** self.GRID_N):
                return f"seed {op.key}: grid mesh {mesh}"
            if batch is None or counts != batch[0]:
                return f"seed {op.key}: grid counts {counts} differ from the batch"
            return None
        exact, deviations, tilts = output
        if exact != tuple((c, self.SPLIT) for c in self.CLASSES):
            return f"exact distribution {exact}"
        # at eta = 1 every post-whistle level and never stopping are worth
        # exactly zero; stopping before the whistle costs the fine
        per_player = [F(0)] * (len(self.LEVELS) + 1) + [F(-1)]
        if deviations != tuple(per_player * 2):
            return f"deviation payoffs {deviations}"
        if tilts != state["tilts"]:
            return f"path tilts {tilts}"
        return None


def invoke(X, args):
    """Run the click entry point in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            X.cli.cli.main(args=args, prog_name="exform")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue()


class CliStructure:
    """Many small seeded inputs through ``exform validate``, ``wellposed``
    and ``dm``, invoked in-process through the click entry point."""

    name = "cli-structure"
    PASS_SECONDS = 5.0
    SIZES = {"full": (100, 500), "tiny": (4, 10)}
    # the trees and posets come from this fixed seed, so that every run does
    # the same work; the run's seed draws their labels and the op order
    SHAPES = "cli-structure:shapes"
    # what validate must report for a single-agent perfect-information tree
    VALIDATE = {"valid": True, "perfect_recall": True, "perfect_information": True}

    def __init__(self, workdir):
        # set-up overwrites the files of earlier set-ups and runs: creating
        # and deleting hundreds of files each time made set-up slower run by
        # run, by half over ten runs
        self.workdir = workdir

    def setup(self, X, rng, size):
        forms, posets = self.SIZES[size]
        os.makedirs(self.workdir, exist_ok=True)
        state = {"forms": [], "posets": [], "cuts": {}}
        shape = random.Random(self.SHAPES)
        for k in range(forms):
            path = os.path.join(self.workdir, f"form{k}.json")
            form = inputs.strict_form(X, shape, rng)
            inputs.write_json(path, X.cli.serialize_sef(form))
            state["forms"].append(path)
        for k in range(posets):
            path = os.path.join(self.workdir, f"poset{k}.json")
            doc = inputs.random_poset(shape, rng)
            inputs.write_json(path, doc)
            state["posets"].append((path, doc))
        return state

    def pass_ops(self, state, rng):
        ops = [Op(kind, k) for k in range(len(state["forms"]))
               for kind in ("validate", "wellposed")]
        ops += [Op("dm", k) for k in range(len(state["posets"]))]
        rng.shuffle(ops)
        return ops

    def execute(self, X, state, op, tracer):
        if op.kind == "dm":
            args = ["dm", "--poset", state["posets"][op.key][0], "--json"]
        else:
            args = [op.kind, "--sef", state["forms"][op.key], "--json"]
            if op.kind == "wellposed":
                args[3:3] = ["--method", "both"]
        with tracer.span("cli.command"):
            return invoke(X, args)

    def check(self, state, op, output, seen):
        code, text = output
        try:
            doc = json.loads(text)
        except ValueError:
            return f"{op}: exit {code}, no JSON output"
        if op.kind == "validate":
            got = {k: doc.get(k) for k in self.VALIDATE}
            if code != 0 or got != self.VALIDATE:
                return f"{op}: exit {code}, {got}"
        elif op.kind == "wellposed":
            direct = doc["direct"]
            direct_ok = direct["attainable"] and direct["existence"] \
                and direct["uniqueness"]
            if direct_ok != doc["order"]:
                return f"{op}: direct {direct_ok} but order {doc['order']}"
            if doc["well_posed"] != direct_ok or code != (0 if direct_ok else 1):
                return f"{op}: exit {code}, well_posed {doc['well_posed']}"
        else:
            poset = state["posets"][op.key][1]
            if op.key not in state["cuts"]:
                state["cuts"][op.key] = inputs.count_cuts(poset)
            expected = {"elements": len(poset["elements"]),
                        "completion": state["cuts"][op.key],
                        "complete_lattice": True, "dense_embedding": True}
            if code != 0 or doc != expected:
                return f"{op}: exit {code}, {doc}, expected {expected}"
        return None
