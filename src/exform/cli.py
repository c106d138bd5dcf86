"""
Command-line surface over the whole workbench: structural validation,
information sets, well-posedness, outcomes, equilibrium verification,
tilting limits, the timing race, lattice completions, and the registry
of bundled instances.

Exit codes: 0 on success, 1 on a failed check (with witnesses), 2 on
malformed input, 3 when a search ran over its budget, leaving the check
undecided.
All rationals print as "num/den"; floats appear only in human-readable
simulation summaries.

Each subcommand imports the layers it runs when it runs, so that no
command loads a layer it does not use.
"""

import json as jsonlib
import sys

import click

from ._util import budget, format_rational, parse_rational
from .errors import (
    BudgetExceeded,
    ExformError,
    InputError,
    StructureError,
)

# --- instance serialization ---------------------------------------------------

def _sorted_lists(sets):
    """Each set as a sorted list, the lists in sorted order."""
    return sorted(sorted(c) for c in sets)


def serialize_sef(form):
    """A canonical JSON-ready document for a validated extensive form."""
    outcomes = sorted(form.sdf.forest.outcomes)
    if not all(isinstance(w, str) for w in outcomes):
        raise InputError("only string-labelled outcomes serialize")
    nodes = sorted(form.sdf.forest.nodes, key=sorted)
    node_key = {x: k for k, x in enumerate(nodes)}

    def move_doc(m):
        # scenario labels are unique per graph, so this order is canonical
        return sorted([w, node_key[x]] for w, x in m.graph)

    moves = sorted(form.sdf.random_moves, key=move_doc)
    move_key = {m: k for k, m in enumerate(moves)}

    doc = {
        "outcomes": outcomes,
        "nodes": [sorted(x) for x in nodes],
        "scenarios": sorted(form.sdf.scenarios),
        "projection": [form.sdf.projection[x] for x in nodes],
        "random_moves": [move_doc(m) for m in moves],
        "agents": [str(i) for i in form.agents],
        "agent_moves": {str(i): sorted(move_key[m] for m in form.agent_moves[i])
                        for i in form.agents},
        "info": {str(i): {str(move_key[m]): sorted(sorted(e) for e in part)
                          for m, part in form.info[i].items()}
                 for i in form.agents},
        "refchoices": {str(i): {str(move_key[m]): _sorted_lists(cs)
                                for m, cs in form.refchoices[i].items()}
                       for i in form.agents},
        "choices": {str(i): _sorted_lists(form.choices[i]) for i in form.agents},
    }
    return doc


def parse_sef(doc):
    """
    Rebuild (and re-validate) an extensive form from its document.  Its
    shape is checked first, so that nothing is read in a second way, such
    as a string as its characters, an object as its keys, or true and -1
    as indexes: labels are strings and sets are arrays of labels, each
    distinct within its array; the projection holds one scenario label
    per node; indexes are integers in range; and the objects are keyed by
    exactly the listed agents, then by move indexes.
    """
    def expect(ok, kind, value):
        if not ok:
            raise TypeError(f"expected {kind}, got {type(value).__name__}")
        return value

    def array(value):
        return expect(isinstance(value, list), "an array", value)

    def labels(value):
        return expect(all(isinstance(x, str) for x in array(value))
                      and len(set(value)) == len(value),
                      "an array of distinct strings", value)

    def sets(value):
        found = [frozenset(labels(x)) for x in array(value)]
        return expect(len(set(found)) == len(found), "distinct sets", found)

    def pick(items, k):
        return items[expect(type(k) is int and 0 <= k < len(items),
                            f"an index below {len(items)}", k)]

    def entries(value):
        return expect(isinstance(value, dict), "an object", value).items()

    from . import forest, sdf, sef
    try:
        nodes = sets(doc["nodes"])
        projection = array(doc["projection"])
        expect(len(nodes) == len(projection) and all(
            isinstance(w, str) for w in projection),
            "one scenario label per node", projection)
        moves = []
        for graph in array(doc["random_moves"]):
            pairs = [expect(len(array(p)) == 2, "a pair", p)
                     for p in array(graph)]
            labels([w for w, _ in pairs])
            moves.append(sdf.RandomMove({w: pick(nodes, k) for w, k in pairs}))
        outcomes, scenarios = labels(doc["outcomes"]), labels(doc["scenarios"])
        agents = labels(doc["agents"])
        per_agent = [expect(isinstance(d, dict) and set(d) == set(agents),
                            "an object keyed by the agents", d)
                     for d in (doc["agent_moves"], doc["info"],
                               doc["refchoices"], doc["choices"])]
        index = {str(k): m for k, m in enumerate(moves)}
        agent_moves = {i: frozenset(pick(moves, k) for k in array(ks))
                       for i, ks in per_agent[0].items()}
        info = {i: {index[k]: frozenset(sets(part))
                    for k, part in entries(parts)}
                for i, parts in per_agent[1].items()}
        refchoices = {i: {index[k]: tuple(sets(cs))
                          for k, cs in entries(refs)}
                      for i, refs in per_agent[2].items()}
        choices = {i: frozenset(sets(cs)) for i, cs in per_agent[3].items()}
        base = sdf.StochasticDecisionForest(forest.DecisionForest(
            outcomes, nodes), scenarios, dict(zip(nodes, projection)), moves)
    except (KeyError, TypeError, IndexError, ValueError) as err:
        raise InputError(f"malformed form document: {err}") from err
    return sef.StochasticExtensiveForm(base, agents, agent_moves, info,
                                       refchoices, choices)


def load_instance(ref):
    """
    Resolve an instance reference: "examples:<name>" gives the bundled
    form with its expected-utility layer and profile; a file path gives a
    serialized form alone.
    """
    if ref.startswith("examples:"):
        from . import instances
        return instances.load_example(ref[len("examples:"):])
    try:
        with open(ref, encoding="utf-8") as handle:
            doc = jsonlib.load(handle)
    except OSError as err:
        raise InputError(f"cannot read {ref}: {err}") from err
    except (jsonlib.JSONDecodeError, UnicodeDecodeError) as err:
        raise InputError(f"not a JSON document: {err}") from err
    return parse_sef(doc), None, None, None


# --- output plumbing ----------------------------------------------------------

def emit(as_json, human, data):
    if as_json:
        click.echo(jsonlib.dumps(data, sort_keys=True, separators=(", ", ": ")))
    else:
        click.echo(human)


def _rational_option(option, value):
    """An option's rational, parsed from its text (or a rational it sets),
    rejected with the option named when it is malformed or has too many
    digits to print."""
    try:
        value = parse_rational(value)
        format_rational(value)
    except InputError as err:
        raise InputError(f"{option}: {err}") from err
    return value


def json_flag(command):
    return click.option("--json", "as_json", is_flag=True,
                        help="machine-readable output")(command)


def guarded(command):
    """Map malformed input to exit code 2 instead of a traceback, and a
    search over budget to exit code 3."""

    def wrapper(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except InputError as err:
            click.echo(f"input error: {err}", err=True)
            raise SystemExit(2)
        except BudgetExceeded as err:
            click.echo(f"undecided: {err}", err=True)
            raise SystemExit(3)
        except ExformError as err:
            click.echo(f"check failed: {err}", err=True)
            raise SystemExit(1)

    wrapper.__name__ = command.__name__
    wrapper.__doc__ = command.__doc__
    return wrapper


@click.group()
@guarded
def cli():
    """Workbench for stochastic forms, tilting limits, and timing races."""
    budget(None)  # a malformed EXFORM_BUDGET fails every subcommand up front


def main():
    cli(prog_name="exform")


# --- structural subcommands ---------------------------------------------------

@cli.command()
@click.option("--sef", "ref", required=True, help="instance reference")
@json_flag
@guarded
def validate(ref, as_json):
    """Validate a form and report its recall and information flags."""
    from . import sef
    try:
        form, _, _, _ = load_instance(ref)
    except StructureError as err:
        emit(as_json, f"invalid SEF: {err}", {"valid": False, "witness": str(err)})
        raise SystemExit(1)
    flags = [sef.check_recall_and_info(form, i) for i in form.agents]
    recall = all(f["endogenous_recall"] and f["exogenous_recall"] for f in flags)
    perfect = all(f["perfect_endogenous_info"] and f["perfect_exogenous_info"]
                  for f in flags)
    human = (f"valid SEF, {'perfect' if recall else 'imperfect'} recall, "
             f"{'perfect' if perfect else 'imperfect'} information")
    emit(as_json, human, {
        "valid": True,
        "perfect_recall": recall,
        "perfect_information": perfect,
        "agents": [str(i) for i in form.agents],
        "flags": {str(i): f for i, f in zip(form.agents, flags)},
        "checked": form.report.checked,
    })


@cli.command()
@click.option("--sef", "ref", required=True)
@json_flag
@guarded
def infosets(ref, as_json):
    """List every agent's information sets."""
    from . import sef
    form, _, _, _ = load_instance(ref)
    lines, data = [], {}
    for i in form.agents:
        sets, preds = sef.info_sets(form, i)
        data[str(i)] = [{"members": len(p.random_moves),
                         "moves": len(preds[p]),
                         "menu": len(form.available_at(i, next(iter(p.random_moves))))}
                        for p in sets]
        lines.append(f"agent {i}: {len(sets)} information set(s)")
        for k, p in enumerate(sets):
            lines.append(f"  set {k}: {len(p.random_moves)} member(s), "
                         f"{len(preds[p])} move(s)")
    emit(as_json, "\n".join(lines), data)


@cli.command()
@click.option("--sef", "ref", required=True)
@click.option("--method", type=click.Choice(["direct", "order", "both"]),
              default="both")
@json_flag
@guarded
def wellposed(ref, as_json, method):
    """Check that every profile induces exactly one outcome everywhere."""
    from . import play
    form, _, _, _ = load_instance(ref)
    data, ok = {}, True
    if method in ("direct", "both"):
        report = play.check_wellposed_direct(form)
        data["direct"] = {"attainable": report.attainable,
                          "existence": report.existence,
                          "uniqueness": report.uniqueness,
                          "witnesses": {k: _wellposed_doc(v) for k, v
                                        in report.witnesses.items()}}
        ok = ok and bool(report)
    if method in ("order", "both"):
        data["order"] = play.check_wellposed_order(form)
        ok = ok and data["order"]
    human = "well-posed" if ok else f"not well-posed: {data}"
    emit(as_json, human, {"well_posed": ok, **data})
    if not ok:
        raise SystemExit(1)


def _wellposed_doc(witness):
    """A well-posedness witness with every set sorted, so that the JSON does
    not depend on the hash seed: an information set that offers no choice,
    a (profile, history[, outcomes]) pair, or a history with the outcomes
    no profile attains."""
    from . import play, sef
    if isinstance(witness, sef.InfoSet):
        return {"info_set": _sorted_lists(witness.moves())}
    if isinstance(witness[0], play.StrategyProfile):
        profile, h, *found = witness
        doc = {"profile": {str(i): _sorted_lists(t.assignment.values())
                           for i, t in profile.strategies.items()},
               "history": _sorted_lists(h)}
        return doc | {"outcomes": found[0]} if found else doc
    h, missing = witness
    return {"history": _sorted_lists(h), "unattained": sorted(missing)}


@cli.command()
@click.option("--sef", "ref", required=True)
@json_flag
@guarded
def outcome(ref, as_json):
    """Play the bundled profile and print the outcome per scenario."""
    from . import play
    form, _, profile, _ = load_instance(ref)
    if profile is None:
        raise InputError("outcome needs a bundled instance with a profile")
    played = play.scenario_outcomes(form, profile)
    human = "\n".join(f"{w} -> {x}" for w, x in played.items())
    emit(as_json, human, {str(w): str(x) for w, x in played.items()})


# --- equilibrium --------------------------------------------------------------

@cli.group()
def equilibrium():
    """Equilibrium checks on bundled instances."""


@equilibrium.command()
@click.option("--sef", "ref", required=True)
@click.option("--p", "lean", default=None, help="first-mover bias override")
@json_flag
@guarded
def verify(ref, as_json, lean):
    """Verify consistency and rationality of the bundled profile."""
    if lean is not None:
        if ref != "examples:amd":
            raise InputError("--p only applies to examples:amd")
        lean = _rational_option("--p", lean)
        from . import instances
        form, eu, profile, _ = instances.amd_instance(lean)
    else:
        form, eu, profile, _ = load_instance(ref)
        if profile is None:
            raise InputError("equilibrium needs a bundled instance")
    from . import equil
    report = equil.verify_equilibrium(form, eu, profile)
    values = sorted({v for blocks in report.rationality.payoffs.values()
                     for v in blocks.values()})
    payoff_text = ", ".join(format_rational(v) for v in values)
    data = {
        "equilibrium": report.in_equilibrium,
        "consistent": report.consistency.consistent,
        "rational": report.rationality.rational,
        "payoffs": [format_rational(v) for v in values],
        "witnesses": sorted(map(_witness_doc, report.rationality.witnesses),
                            key=jsonlib.dumps),
    }
    if report.in_equilibrium:
        emit(as_json, f"equilibrium verified, payoff {payoff_text}", data)
    else:
        better = sorted({format_rational(w[5])
                         for w in report.rationality.witnesses})
        emit(as_json,
             f"not an equilibrium; payoff {payoff_text}; "
             f"deviations reach {', '.join(better)}", data)
        raise SystemExit(1)


def _witness_doc(witness):
    """A rationality witness with every set sorted, so that the JSON does
    not depend on the hash seed."""
    agent, infoset, strategy, block, payoff, deviation_payoff = witness
    return {"agent": str(agent),
            "info_set": _sorted_lists(infoset.moves()),
            "deviation": _sorted_lists(strategy.assignment.values()),
            "block": sorted(block),
            "payoff": format_rational(payoff),
            "deviation_payoff": format_rational(deviation_payoff)}


# --- tilting ------------------------------------------------------------------

def _parse_kappa(text):
    from .vtime import parse_ordinal
    if text.startswith("alt:"):
        try:
            low, high = (parse_ordinal(part) for part in text[4:].split(","))
        except ValueError as err:
            raise InputError(f"bad alternation spec: {text!r}") from err
        return high, low               # kappa(n) = high at even depths n
    return (parse_ordinal(text),)


@cli.command(name="tilt")
# sorted(tilt.REGISTERED), spelled out so as to load no layer; a test pins it
@click.option("--family", type=click.Choice(["dyadic", "nested"]),
              required=True)
@click.option("--kappa", required=True,
              help="stop index: an ordinal or alt:<odd>,<even>")
@click.option("--probe", default=None, help='";"-separated probe points')
@json_flag
@guarded
def tilt_command(family, kappa, probe, as_json):
    """Tilt a stop-index family through a registered grid family."""
    from . import tilt
    from .vtime import format_vtime, parse_vtime
    grids = tilt.REGISTERED[family]()
    process = tilt.StopIndexFamily(kappa=_parse_kappa(kappa))
    probes = ([parse_vtime(p) for p in probe.split(";")] if probe else None)
    result = tilt.tilting_limit(process, grids, probes=probes)
    if result.converged:
        stop = format_vtime(result.stop) if result.stop is not None else None
        human = f"Limit 1[0, {stop})" if stop else "Limit value table"
        emit(as_json, human, {
            "converged": True, "stop": stop,
            "table": {format_vtime(p): v for p, v in result.table.items()}})
    else:
        witness_probe, n0, cycle = result.witness
        emit(as_json,
             f"Diverged at {format_vtime(witness_probe)}: period "
             f"{list(cycle)} from depth {n0}",
             {"converged": False, "at": format_vtime(witness_probe),
              "n0": n0, "period": list(cycle)})
        raise SystemExit(1)


# --- timing -------------------------------------------------------------------

def _parse_deviation(text):
    from . import timing
    if text == "never":
        return timing.NeverBelowOmega()
    if text == "prewhistle":
        return timing.PreWhistleStop()
    if text.startswith("level:"):
        try:
            return timing.PureLevel(int(text[len("level:"):]))
        except ValueError as err:
            raise InputError(f"bad deviation level: {text!r}") from err
    raise InputError(f"unknown deviation: {text!r}")


@cli.command(name="timing-sim")
@click.option("--eta", default="1")
@click.option("--whistle", default="0")
@click.option("--trials", default=0, type=int)
@click.option("--seed", default=0, type=int)
@click.option("--deviation", default=None,
              help="level:<m>, never, or prewhistle")
@click.option("--grid-n", "grid_n", default=None, type=int)
@json_flag
@guarded
def timing_sim(eta, whistle, trials, seed, deviation, grid_n, as_json):
    """Run the preemption race: exact distribution plus Monte Carlo."""
    from . import timing
    # the mesh 2^-n prints iff 2^|n| < 10^limit, that is iff |n| is below
    # the bit length of 10^limit: no power of two need be built to know
    limit = sys.get_int_max_str_digits()
    if grid_n is not None and limit \
            and abs(grid_n) >= (10 ** limit).bit_length():
        raise InputError(f"--grid-n: a rational of over {limit} digits "
                         "cannot be printed")
    config = timing.TimingConfig(eta=_rational_option("--eta", eta),
                                 whistle=_rational_option("--whistle", whistle),
                                 trials=trials, seed=seed)
    exact = timing.outcome_distribution(config.eta)
    data = {"eta": format_rational(config.eta),
            "whistle": format_rational(config.whistle),
            "distribution": {cls.value: format_rational(p)
                             for cls, p in exact.items()}}
    lines = ["exact distribution: "
             + ", ".join(f"{cls.value}={format_rational(p)}"
                         for cls, p in exact.items())]
    # the approximant's batch is the seeded batch of the race itself
    approx = None if grid_n is None else timing.grid_approximant(config, grid_n)
    if trials:
        stats = timing.monte_carlo(config) if approx is None else approx.stats
        data["counts"] = {cls.value: k for cls, k in stats.counts.items()}
        data["frequencies"] = {cls.value: format_rational(p)
                               for cls, p in stats.probabilities.items()}
        data["mean_payoffs"] = [format_rational(m) for m in stats.mean_payoffs]
        lines.append(f"{trials} trials, seed {seed}:")
        for cls, k in sorted(stats.counts.items(), key=lambda kv: kv[0].value):
            if k or cls in exact:
                radius = stats.radii[cls]
                lines.append(f"  {cls.value}: {k} "
                             f"(freq {float(stats.probabilities[cls]):.4f} "
                             f"+- {radius:.4f})")
        means = ", ".join(f"{float(m):+.4f}" for m in stats.mean_payoffs)
        lines.append(f"  mean payoffs: {means}")
    if deviation is not None:
        value = timing.deviation_payoff(config, _parse_deviation(deviation))
        data["deviation_payoff"] = format_rational(value)
        lines.append(f"deviation payoff: {format_rational(value)}")
    if approx is not None:
        data["grid"] = {"mesh": format_rational(approx.mesh)}
        lines.append(f"grid approximant: mesh {format_rational(approx.mesh)}")
    emit(as_json, "\n".join(lines), data)


# --- completions --------------------------------------------------------------

def _closure(elements, pairs):
    """The elements' identity plus the pairs, closed transitively by
    Warshall's method on each label's up-set."""
    up = {x: {x} for x in elements}
    for (a, b) in pairs:
        up.setdefault(a, set()).add(b)
    for k, up_k in up.items():
        for up_x in up.values():
            if k in up_x:
                up_x |= up_k
    return {(a, b) for a, up_a in up.items() for b in up_a}


@cli.command()
@click.option("--poset", "path", required=True, type=click.Path())
@json_flag
@guarded
def dm(path, as_json):
    """Complete a finite poset into its smallest complete lattice."""
    from . import order
    try:
        with open(path, encoding="utf-8") as handle:
            doc = jsonlib.load(handle)
        elements, pairs = doc["elements"], doc["leq"]
    except (OSError, jsonlib.JSONDecodeError, UnicodeDecodeError, KeyError,
            TypeError) as err:
        raise InputError(f"cannot read poset: {err}") from err
    if not (isinstance(elements, list) and isinstance(pairs, list)
            and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
        raise InputError("a poset is a list of elements and a list of "
                         "[a, b] pairs")
    labels = elements + [x for p in pairs for x in p]
    if any(isinstance(x, (list, dict)) for x in labels):
        raise InputError("a poset label is a JSON array or object")
    # Python takes true for 1 and false for 0, which JSON keeps apart
    first = {}
    for x in labels:
        y = first.setdefault(x, x)
        if isinstance(x, bool) != isinstance(y, bool):
            raise InputError(f"poset labels {jsonlib.dumps(y)} and "
                             f"{jsonlib.dumps(x)} would be one element")
    poset = order.Poset(elements, _closure(elements, pairs))
    lattice, phi = order.dm_completion(poset)
    dense = order.check_dense_completion(poset, lattice, phi)
    data = {"elements": len(poset.elements),
            "completion": len(lattice),
            "complete_lattice": dense.is_lattice_complete,
            "dense_embedding": bool(dense)}
    emit(as_json,
         f"completion of {data['elements']} element(s) has "
         f"{data['completion']} element(s); complete lattice: "
         f"{data['complete_lattice']}; dense embedding: "
         f"{data['dense_embedding']}", data)
    if not (data["complete_lattice"] and data["dense_embedding"]):
        raise SystemExit(1)


# --- registry -----------------------------------------------------------------

def examples_list():
    """The bundled instances with their expected verdicts, none built."""
    from . import instances
    return {name: {"description": description,
                   "equilibrium": equilibrium,
                   "payoffs": {str(k): format_rational(v)
                               for k, v in payoffs.items()}}
            for name, (description, _, equilibrium, payoffs)
            in instances.EXAMPLES.items()}


@cli.command()
@json_flag
@guarded
def examples(as_json):
    """List the bundled instances with their expected verdicts."""
    registry = examples_list()
    lines = []
    for name, entry in registry.items():
        payoffs = ", ".join(f"{k}={v}" for k, v in entry["payoffs"].items())
        verdict = "equilibrium" if entry["equilibrium"] else "no equilibrium"
        lines.append(f"{name}: {entry['description']} ({verdict}; {payoffs})")
    emit(as_json, "\n".join(lines), registry)
