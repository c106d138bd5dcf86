import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import comb_sef, constant_choice_parts, stdout_across_hash_seeds
from exform import order, tilt, timing
from exform.cli import (
    _closure,
    cli,
    examples_list,
    guarded,
    parse_sef,
    serialize_sef,
)
from exform.instances import amd_sef, load_example
from exform.errors import ExformError, InputError
from exform.sef import StochasticExtensiveForm
from test_adapted import twelve_atoms
from test_slices import unvalidated
from test_validate import twinned

SRC = str(Path(__file__).resolve().parents[1] / "src")
README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLE_NAMES = ["simple", "simple-variant", "amd", "mp-case1", "mp-case2",
                 "mp-case3", "mp-case4", "ultimatum"]


def run(*args):
    return CliRunner().invoke(cli, list(args))


class TestValidate:
    def test_exit_form(self):
        result = run("validate", "--sef", "examples:amd")
        assert result.exit_code == 0
        assert result.output.strip() \
            == "valid SEF, perfect recall, imperfect information"

    def test_json_mode(self):
        result = run("validate", "--sef", "examples:amd", "--json")
        data = json.loads(result.output)
        assert data["valid"] and data["perfect_recall"]
        assert not data["perfect_information"]

    def test_json_reports_each_axiom(self, tmp_path, monkeypatch):
        for name in ("amd", "simple"):
            checked = json.loads(run("validate", "--sef", f"examples:{name}",
                                     "--json").output)["checked"]
            assert checked == {f"axiom{k}": True for k in range(1, 7)}
        # a budget past Axiom 2's 8 profiles but short of the Axiom 6
        # search's 16 nodes decides nothing: exit 3, no verdict printed
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(serialize_sef(
            StochasticExtensiveForm(*constant_choice_parts(4)))))
        monkeypatch.setenv("EXFORM_BUDGET", "10")
        result = CliRunner().invoke(cli, ["validate", "--sef", str(path),
                                          "--json"])
        assert (result.exit_code, result.output) \
            == (3, "undecided: more than 10 adapted-choice search nodes\n")

    def test_unknown_example_is_input_error(self):
        assert run("validate", "--sef", "examples:nope").exit_code == 2

    def test_unreadable_path_is_input_error(self):
        assert run("validate", "--sef", "/no/such/file.json").exit_code == 2

    def test_file_reference(self, tmp_path):
        form, _, _, _ = load_example("simple")
        path = tmp_path / "simple.json"
        path.write_text(json.dumps(serialize_sef(form)))
        result = run("validate", "--sef", str(path))
        assert result.exit_code == 0 and "valid SEF" in result.output

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"outcomes": ["a"]}')
        assert run("validate", "--sef", str(path)).exit_code == 2

    def test_non_utf8_document_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        result = run("validate", "--sef", str(path))
        assert result.exit_code == 2 and result.exception.code == 2
        assert result.output.startswith("input error: not a JSON document: "
                                        "'utf-8' codec can't decode")

    def test_broken_structure_fails_the_check(self, tmp_path):
        form, _, _, _ = load_example("simple")
        doc = serialize_sef(form)
        doc["choices"] = {i: cs[:-1] for i, cs in doc["choices"].items()}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        result = run("validate", "--sef", str(path))
        assert result.exit_code == 1 and "invalid SEF" in result.output

    def test_exit_race_missing_a_choice_fails_axiom6(self, tmp_path):
        # amd_sef(12) without agent 1's choice 1,365 in canonical order:
        # the search whose budget ran out let this form read valid; the
        # join lists the one missing choice
        doc = serialize_sef(twelve_atoms())
        gone = doc["choices"]["1"].pop(1365)
        path = tmp_path / "exit-race-12.json"
        path.write_text(json.dumps(doc))
        result = run("validate", "--sef", str(path))
        assert (result.exit_code, result.output) \
            == (1, "invalid SEF: invalid extensive form: (('axiom6', "
                f"('1', {gone!r})),)\n")

    def test_axiom6_witness_does_not_depend_on_the_hash_seed(self, tmp_path):
        # amd_sef(10) without agent 1's choice 341 in canonical order
        doc = serialize_sef(amd_sef(10)[0])
        gone = doc["choices"]["1"].pop(341)
        path = tmp_path / "exit-race-10.json"
        path.write_text(json.dumps(doc))
        output = stdout_across_hash_seeds(
            ["-m", "exform", "validate", "--sef", str(path), "--json"],
            returncode=1)
        assert json.loads(output) == {
            "valid": False,
            "witness": f"invalid extensive form: (('axiom6', ('1', {gone!r})),)"}

    def test_witness_does_not_depend_on_the_hash_seed(self, tmp_path):
        # the twinned simple form fails Axiom 2 at each of its six moves;
        # its least witness is the first violation
        path = tmp_path / "twinned.json"
        path.write_text(json.dumps(serialize_sef(
            unvalidated(twinned(load_example("simple")[0])))))
        output = stdout_across_hash_seeds(
            ["-m", "exform", "validate", "--sef", str(path), "--json"],
            returncode=1)
        assert json.loads(output)["witness"] == (
            "invalid extensive form: (('axiom2', (['o1:11', 'o1:12'], "
            "(['o1:11', 'o2:11'], ['o1:12', 'o2:12']))),)")

    def test_forest_witness_is_the_least(self, tmp_path):
        # ab, bc and cd overlap under abcd: b is the least node with two
        # incomparable ancestors, ab and bc the least such pair
        path = tmp_path / "overlapping.json"
        path.write_text(json.dumps({
            "outcomes": list("abcd"), "scenarios": ["w"],
            "nodes": [list(x) for x in ("abcd", "ab", "bc", "cd", *"abcd")],
            "projection": ["w"] * 8, "random_moves": [], "agents": [],
            "agent_moves": {}, "info": {}, "refchoices": {}, "choices": {}}))
        output = stdout_across_hash_seeds(
            ["-m", "exform", "validate", "--sef", str(path)], returncode=1)
        assert output == ("invalid SEF: rooted_forest: ('incomparable "
                          "ancestors', ['b'], ['a', 'b'], ['b', 'c'])\n")


class TestEquilibrium:
    def test_verified_payoff(self):
        result = run("equilibrium", "verify", "--sef", "examples:amd",
                     "--p", "2/3")
        assert result.exit_code == 0
        assert "payoff 8/5" in result.output

    def test_failed_with_witnesses(self):
        result = run("equilibrium", "verify", "--sef", "examples:amd",
                     "--p", "1/3", "--json")
        assert result.exit_code == 1
        data = json.loads(result.output)
        assert data["equilibrium"] is False and data["witnesses"]

    def test_witnesses_do_not_depend_on_the_hash_seed(self):
        output = stdout_across_hash_seeds(
            ["-m", "exform", "equilibrium", "verify", "--sef", "examples:amd",
             "--p", "1/3", "--json"], returncode=1)
        assert json.loads(output)["witnesses"]

    def test_p_outside_grid_is_input_error(self):
        assert run("equilibrium", "verify", "--sef", "examples:amd",
                   "--p", "1/2").exit_code == 2

    @pytest.mark.parametrize("p", ["2", "10", "1_0", "-1"])
    def test_p_outside_the_unit_interval_is_out_of_range(self, p):
        result = run("equilibrium", "verify", "--sef", "examples:amd",
                     "--p", p)
        assert result.exit_code == 2
        assert "is out of range [0, 1]" in result.output
        assert "multiple" not in result.output

    def test_p_off_the_grid_names_the_multiple(self):
        result = run("equilibrium", "verify", "--sef", "examples:amd",
                     "--p", "1/2")
        assert result.exit_code == 2
        assert "exit probability 1/2 is not a multiple of 1/3" in result.output

    def test_p_restricted_to_the_exit_form(self):
        assert run("equilibrium", "verify", "--sef", "examples:simple",
                   "--p", "2/3").exit_code == 2

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_all_bundled_instances_verify(self, name):
        assert run("equilibrium", "verify",
                   "--sef", f"examples:{name}").exit_code == 0


# `equilibrium verify` as captured before the common prior was decided in
# closed form: arguments, exit code, the human stdout and the SHA-256 of the
# --json stdout; stderr was empty everywhere.
VERIFY_PINNED = [
    ('--sef examples:simple', 0,
     'equilibrium verified, payoff 0, 2\n',
     "ba286a3b3239dbc46af9d4490edd91a8d1f6183535a2fa51c12467b75152e22f"),
    ('--sef examples:simple-variant', 0,
     'equilibrium verified, payoff 0, 2\n',
     "ba286a3b3239dbc46af9d4490edd91a8d1f6183535a2fa51c12467b75152e22f"),
    ('--sef examples:amd', 0,
     'equilibrium verified, payoff 8/5\n',
     "d0980bf2ecd5b1d9107366ddfa36b39843b9a4dc5c4bfe15c14bfe5c5eb276ef"),
    ('--sef examples:mp-case1', 0,
     'equilibrium verified, payoff -1/3, 1/3\n',
     "aea32d8e377195482607bd21fb4d2fa6b8dc80f6853fc9d78775efd3eddfc43f"),
    ('--sef examples:mp-case2', 0,
     'equilibrium verified, payoff 0\n',
     "44db6c0380739f3348ad6e09a707cb96cc1f8b85a053eb4cdbeae967d3ee1dd1"),
    ('--sef examples:mp-case3', 0,
     'equilibrium verified, payoff 0\n',
     "44db6c0380739f3348ad6e09a707cb96cc1f8b85a053eb4cdbeae967d3ee1dd1"),
    ('--sef examples:mp-case4', 0,
     'equilibrium verified, payoff -1/3, 1/3, 1\n',
     "c7192cc15452ff42339d621def2c196b75eaa8b604965cf5e64d6fb4f847c76e"),
    ('--sef examples:ultimatum', 0,
     'equilibrium verified, payoff 1, 2, 3\n',
     "f2b67548547cf0503d14da5830c2eb77ec0a6bdd8859ac0d9b5e5b56e789946f"),
    ('--sef examples:amd --p 0', 1,
     'not an equilibrium; payoff 0; deviations reach 4\n',
     "a912c0875852c8c3ca20f01ab81cce4b7dd6b74b16cbdf224865d9a56e9b530c"),
    ('--sef examples:amd --p 1/3', 1,
     'not an equilibrium; payoff 1, 5/2; deviations reach 5/2\n',
     "58806d2f33d33e26b81b6480c9c7678bbb8fa55a1980d7e630136fd521a94bb4"),
    ('--sef examples:amd --p 2/3', 0,
     'equilibrium verified, payoff 8/5\n',
     "d0980bf2ecd5b1d9107366ddfa36b39843b9a4dc5c4bfe15c14bfe5c5eb276ef"),
    ('--sef examples:amd --p 1', 1,
     'not an equilibrium; payoff 1; deviations reach 2\n',
     "54418d20f059a5aefceb8d42abf77a98edcb16a80bf1c0f55814ffdc50da2eb1"),
]


class TestVerifyPinned:
    @pytest.mark.parametrize("args, code, human, json_digest", VERIFY_PINNED)
    def test_output_is_byte_identical(self, args, code, human, json_digest):
        argv = ["equilibrium", "verify", *args.split()]
        result = run(*argv)
        assert (result.exit_code, result.stdout, result.stderr) \
            == (code, human, "")
        result = run(*argv, "--json")
        assert (result.exit_code, result.stderr) == (code, "")
        assert hashlib.sha256(result.stdout.encode()).hexdigest() \
            == json_digest


# `wellposed --method both` as captured before the direct check read
# through per-tree slice signatures: the SHA-256 of the --json stdout on each
# bundled example; every one exited 0 with "well-posed" and an empty stderr.
WELLPOSED_PINNED_JSON = \
    "ef453e856a46ae498ad9649652101a8c8a8fd29ca168ac2548df410848e8d3af"


class TestWellposedPinned:
    @pytest.mark.parametrize("name", ["simple", "simple-variant", "amd",
                                      "mp-case1", "mp-case2", "mp-case3",
                                      "mp-case4", "ultimatum"])
    def test_output_is_byte_identical(self, name):
        argv = ["wellposed", "--sef", f"examples:{name}", "--method", "both"]
        result = run(*argv)
        assert (result.exit_code, result.stdout, result.stderr) \
            == (0, "well-posed\n", "")
        result = run(*argv, "--json")
        assert (result.exit_code, result.stderr) == (0, "")
        assert hashlib.sha256(result.stdout.encode()).hexdigest() \
            == WELLPOSED_PINNED_JSON


# `validate` and `infosets` on each bundled example as captured before
# validation read the choices' slices off the form's index: the SHA-256 of
# the human and of the --json stdout; every run exited 0 with an empty
# stderr.
STRUCTURE_PINNED = [
    ("validate", "simple",
     "b359df2a386a3dead4135d1bbf615a22995d01561c4e6392b5f7e35296c1f142",
     "472a40b5611c60334d9f2a670cbed0fcd5e95ad9d84ee5f1e8b3321cdaa27095"),
    ("validate", "simple-variant",
     "b359df2a386a3dead4135d1bbf615a22995d01561c4e6392b5f7e35296c1f142",
     "472a40b5611c60334d9f2a670cbed0fcd5e95ad9d84ee5f1e8b3321cdaa27095"),
    ("validate", "amd",
     "b359df2a386a3dead4135d1bbf615a22995d01561c4e6392b5f7e35296c1f142",
     "ccbac68e19f00ecae0c8b706c806c1d239f35015e1ec7b2916dd70bf9e60c487"),
    ("validate", "mp-case1",
     "b359df2a386a3dead4135d1bbf615a22995d01561c4e6392b5f7e35296c1f142",
     "4e221f1ec2587403c9d8d856f0d35ea28223509cded14b05a2e574a1e9b62111"),
    ("validate", "mp-case2",
     "b359df2a386a3dead4135d1bbf615a22995d01561c4e6392b5f7e35296c1f142",
     "045c7d5f41a21e547e2f42f58760313cb0e697c78b38efd989410908cc71d803"),
    ("validate", "mp-case3",
     "b359df2a386a3dead4135d1bbf615a22995d01561c4e6392b5f7e35296c1f142",
     "045c7d5f41a21e547e2f42f58760313cb0e697c78b38efd989410908cc71d803"),
    ("validate", "mp-case4",
     "b359df2a386a3dead4135d1bbf615a22995d01561c4e6392b5f7e35296c1f142",
     "4e221f1ec2587403c9d8d856f0d35ea28223509cded14b05a2e574a1e9b62111"),
    ("validate", "ultimatum",
     "79bc57404f5c133a7573cd126b41b65a219f31329e3e336db2d48537586f547a",
     "6d02f54e2ce3616467e20ed100ed6d86bd87f95a7a4e45051ccf74bbc3422ea3"),
    ("infosets", "simple",
     "df79cd3866d83e597c8ba5bb566badd2d9bb21d67b384746c1b76cfa67872c7a",
     "b21e0dae5f6f9592e59168bd29c011653ffa23f59621d1805d4eecbebf12a986"),
    ("infosets", "simple-variant",
     "72a6a02b23aa97bbdd512e329492dca5db2efdda6a3c3b966182f9838117d202",
     "098df338d7d418fe994a9359b0242a5d72af29a161f0fcc0f240ed83d8f4a9f5"),
    ("infosets", "amd",
     "2943e55841764123ca726c5f5b934f416545f9fac0a2cbd99af2ece7a4a70729",
     "83dc42864c98991017778fddce87d6a483bee1774659b7580393845c1055a858"),
    ("infosets", "mp-case1",
     "2043c6cb70ab05d8aebdd7b20871a1732baea409229f5829712170e4eb93f13e",
     "aca143908d87e5413efb950b3169310bff3391c3f1d69f9cdcde9b1b4aa7d6fa"),
    ("infosets", "mp-case2",
     "72fa4a7af83dff1a874bc67210b50926e0f59856070bee7ea705146ae08d5318",
     "cfe18cc6286ddf66f8f652efecc286c7282b4f654c21a2af5ffe3b7900a9bfed"),
    ("infosets", "mp-case3",
     "72fa4a7af83dff1a874bc67210b50926e0f59856070bee7ea705146ae08d5318",
     "a4efa4569b9a5d5a6756cb6ab8e46605a86cf78dd4dc25cd56e214f64978b18b"),
    ("infosets", "mp-case4",
     "2043c6cb70ab05d8aebdd7b20871a1732baea409229f5829712170e4eb93f13e",
     "74869f75750a6c50740eaa3ea83d61c828dcd98e8664e5f298c092539512d46d"),
    ("infosets", "ultimatum",
     "0820be99dd53d1714edf92cb593d2a584ff42cda704c1dbe27e7b4aa113fcf6f",
     "7448f05068218adb27f84ba9e67c63a721d3e150211250c933f3feb22310d462"),
]


class TestStructurePinned:
    @pytest.mark.parametrize("command, name, human_digest, json_digest",
                             STRUCTURE_PINNED)
    def test_output_is_byte_identical(self, command, name, human_digest,
                                      json_digest):
        for flags, digest in (([], human_digest), (["--json"], json_digest)):
            result = run(command, "--sef", f"examples:{name}", *flags)
            assert (result.exit_code, result.stderr) == (0, "")
            assert hashlib.sha256(result.stdout.encode()).hexdigest() \
                == digest


# an unvalidated form whose first uniqueness witness once followed the hash
# seed: two sibling choices of one move merged, so that the merged choice
# never separates them (test_play.coarsened)
COARSENED = """
from conftest import make_rng, random_strict_sef
from test_play import coarsened
from exform import cli
rng = make_rng(5)
form = coarsened(random_strict_sef(rng), rng)
cli.load_instance = lambda ref: (form, None, None, None)
cli.main()
"""


class TestWellposedWitness:
    def test_witness_does_not_depend_on_the_hash_seed(self):
        output = stdout_across_hash_seeds(
            ["-c", COARSENED, "wellposed", "--sef", "coarsened", "--json"],
            returncode=1)
        witness = json.loads(output)["direct"]["witnesses"]["uniqueness"]
        # the first history in the total order: the root of w1 and the
        # move below it
        assert [len(x) for x in witness["history"]] == [4, 6]
        assert witness["outcomes"] == ["w1:0", "w1:2"]


class TestStructureCommands:
    def test_infosets(self):
        result = run("infosets", "--sef", "examples:simple", "--json")
        data = json.loads(result.output)
        assert len(data["i"]) == 3

    def test_wellposed(self):
        assert run("wellposed", "--sef", "examples:simple").exit_code == 0
        assert run("wellposed", "--sef", "examples:simple",
                   "--method", "order").exit_code == 0

    def test_order_method_is_settled_on_a_deep_comb(self, tmp_path):
        # a finite forest decides its order classification; no chain
        # search runs out of budget on the 16-outcome comb
        path = tmp_path / "comb16.json"
        path.write_text(json.dumps(serialize_sef(comb_sef(16))))
        result = run("wellposed", "--sef", str(path), "--method", "order")
        assert result.exit_code == 0
        assert result.output == "well-posed\n"

    def test_outcome_requires_bundled_profile(self, tmp_path):
        form, _, _, _ = load_example("simple")
        path = tmp_path / "simple.json"
        path.write_text(json.dumps(serialize_sef(form)))
        assert run("outcome", "--sef", str(path)).exit_code == 2

    def test_outcome_lists_scenarios(self):
        result = run("outcome", "--sef", "examples:simple", "--json")
        data = json.loads(result.output)
        assert set(data) == {"o1", "o2"}


class TestTiltCommand:
    def test_alternation_diverges(self):
        result = run("tilt", "--family", "dyadic", "--kappa", "alt:1,4")
        assert result.exit_code == 1
        assert "Diverged at (0, 1)" in result.output

    def test_limits(self):
        result = run("tilt", "--family", "dyadic", "--kappa", "1")
        assert result.exit_code == 0 and "1[0, (0, 1))" in result.output
        result = run("tilt", "--family", "nested", "--kappa", "w*2")
        assert result.exit_code == 0 and "1[0, (0, w*2))" in result.output

    def test_probe_and_window_flags(self):
        result = run("tilt", "--family", "dyadic", "--kappa", "2",
                     "--probe", "(0,1);(0,w)", "--json")
        assert json.loads(result.output) == {
            "converged": True, "stop": "(0, 2)",
            "table": {"(0, 1)": 1, "(0, w)": 0}}
        # a closed form reads no window, and there is no flag to set one
        result = run("tilt", "--family", "dyadic", "--kappa", "2",
                     "--window", "2:20:6")
        assert result.exit_code == 2 and "No such option" in result.output

    @pytest.mark.parametrize("kappa, code", [(29, 0), (30, 3)])
    def test_nested_subdivision_depth_cap(self, kappa, code):
        # index m of a nested grid reads 2^-m: its depth m counts against
        # the budget too, here the depth kappa + 1 of the default probes
        result = CliRunner().invoke(
            cli, ["tilt", "--family", "nested", "--kappa", str(kappa)],
            env={"EXFORM_BUDGET": "30"})
        assert result.exit_code == code
        if code:
            assert result.output == \
                "undecided: subdivision depth 31 exceeds 30\n"

    def test_nested_probe_deep_in_a_block_is_undecided_at_once(self):
        # the subdivision depth of its index is read off the gap to the
        # block's end; halving a step per level took over a second
        q = 10 ** 4000
        start = time.perf_counter()
        result = run("tilt", "--family", "nested", "--kappa", "3",
                     "--probe", f"({q - 1}/{q}, 0)")
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 3
        assert result.output == \
            "undecided: subdivision depth 13284 exceeds 10000\n"

    def test_a_short_window_still_proves_the_alternation(self):
        # two grid depths, 4 and 5, show one switch, which a window's tail
        # of two left undecided; the closed form reads that one period
        result = run("tilt", "--family", "dyadic", "--kappa", "alt:1,4")
        assert result.exit_code == 1
        assert result.output == \
            "Diverged at (0, 1): period [1, 0] from depth 4\n"

    @pytest.mark.parametrize("family", ["dyadic", "nested"])
    def test_a_probe_finer_than_the_window_settles(self, family):
        # at 2^-30 the probe's index passes both stop indices from depth 33
        # on; a window of depths 4 to 24 saw only the alternation
        result = run("tilt", "--family", family, "--kappa", "alt:1,4",
                     "--probe", "(1/1073741824, 0)", "--json")
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "converged": True, "stop": None,
            "table": {"(1/1073741824, 0)": 0}}

    def test_diverged_json_carries_its_period(self):
        result = run("tilt", "--family", "dyadic", "--kappa", "alt:3,w",
                     "--probe", "(3/1024, 0)", "--json")
        assert result.exit_code == 1
        # the probe's index ceil(3 * 2^(n-10)) is below the odd depths'
        # stop index 3 up to depth 9, and from depth 11 on it is not
        assert json.loads(result.output) == {
            "converged": False, "at": "(3/1024, 0)", "n0": 10,
            "period": [1, 0]}

    def test_a_probe_past_the_depth_cap_is_undecided_at_once(self):
        # the probe's index passes the stop index only from depth 14003
        start = time.perf_counter()
        result = run("tilt", "--family", "dyadic", "--kappa", "3",
                     "--probe", f"(1/{2 ** 14000}, 0)")
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 3
        assert result.output == \
            "undecided: closed-form depth 14003 exceeds 10000\n"

    @pytest.mark.parametrize("family, kappa, stop", [
        ("dyadic", "1000000000000", "(0, 1000000000000)"),
        ("nested", "w*1000000000000 + 5", "(0, w*1000000000000 + 5)")])
    def test_a_probe_at_the_extent_above_a_large_kappa_is_decided_at_once(
            self, family, kappa, stop):
        # the probe reads the first stage of the extent's fundamental
        # sequence at or above the stop index, counted, not climbed to
        start = time.perf_counter()
        result = run("tilt", "--family", family, "--kappa", kappa,
                     "--probe", "(0, w^2);(1/3, W1);inf", "--json")
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 0
        assert json.loads(result.output)["stop"] == stop

    def test_bad_specs_are_input_errors(self):
        assert run("tilt", "--family", "dyadic",
                   "--kappa", "alt:1").exit_code == 2
        assert run("tilt", "--family", "pentadic",
                   "--kappa", "1").exit_code == 2


class TestTimingCommand:
    def test_exact_and_empirical(self):
        result = run("timing-sim", "--eta", "1", "--whistle", "0",
                     "--trials", "2000", "--seed", "42", "--json")
        data = json.loads(result.output)
        assert data["distribution"] == {"sole-1": "1/3", "sole-2": "1/3",
                                        "simultaneous": "1/3"}
        assert sum(data["counts"].values()) == 2000

    def test_rationals_in_json_floats_in_human(self):
        machine = run("timing-sim", "--eta", "2", "--trials", "500",
                      "--seed", "1", "--json").output
        data = json.loads(machine)
        for value in data["frequencies"].values():
            assert "." not in value
        human = run("timing-sim", "--eta", "2", "--trials", "500",
                    "--seed", "1").output
        assert "freq 0." in human

    def test_deviation_and_grid_flags(self):
        result = run("timing-sim", "--eta", "1", "--deviation", "prewhistle",
                     "--grid-n", "3", "--json")
        data = json.loads(result.output)
        assert data["deviation_payoff"] == "-1"
        assert data["grid"]["mesh"] == "1/8"

    def test_negative_grid_n_is_a_coarse_mesh(self):
        # mesh 2^-n for every integer n, as for the dyadic grid family
        result = run("timing-sim", "--eta", "1", "--trials", "10",
                     "--grid-n", "-1")
        assert result.exit_code == 0
        assert result.output.endswith("grid approximant: mesh 2\n")

    def test_input_errors(self):
        assert run("timing-sim", "--eta", "0").exit_code == 2
        assert run("timing-sim", "--deviation", "sideways").exit_code == 2

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_malformed_budget_is_input_error(self, value):
        # timing-sim runs no budgeted search, but the variable is checked
        # before any subcommand runs
        result = CliRunner().invoke(
            cli, ["timing-sim", "--trials", "10", "--grid-n", "2"],
            env={"EXFORM_BUDGET": value})
        assert result.exit_code == 2
        assert "input error: EXFORM_BUDGET" in result.output

    def test_json_is_byte_deterministic(self):
        args = ["timing-sim", "--eta", "1", "--trials", "1000",
                "--seed", "9", "--json"]
        assert run(*args).output == run(*args).output

    def test_grid_reuses_the_seeded_batch(self, monkeypatch):
        # the approximant's batch is the race's own: one draw serves both
        args = ["timing-sim", "--eta", "1", "--trials", "300", "--seed", "4"]
        alone = run(*args).output
        calls = []
        draw = timing.monte_carlo
        monkeypatch.setattr(timing, "monte_carlo",
                            lambda config: calls.append(config) or draw(config))
        both = run(*args, "--grid-n", "3").output
        assert len(calls) == 1
        assert both == alone + "grid approximant: mesh 1/8\n"

    def test_readme_command_is_pinned(self):
        # the counter-based coin promises these values bit for bit
        result = run("timing-sim", "--eta", "1", "--trials", "100000",
                     "--seed", "42", "--grid-n", "10", "--json")
        data = json.loads(result.output)
        assert data["counts"] == {"simultaneous": 33206, "sole-1": 33576,
                                  "sole-2": 33218, "never": 0,
                                  "pre-whistle": 0}
        assert data["mean_payoffs"] == ["37/10000", "3/25000"]
        assert data["grid"] == {"mesh": "1/1024"}


class TestOversizedRationals:
    # the interpreter prints no integer of over 4300 digits
    @pytest.mark.parametrize("args, option", [
        (["timing-sim", "--grid-n", "15000"], "--grid-n"),
        (["timing-sim", "--eta", "1e5000"], "--eta"),
        (["timing-sim", "--whistle", "1e5000"], "--whistle"),
        (["equilibrium", "verify", "--sef", "examples:amd",
          "--p", "1e-5000"], "--p"),
    ])
    def test_oversized_option_exits_2(self, args, option):
        result = run(*args)
        assert result.exit_code == 2
        assert f"input error: {option}: a rational of over" in result.output

    @pytest.mark.parametrize("args, option", [
        (["timing-sim", "--eta", "1e99999999"], "--eta"),
        (["timing-sim", "--whistle", "1E-99_999_999"], "--whistle"),
        (["equilibrium", "verify", "--sef", "examples:amd",
          "--p", "1e-99999999"], "--p"),
    ])
    def test_huge_exponent_is_rejected_at_once(self, args, option):
        # Fraction would expand 10 ** 99999999 before any digit check
        start = time.perf_counter()
        result = run(*args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert f"input error: {option}: " in result.output
        assert "decimal exponent over" in result.output

    @pytest.mark.parametrize("n", ["1000000000", "-1000000000"])
    def test_huge_grid_n_is_rejected_from_n_alone(self, n):
        # 2^(10^9) would be a 125 MB integer, built before any check
        start = time.perf_counter()
        result = run("timing-sim", "--grid-n", n)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.output == (
            f"input error: --grid-n: a rational of over "
            f"{sys.get_int_max_str_digits()} digits cannot be printed\n")

    def test_grid_n_bound_is_where_the_mesh_stops_printing(self):
        # 2^n has over `limit` digits from n = bit length of 10^limit on
        first = (10 ** sys.get_int_max_str_digits()).bit_length()
        for n in (first, -first):
            assert run("timing-sim", "--grid-n", str(n)).exit_code == 2
        result = run("timing-sim", "--grid-n", str(first - 1), "--json")
        assert result.exit_code == 0
        assert json.loads(result.output)["grid"]["mesh"] \
            == f"1/{2 ** (first - 1)}"

    def test_long_decimal_is_named_not_echoed(self):
        digits = "1" * 5000
        result = run("equilibrium", "verify", "--sef", "examples:amd",
                     "--p", "0." + digits)
        limit = sys.get_int_max_str_digits()
        assert result.exit_code == 2
        assert result.output == (
            f"input error: --p: a rational of over {limit} digits, or with a "
            f"decimal exponent over {limit}, cannot be parsed\n")
        result = run("equilibrium", "verify", "--sef", "examples:amd",
                     "--p", "0.1x")
        assert result.output == "input error: --p: not a rational: '0.1x'\n"

    def test_oversized_result_exits_2(self):
        # eta = 99..9/10^4299 prints, but the mean payoffs over 1000
        # trials have over 4300 digits
        eta = "9." + "9" * 4299
        result = run("timing-sim", "--eta", eta, "--trials", "1000", "--json")
        assert result.exit_code == 2
        assert "input error: a rational of over" in result.output


class TestUndecided:
    @pytest.mark.parametrize("args", [
        ["equilibrium", "verify", "--sef", "examples:amd", "--p", "2/3"],
        ["wellposed", "--sef", "examples:simple"],
    ])
    def test_search_over_budget_exits_3(self, args):
        # a search cut off by its budget has decided nothing: not exit 1
        result = CliRunner().invoke(cli, args, env={"EXFORM_BUDGET": "1"})
        assert result.exit_code == 3
        assert "undecided:" in result.output
        assert "check failed" not in result.output

    def test_validate_below_the_join_nodes_exits_3(self):
        # mp-case3's second mover: its Axiom 6 join takes 558 nodes
        args = ["validate", "--sef", "examples:mp-case3"]
        result = CliRunner().invoke(cli, args, env={"EXFORM_BUDGET": "557"})
        assert (result.exit_code, result.output) \
            == (3, "undecided: more than 557 adapted-choice search nodes\n")
        result = CliRunner().invoke(cli, args, env={"EXFORM_BUDGET": "558"})
        assert (result.exit_code, result.output) \
            == (0, "valid SEF, perfect recall, imperfect information\n")

    def test_wellposed_budget_counts_tree_keys(self):
        # mp-case3's 48 histories x 1,024 profiles exceed 49,151, but the
        # direct check decides its 16 trees' histories once per tree key:
        # 192 pairs, under its agents' 256 strategies.  Below 558, building
        # the form stops first, at the second mover's Axiom 6 search
        args = ["wellposed", "--sef", "examples:mp-case3", "--method",
                "direct"]
        result = CliRunner().invoke(cli, args, env={"EXFORM_BUDGET": "49151"})
        assert (result.exit_code, result.output) == (0, "well-posed\n")
        result = CliRunner().invoke(cli, args, env={"EXFORM_BUDGET": "255"})
        assert (result.exit_code, result.output) \
            == (3, "undecided: more than 255 adapted-choice search nodes\n")


def error_classes(cls=ExformError):
    """The package's error classes: the class and its subclasses in
    exform's modules."""
    return {cls}.union(*[error_classes(sub) for sub in cls.__subclasses__()
                         if sub.__module__.startswith("exform.")])


def test_readme_exit_code_table_names_every_error():
    # each row names one error class and the exit code guarded maps it to
    rows = re.findall(r"^\| `(\w+)` \| ([0-3]) \|$", README.read_text(),
                      re.MULTILINE)
    assert len(rows) == len(dict(rows))
    codes = {}
    for cls in error_classes():
        def command():
            raise cls.__new__(cls, "message")

        with pytest.raises(SystemExit) as stop:
            guarded(command)()
        codes[cls.__name__] = str(stop.value.code)
    assert dict(rows) == codes


def readme_examples():
    """(command line, printed lines) of each "$ exform" line in the
    README's "Some examples" block."""
    block = README.read_text().split("Some examples:\n\n```text\n", 1)[1]
    block = block.split("```", 1)[0]
    for example in block.strip().split("\n\n"):
        command, *lines = example.split("\n")
        assert command.startswith("$ exform ")
        yield command[len("$ exform "):], "".join(f"{x}\n" for x in lines)


README_EXAMPLES = list(readme_examples())


@pytest.mark.parametrize("command, printed", README_EXAMPLES,
                         ids=[command for command, _ in README_EXAMPLES])
def test_readme_examples_print_as_shown(command, printed):
    result = CliRunner().invoke(cli, shlex.split(command))
    assert result.stdout == printed


# --- fuzzed options: every run ends in an exit code, never a traceback --------

ORDINAL_CHARS = "0123456789w^*+ "
ordinals = st.one_of(
    st.text(ORDINAL_CHARS, max_size=12),
    st.integers(0, 10 ** 30).map(str),
    st.builds(lambda e, c, k: f"w^{e}*{c} + {k}", st.integers(0, 40),
              st.integers(-1, 10 ** 30), st.integers(0, 10 ** 30)),
    st.just("9" * 4301))
rationals = st.one_of(
    st.text("0123456789/.-+e_ x", max_size=12),
    st.fractions().map(str),
    st.builds(lambda m, e: f"{m}e{e}", st.integers(-9, 9),
              st.integers(-6000, 6000) | st.integers(-10 ** 9, 10 ** 9)),
    st.sampled_from(["9" * 4301, "1/0", "nan", "inf", "-0"]))
kappas = st.one_of(ordinals, st.builds(lambda a, b: f"alt:{a},{b}",
                                       ordinals, ordinals))
probes = st.lists(st.one_of(
    st.builds(lambda t, v: f"({t}, {v})", rationals, ordinals),
    st.sampled_from(["inf", "(0, W1)", "(1/2, w)"]),
    st.text("()0123456789w,/ W1inf", max_size=10)), min_size=1, max_size=3)
labels = st.one_of(st.text(max_size=2), st.integers(-2, 2), st.booleans(),
                   st.none(), st.floats(), st.lists(st.integers(), max_size=1))
posets = st.one_of(
    st.fixed_dictionaries({
        "elements": st.lists(labels, max_size=5),
        "leq": st.lists(st.one_of(st.lists(labels, min_size=2, max_size=2),
                                  labels), max_size=5)}),
    st.recursive(st.one_of(st.none(), st.integers(), st.text(max_size=3)),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.sampled_from(["elements", "leq"]),
                                   inner, max_size=2), max_leaves=6))
invocations = st.one_of(
    # the closed form reads one period per probe from no deeper than
    # tilt.DEPTH_CAP, so every run is cheap
    st.builds(lambda family, kappa, probe: [
        "tilt", "--family", family, "--kappa", kappa,
        *(["--probe", ";".join(probe)] if probe else [])],
        st.sampled_from(sorted(tilt.REGISTERED)), kappas,
        st.none() | probes),
    st.builds(lambda eta: ["timing-sim", "--eta", eta, "--trials", "3"],
              rationals),
    st.builds(lambda p: ["equilibrium", "verify", "--sef", "examples:amd",
                         "--p", p], rationals),
    # a poset document, or raw bytes that need not be UTF-8
    st.builds(lambda doc: ["dm", doc], posets | st.binary(max_size=8)))


@given(invocations)
@settings(deadline=None, max_examples=300)
def test_fuzzed_options_end_in_an_exit_code(args):
    runner = CliRunner()
    with runner.isolated_filesystem():
        if args[0] == "dm":
            doc = args[1]
            Path("poset.json").write_bytes(
                doc if isinstance(doc, bytes) else json.dumps(doc).encode())
            args = ["dm", "--poset", "poset.json"]
        result = runner.invoke(cli, args)
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), result.output
    assert result.exit_code in (0, 1, 2, 3)


# --- form documents through validate ------------------------------------------

# a one-shot form: one scenario, one move, two choices
ONE_SHOT = {"outcomes": ["a", "b"], "nodes": [["a"], ["a", "b"], ["b"]],
            "scenarios": ["w"], "projection": ["w", "w", "w"],
            "random_moves": [[["w", 1]]], "agents": ["i"],
            "agent_moves": {"i": [0]}, "info": {"i": {"0": [["w"]]}},
            "refchoices": {"i": {"0": []}}, "choices": {"i": [["a"], ["b"]]}}


def well_shaped(doc):
    """Whether a form document has the shape ``parse_sef`` reads: labels
    are strings; nodes, choices, reference choices and partition blocks
    are arrays of labels; both are distinct within their arrays; a random
    move is an array of [scenario, node index] pairs; the per-agent
    objects are keyed by exactly the agents, and their inner objects by
    move indexes."""
    def strings(v, distinct=True):
        return isinstance(v, list) and all(isinstance(x, str) for x in v) \
            and (len(set(v)) == len(v) or not distinct)

    def sets(v):
        return isinstance(v, list) and all(strings(x) for x in v) \
            and len({frozenset(x) for x in v}) == len(v)

    def index(v, n):
        return type(v) is int and 0 <= v < n

    keys = ("outcomes", "nodes", "scenarios", "projection", "random_moves",
            "agents", "agent_moves", "info", "refchoices", "choices")
    if not isinstance(doc, dict) or not all(k in doc for k in keys):
        return False
    nodes, moves = doc["nodes"], doc["random_moves"]
    if not (strings(doc["outcomes"]) and strings(doc["scenarios"])
            and sets(nodes) and strings(doc["agents"])
            and strings(doc["projection"], distinct=False)
            and len(doc["projection"]) == len(nodes)
            and isinstance(moves, list)):
        return False
    for graph in moves:
        if not (isinstance(graph, list) and all(
                isinstance(p, list) and len(p) == 2 and index(p[1], len(nodes))
                for p in graph) and strings([p[0] for p in graph])):
            return False
    agents, names = doc["agents"], [str(k) for k in range(len(moves))]
    per_agent = [doc[k] for k in keys[6:]]
    if not all(isinstance(d, dict) and set(d) == set(agents)
               for d in per_agent):
        return False
    agent_moves, info, refchoices, choices = per_agent
    return all(
        isinstance(agent_moves[i], list)
        and all(index(k, len(moves)) for k in agent_moves[i])
        and all(isinstance(d, dict) and set(d) <= set(names)
                and all(sets(v) for v in d.values())
                for d in (info[i], refchoices[i]))
        and sets(choices[i]) for i in agents)


def validate_document(doc):
    runner = CliRunner()
    with runner.isolated_filesystem():
        Path("form.json").write_text(json.dumps(doc))
        return runner.invoke(cli, ["validate", "--sef", "form.json"])


DOCUMENTS = [ONE_SHOT] + [serialize_sef(load_example(name)[0])
                          for name in ("simple", "ultimatum", "mp-case1")]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.sampled_from(["", "a", "b", "ab", "i", "w", "0", "1", " 1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["i", "0", "1", "a"]), inner,
                      max_size=2), max_leaves=6)


@st.composite
def mutated_documents(draw):
    """A serialized form with one value somewhere replaced: by a random
    JSON value, or by a string, an object or a bool of the same content."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    parent, key = None, None
    value = doc
    while isinstance(value, (list, dict)) and value \
            and draw(st.integers(0, 3)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        parent, key = value, draw(st.sampled_from(list(keys)))
        value = parent[key]
    new = draw(st.one_of(
        json_values,
        st.just("".join(map(str, value)) if isinstance(value, list)
                else str(value)),
        st.just(dict(enumerate(value)) if isinstance(value, list) else value),
        st.just(bool(value) if isinstance(value, int) else value),
        st.just(value + value if isinstance(value, list) else value)))
    if parent is None:
        return new
    parent[key] = new
    return doc


class TestFormDocuments:
    def test_one_shot_is_valid(self):
        assert validate_document(ONE_SHOT).exit_code == 0

    @pytest.mark.parametrize("key, value", [
        # a string was read as its characters, and the form was valid
        ("choices", {"i": "ab"}),
        # a repeated agent failed Axiom 2 against itself
        ("agents", ["i", "i"]),
        # -1 and true were read as node indexes; {} was read as its keys
        ("random_moves", [[["w", -1]]]),
        ("random_moves", [[["w", True]]]),
        ("nodes", {"0": ["a"], "1": ["a", "b"], "2": ["b"]}),
    ])
    def test_misread_documents_are_input_errors(self, key, value):
        result = validate_document({**ONE_SHOT, key: value})
        assert result.exit_code == 2
        assert "malformed form document" in result.output

    @given(mutated_documents())
    @settings(deadline=None, max_examples=300)
    def test_fuzzed_documents_end_in_an_exit_code(self, doc):
        result = validate_document(doc)
        assert result.exception is None \
            or isinstance(result.exception, SystemExit), result.output
        assert result.exit_code in (0, 1, 2, 3)
        # a document of the wrong shape is never read another way
        assert well_shaped(doc) or result.exit_code == 2, result.output


class TestDM:
    def test_antichain_completion(self, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "leq": []}))
        result = run("dm", "--poset", str(path), "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["completion"] == 4
        assert data["complete_lattice"] and data["dense_embedding"]

    def test_covers_are_closed_transitively(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(
            {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]}))
        result = run("dm", "--poset", str(path), "--json")
        assert json.loads(result.output)["completion"] == 3

    def test_bad_file(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json")
        assert run("dm", "--poset", str(path)).exit_code == 2

    def test_non_utf8_file_is_input_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_bytes(b"\xff\xfe")
        result = run("dm", "--poset", str(path))
        assert result.exit_code == 2 and result.exception.code == 2
        assert result.output.startswith("input error: cannot read poset: "
                                        "'utf-8' codec can't decode")

    @pytest.mark.parametrize("doc", [
        {"elements": ["a", "b"], "leq": [["a"]]},
        {"elements": ["a", "b"], "leq": [["a", "b", "c"]]},
        {"elements": ["a", "b"], "leq": "ab"},
        {"elements": [[1], 2], "leq": []},
        {"elements": ["a"], "leq": [["a", {"b": 1}]]},
    ])
    def test_malformed_document_exits_2(self, tmp_path, doc):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc))
        result = run("dm", "--poset", str(path))
        assert result.exit_code == 2
        assert "input error" in result.output


    @pytest.mark.parametrize("doc,pair", [
        ({"elements": [1, True], "leq": []}, "1 and true"),
        ({"elements": [1, "a", None, True, 1.5], "leq": []}, "1 and true"),
        ({"elements": [False, "a"], "leq": [[0, "a"]]}, "false and 0"),
    ])
    def test_labels_equal_only_in_python_exit_2(self, tmp_path, doc, pair):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc))
        result = run("dm", "--poset", str(path))
        assert result.exit_code == 2
        assert pair in result.output


    @pytest.mark.parametrize("doc, completion", [
        ({"elements": [f"c{i}" for i in range(40)],
          "leq": [[f"c{i}", f"c{i + 1}"] for i in range(39)]}, 40),
        ({"elements": [f"x{i}" for i in range(30)], "leq": []}, 32),
    ])
    def test_large_posets_with_small_completions(self, tmp_path, doc,
                                                 completion):
        # 2^40 and 2^30 subsets, but 40 and 32 cuts
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc))
        result = run("dm", "--poset", str(path), "--json")
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "elements": len(doc["elements"]), "completion": completion,
            "complete_lattice": True, "dense_embedding": True}

    @staticmethod
    def crown(tmp_path, half):
        """The crown a_i < b_j for i != j on 2 * half elements, whose
        completion has 2^half cuts."""
        low = [f"a{i}" for i in range(half)]
        high = [f"b{i}" for i in range(half)]
        path = tmp_path / "crown.json"
        path.write_text(json.dumps({
            "elements": low + high,
            "leq": [[a, b] for i, a in enumerate(low)
                    for j, b in enumerate(high) if i != j]}))
        return path

    def test_crown_completes_in_seconds(self, tmp_path):
        # 16 elements, 2^8 cuts
        path = self.crown(tmp_path, 8)
        start = time.perf_counter()
        result = run("dm", "--poset", str(path), "--json")
        assert time.perf_counter() - start < 5.0
        assert result.exit_code == 0
        assert json.loads(result.output)["completion"] == 256

    def test_eighteen_element_crown(self, tmp_path):
        # 2^9 cuts, a lattice of 512 elements: its bound questions are
        # lookups of principal sets, not scans of the lattice
        path = self.crown(tmp_path, 9)
        start = time.perf_counter()
        result = run("dm", "--poset", str(path), "--json")
        assert time.perf_counter() - start < 0.75
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "elements": 18, "completion": 512,
            "complete_lattice": True, "dense_embedding": True}

    def test_twenty_four_element_crown(self, tmp_path):
        # 2^12 cuts, checked in one pass over them: no relation over pairs
        path = self.crown(tmp_path, 12)
        start = time.perf_counter()
        result = run("dm", "--poset", str(path), "--json")
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "elements": 24, "completion": 4096,
            "complete_lattice": True, "dense_embedding": True}

    def test_thirty_two_element_crown(self, tmp_path):
        path = self.crown(tmp_path, 16)
        start = time.perf_counter()
        result = run("dm", "--poset", str(path), "--json")
        assert time.perf_counter() - start < 5.0
        assert result.exit_code == 0
        assert json.loads(result.output) == {
            "elements": 32, "completion": 2 ** 16,
            "complete_lattice": True, "dense_embedding": True}

    def test_a_family_that_is_not_dense_prints_false(self, tmp_path,
                                                     monkeypatch):
        # the chain's completion with the non-cut {} added: still a
        # complete lattice (a 4-chain), but {} is no meet of images
        complete = order.dm_completion

        def padded(poset):
            lattice, phi = complete(poset)
            return order.Cuts(lattice.elements | {frozenset()}), phi

        monkeypatch.setattr(order, "dm_completion", padded)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(
            {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]}))
        result = run("dm", "--poset", str(path), "--json")
        assert result.exit_code == 1
        assert json.loads(result.output) == {
            "elements": 3, "completion": 4,
            "complete_lattice": True, "dense_embedding": False}
        assert "dense embedding: False" in run("dm", "--poset",
                                               str(path)).output

    @pytest.mark.parametrize("doc, message", [
        ({"elements": ["a"], "leq": [["a", "b"]]},
         "relation mentions unknown label: ('a', 'b')"),
        ({"elements": ["a"], "leq": [["b", "c"]]},
         "relation mentions unknown label: ('b', 'c')"),
        ({"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]]},
         "relation not antisymmetric on"),
    ])
    def test_relation_errors_exit_2(self, tmp_path, doc, message):
        # labels met only in leq reach Poset and are rejected there
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(doc))
        result = run("dm", "--poset", str(path))
        assert result.exit_code == 2
        assert f"input error: {message}" in result.output


def closure_by_scan(elements, pairs):
    """The fixpoint closure over pairs of pairs that Warshall's method
    replaced."""
    leq = {(x, x) for x in elements} | {tuple(p) for p in pairs}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return leq


LABEL_POOL = ["a", "b", "c", "d", "e", 1, 2]


@given(st.lists(st.sampled_from(LABEL_POOL), max_size=5),
       st.lists(st.lists(st.sampled_from(LABEL_POOL), min_size=2,
                         max_size=2), max_size=10))
def test_closure_matches_the_fixpoint(elements, pairs):
    # cycles and labels outside the elements included
    assert _closure(elements, pairs) == closure_by_scan(elements, pairs)


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        result = subprocess.run(
            [sys.executable, "-m", "exform", "--help"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC + os.pathsep
                 + os.environ.get("PYTHONPATH", "")})
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("Usage: exform ")


# after running ``cli.main``, the exform modules a fresh interpreter holds
LOADED = ("import sys\n"
          "from exform import cli\n"
          "sys.argv[0] = 'exform'\n"
          "try:\n"
          "    cli.main()\n"
          "except SystemExit:\n"
          "    pass\n"
          "print(' '.join(sorted(n[len('exform.'):] for n in sys.modules\n"
          "                      if n.startswith('exform.'))))\n")


def loaded_layers(*args):
    """The exform modules loaded by ``exform *args`` in a fresh interpreter:
    its last line of stdout."""
    result = subprocess.run(
        [sys.executable, "-c", LOADED, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC + os.pathsep
             + os.environ.get("PYTHONPATH", "")})
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


class TestImportGraph:
    """Each subcommand loads the layers it runs and no other."""

    FORM_LAYERS = {"forest", "sdf", "adapted", "sef"}
    # command (with "{form}" for a serialized form) -> (loaded, not loaded)
    CASES = {
        "tilt --family dyadic --kappa 3":
            ({"tilt", "vtime"},
             FORM_LAYERS | {"play", "equil", "order", "timing"}),
        "timing-sim --trials 10":
            ({"timing"}, FORM_LAYERS | {"play", "equil", "order"}),
        "dm --poset {poset}":
            ({"order"}, FORM_LAYERS | {"play", "equil", "tilt", "timing"}),
        "validate --sef {form}":
            (FORM_LAYERS, {"instances", "equil", "tilt", "timing"}),
        "infosets --sef {form}":
            (FORM_LAYERS, {"instances", "equil", "tilt", "timing"}),
        "wellposed --sef {form}":
            (FORM_LAYERS | {"play"}, {"instances", "equil", "tilt", "timing"}),
        "validate --sef examples:amd":
            (FORM_LAYERS | {"instances"}, {"tilt", "timing"}),
        "equilibrium verify --sef {form}":
            (FORM_LAYERS, {"instances", "equil", "tilt", "timing"}),
        "examples":
            ({"instances"}, {"play", "equil", "tilt", "timing"}),
        "--help":
            (set(), FORM_LAYERS | {"play", "equil", "instances", "order",
                                   "tilt", "timing"}),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_command_loads_its_layers(self, command, tmp_path):
        form, poset = tmp_path / "form.json", tmp_path / "poset.json"
        form.write_text(json.dumps(serialize_sef(load_example("simple")[0])))
        poset.write_text(json.dumps({"elements": [1, 2], "leq": [[1, 2]]}))
        loaded = loaded_layers(
            *command.format(form=form, poset=poset).split())
        wanted, unwanted = self.CASES[command]
        assert wanted <= loaded
        assert not loaded & unwanted
        # action paths are a library construction no command runs
        assert "actionpath" not in loaded

    def test_family_choices_are_the_registry(self):
        (family,) = [p for p in cli.commands["tilt"].params
                     if p.name == "family"]
        assert list(family.type.choices) == sorted(tilt.REGISTERED)


class TestRegistry:
    def test_contains_all_examples(self):
        registry = examples_list()
        assert set(registry) == set(EXAMPLE_NAMES)
        assert registry["amd"]["payoffs"] == {"1": "8/5", "2": "8/5"}

    def test_command_output(self):
        result = run("examples", "--json")
        data = json.loads(result.output)
        assert "mp-case1" in data and "simple-variant" in data


class TestSerialization:
    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_round_trip(self, name):
        form, _, _, _ = load_example(name)
        doc = serialize_sef(form)
        again = serialize_sef(parse_sef(doc))
        assert json.dumps(doc, sort_keys=True) \
            == json.dumps(again, sort_keys=True)

    def test_rebuilt_form_behaves_identically(self):
        form, _, _, _ = load_example("simple")
        twin = parse_sef(serialize_sef(form))
        assert twin.sdf.forest.nodes == form.sdf.forest.nodes
        assert twin.choices == form.choices
        assert twin.agent_moves == form.agent_moves

    def test_non_string_outcomes_rejected(self):
        class Shim:
            class sdf:
                class forest:
                    outcomes = frozenset({1, 2})

        with pytest.raises(InputError):
            serialize_sef(Shim())
