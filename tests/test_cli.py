"""End-to-end tests for the command-line interface.

All tests drive :func:`wildmdeg.cli.main` in-process with explicit argv
and capture stdout/stderr via capsys; one smoke test exercises the
``python -m wildmdeg`` entry point in a subprocess.
"""

import hashlib
import json
import operator
import os
import re
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

from wildmdeg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_tame_exit_zero(self, capsys):
        code, out, err = run(capsys, "classify", "2", "4", "8")
        assert code == 0
        assert "triple (2, 4, 8): tame" in out
        assert "[rule R8]" in out
        assert "certificate: semigroup_witness\n  a: 4\n  b: 0\n" in out
        assert "realization:" in out
        assert err == ""

    def test_not_tame_exit_one(self, capsys):
        code, out, _ = run(capsys, "classify", "3", "4", "5")
        assert code == 1
        assert "triple (3, 4, 5): not tame" in out
        assert "[rule R3]" in out
        assert "certificate: citation" in out

    def test_unknown_exit_two(self, capsys):
        code, out, _ = run(capsys, "classify", "4", "5", "6")
        assert code == 2
        assert "triple (4, 5, 6): unknown" in out
        assert "certificate: none" in out

    def test_reduction_certificate_text(self, capsys):
        code, out, _ = run(capsys, "classify", "6", "13", "20")
        assert code == 1
        assert "certificate: reduction_exclusion" in out
        assert "    - checks:" in out
        assert "      coordinate: first" in out
        assert "      coordinate: third" in out
        assert out.count("      conclusion: reduction_impossible") == 3
        assert (
            "  type_iii:\n    checks:\n"
            "      [ok] d2 mod 2 != 0  (lhs=1, rhs=0)\n"
            "    excluded: true\n"
        ) in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "classify", "--format", "json", "2", "3", "5")
        assert code == 0
        document = json.loads(out)
        assert document["triple"] == [2, 3, 5]
        assert document["status"] == "tame"
        assert document["rule_id"] == "R8"
        assert document["certificate"] == {
            "kind": "semigroup_witness",
            "data": {"a": 1, "b": 1},
        }
        assert "realization" in document

    def test_json_is_deterministic(self, capsys):
        _, first, _ = run(capsys, "classify", "--format", "json", "6", "13", "20")
        _, second, _ = run(capsys, "classify", "--format", "json", "6", "13", "20")
        assert first == second

    def test_unsorted_triple_exits_three(self, capsys):
        code, _, err = run(capsys, "classify", "3", "2", "1")
        assert code == 3
        assert "wildmdeg: error:" in err

    def test_missing_argument_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "1", "2"])
        assert info.value.code == 3

    def test_non_integer_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["classify", "one", "two", "three"])
        assert info.value.code == 3


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 3

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 3

    def test_format_flag_must_follow_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["--format", "json", "classify", "1", "2", "3"])
        assert info.value.code == 3

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "wildmdeg" in capsys.readouterr().out

    def test_module_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "wildmdeg", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "wildmdeg" in result.stdout

    def test_closed_stdout_exits_quietly(self):
        # the reader of stdout is gone before the first write, as after
        # `| head -c 300`; closing the read end first makes that certain
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "wildmdeg", "construct", "fdk",
                 "--d", "6", "--k", "2", "--format", "json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 141
        assert "Traceback" not in result.stderr
        assert "BrokenPipeError" not in result.stderr


class TestConstructCommand:
    def test_nagata_text(self, capsys):
        code, out, _ = run(capsys, "construct", "nagata", "--k", "1")
        assert code == 0
        assert "-x^2*z^3 - 2*x*y^2*z^2 - y^4*z - 2*x*y*z - 2*y^3 + x" in out
        assert "x*z^2 + y^2*z + y" in out
        assert "multidegree: (5, 3, 1)" in out
        assert "factorization: nagata(1)" in out

    def test_fdk_json(self, capsys):
        code, out, _ = run(
            capsys, "construct", "fdk", "--format", "json", "--d", "3", "--k", "1"
        )
        assert code == 0
        document = json.loads(out)
        assert document["multidegree"] == [3, 7, 11]
        assert document["factors"] == ["T", "nagata(1)", "shift(z, x^3)"]

    def test_lemma1_text(self, capsys):
        code, out, _ = run(capsys, "construct", "lemma1", "--l", "1", "--k", "1")
        assert code == 0
        assert "multidegree: (5, 7, 9)" in out

    def test_lemma2_text(self, capsys):
        code, out, _ = run(capsys, "construct", "lemma2", "--r", "1", "--k", "2")
        assert code == 0
        assert "multidegree: (1, 5, 9)" in out

    @pytest.mark.parametrize("r", ["1", "2", "3", "4"])
    def test_lemma2_prints_the_fdk_document(self, capsys, r):
        lemma2 = run(
            capsys, "construct", "lemma2", "--r", r, "--k", "2", "--format", "json"
        )
        fdk = run(
            capsys, "construct", "fdk", "--d", r, "--k", "2", "--format", "json"
        )
        assert lemma2 == fdk
        assert lemma2[0] == 0

    def test_lemma2_error_names_its_flag(self, capsys):
        code, _, err = run(capsys, "construct", "lemma2", "--r", "0", "--k", "1")
        assert code == 3
        assert err == "wildmdeg: error: r must be at least 1, got 0\n"

    def test_witness_auto_exponents(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "witness", "--d1", "3", "--d2", "5", "--d3", "11",
        )
        assert code == 0
        assert "multidegree: (3, 5, 11)" in out

    def test_witness_defaults_to_the_classifier_realization(self, capsys):
        # d1 | d2 with d3 outside <d1, d2>: R2's witness; d1 = 1: R1's
        for d1, d2, d3 in (("4", "8", "9"), ("1", "3", "5"), ("2", "3", "7")):
            _, expected, _ = run(capsys, "classify", d1, d2, d3)
            code, out, _ = run(
                capsys,
                "construct", "witness", "--d1", d1, "--d2", d2, "--d3", d3,
            )
            assert code == 0
            coordinates = expected.split("realization:\n", 1)[1]
            assert out.startswith("coordinates:\n" + coordinates)
            assert f"multidegree: ({d1}, {d2}, {d3})" in out

    def test_witness_takes_no_exponents(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["construct", "witness", "--d1", "3", "--d2", "5",
                  "--d3", "11", "--a", "1", "--b", "1"])
        assert info.value.code == 3
        assert "unrecognized arguments: --a 1 --b 1" in capsys.readouterr().err

    def test_witness_non_member_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "construct", "witness", "--d1", "3", "--d2", "5", "--d3", "7",
        )
        assert code == 3
        assert "not in the semigroup" in err

    def test_invalid_parameter_exits_three(self, capsys):
        code, _, err = run(capsys, "construct", "nagata", "--k", "0")
        assert code == 3
        assert "wildmdeg: error:" in err

    def test_missing_kind_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["construct"])
        assert info.value.code == 3


class TestWildEnumCommand:
    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "wild-enum", "--d", "3", "--count", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "(3, 7, 11)  family=odd_general k=1 rule=R3 status=not_tame"
        )
        assert lines[1] == (
            "(3, 11, 19)  family=odd_general k=2 rule=R3 status=not_tame"
        )

    def test_json_without_maps(self, capsys):
        code, out, _ = run(
            capsys, "wild-enum", "--format", "json", "--d", "4", "--count", "2"
        )
        assert code == 0
        document = json.loads(out)
        assert document["d"] == 4
        triples = [r["triple"] for r in document["results"]]
        assert triples == [[4, 9, 14], [4, 19, 34]]
        assert all("realization" not in r for r in document["results"])

    def test_json_with_maps(self, capsys):
        code, out, _ = run(
            capsys,
            "wild-enum", "--format", "json",
            "--d", "5", "--count", "1", "--with-maps",
        )
        assert code == 0
        document = json.loads(out)
        (result,) = document["results"]
        assert result["triple"] == [5, 7, 9]
        assert len(result["realization"]["coords"]) == 3

    def test_invalid_degree_exits_three(self, capsys):
        code, _, err = run(capsys, "wild-enum", "--d", "2")
        assert code == 3
        assert "wildmdeg: error:" in err


class TestCheckReductionsCommand:
    def test_family_instance_excluded(self, capsys):
        code, out, _ = run(capsys, "check-reductions", "--d", "6", "--k", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "all_excluded: true"
        assert "triple: [6, 13, 20]" in lines
        assert "d: 6" in lines and "k: 1" in lines
        for coordinate in ("first", "second", "third"):
            assert f"    coordinate: {coordinate}" in lines
        assert lines.count("    conclusion: reduction_impossible") == 3
        assert "  excluded: true" in lines

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys,
            "check-reductions", "--format", "json", "--d", "8", "--k", "1",
        )
        assert code == 0
        document = json.loads(out)
        assert document["triple"] == [8, 17, 26]
        assert document["all_excluded"] is True
        assert len(document["cases"]) == 3

    def test_odd_degree_exits_three(self, capsys):
        code, _, err = run(capsys, "check-reductions", "--d", "5", "--k", "1")
        assert code == 3
        assert "wildmdeg: error:" in err

    def test_shared_factor_exits_three(self, capsys):
        code, _, err = run(capsys, "check-reductions", "--d", "6", "--k", "3")
        assert code == 3
        assert "wildmdeg: error:" in err


class TestVerifyCommand:
    def test_exp_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "exp-vs-closed-form",
                           "--kmax", "2")
        assert code == 0
        assert "passed 2/2 checks" in out
        assert "FAIL" not in out

    def test_reductions_suite(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "reductions", "--dmax", "8", "--kmax", "1",
        )
        assert code == 0
        assert "passed 3/3 checks" in out

    def test_gcds_suite_includes_progression_traces(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "gcds", "--dmax", "5", "--kmax", "2"
        )
        assert code == 0
        assert "short-progression exclusion valid, r=5, k=2" in out
        assert "long-progression exclusion valid, r=5, k=2" in out

    @pytest.mark.parametrize("dmax, kmax", [(4, 1), (5, 2), (13, 6), (60, 20)])
    @pytest.mark.parametrize("suite", ["reductions", "gcds"])
    def test_family_suites_check_the_reference_grid(self, capsys, suite, dmax, kmax):
        # the grids as written before the family table: even d from 4, and
        # for gcds also odd r from 3, each with every k coprime to it
        expected = []
        for d in range(4, dmax + 1, 2):
            for k in range(1, kmax + 1):
                if gcd(d, k) == 1:
                    expected.append(
                        f"reductions excluded for d={d}, k={k}"
                        if suite == "reductions"
                        else f"gcd pattern (1, 1, 2) on family triple d={d}, k={k}"
                    )
        for r in range(3, dmax + 1, 2) if suite == "gcds" else ():
            for k in range(1, kmax + 1):
                if gcd(r, k) == 1:
                    expected += [
                        f"{name}-progression exclusion valid, r={r}, k={k}"
                        for name in ("short", "long")
                    ]
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--dmax", str(dmax),
            "--kmax", str(kmax), "--format", "json",
        )
        document = json.loads(out)
        assert [row["name"] for row in document["checks"]] == expected
        assert (code, document["all_ok"]) == (0, True)

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "exp-vs-closed-form",
            "--format", "json", "--kmax", "3",
        )
        assert code == 0
        document = json.loads(out)
        assert document["all_ok"] is True
        assert document["passed"] == document["total"] == 3
        assert [row["name"] for row in document["checks"]] == [
            f"exponential of scaled derivation matches closed form, k={k}"
            for k in (1, 2, 3)
        ]

    @pytest.mark.parametrize("flag", ["--d", "--k"])
    def test_single_value_flags_are_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "identities", flag, "6"])
        assert info.value.code == 3
        assert f"unrecognized arguments: {flag} 6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bounds",
        [
            ("--suite", "identities", "--kmax", "0"),
            ("--suite", "reductions", "--dmax", "3"),
        ],
    )
    def test_empty_grid_is_usage_error(self, capsys, bounds):
        code, out, err = run(capsys, "verify", *bounds)
        assert code == 3
        assert out == ""
        assert "select no checks" in err

    @pytest.mark.parametrize(
        "bounds, flag",
        [
            (("--suite", "exp-vs-closed-form", "--dmax", "3"), "--dmax"),
            (("--suite", "exp-vs-closed-form", "--lmax", "3"), "--lmax"),
            (("--suite", "reductions", "--lmax", "2"), "--lmax"),
            (("--suite", "gcds", "--kmax", "3", "--lmax", "2"), "--lmax"),
        ],
    )
    def test_unread_bound_is_usage_error(self, capsys, bounds, flag):
        code, out, err = run(capsys, "verify", *bounds)
        assert code == 3
        assert out == ""
        assert f"suite {bounds[1]!r} does not read {flag}" in err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "everything"])
        assert info.value.code == 3


GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


@pytest.mark.parametrize(
    "record",
    json.loads(GOLDEN.read_text()),
    ids=lambda record: " ".join(record["argv"]),
)
def test_golden_corpus(capsys, record):
    """stdout and exit code of ``python -m wildmdeg ARGV`` as captured at
    commit c7731b2, before the R7 audit, the family formula and the
    validators were merged into one copy each.  Recaptured since, with
    nothing outside the named rows changed:

    - ``wild-enum --format json`` for d = 3 and d = 5, when the
      non-membership steps became name/lhs/rhs/holds rows, and again when
      they became one residue row per b (``exclusion.steps``);
    - ``classify --format json 6 13 20`` and the three ``check-reductions``
      entries, when each reduction case became one ``su_lower_bound``
      floor row plus one residue row per b < p (the ``checks`` rows);
    - the three ``wild-enum --format json`` entries, when a family
      certificate gained the classifier's certificate as ``proof`` and
      its ``exclusion`` became a plain list of rows;
    - ``classify --format json 1 2 3``, when the R1 certificate kept only
      the factor tokens;
    - every text ``classify`` entry with a certificate and both text
      ``check-reductions`` entries, when text became a rendering of the
      JSON document.

    Added since: ``wild-enum --format json --d 4 --count 2``, when the
    d = 4 family (an R6 citation) gained its non-membership ``exclusion``
    rows.

    Added when the ``--with-maps`` text came to indent coordinates below
    their ``realization:`` heading: the text ``wild-enum --d 3 --count 2
    --with-maps``, and ``verify --suite identities --kmax 1 --dmax 1
    --lmax 2``, whose grid includes the lemma1 checks.

    Recaptured when type III became rows and every certificate came to
    hold its proof once (``type_iii``'s ``condition1`` and ``condition2``
    became its ``checks``; a citation gained ``checks``; a wild family's
    ``exclusion`` rows moved to ``proof.data.checks``):

    - ``classify 6 13 20`` and ``classify --format json 6 13 20``, and
      the three ``check-reductions`` entries (``type_iii``);
    - ``classify 2 4 5``, ``3 4 5``, ``3 6 7``, ``5 7 9`` and ``4 7 10``,
      text and JSON (R2, R3, R4 and R6 citations with ``checks: []``);
    - the four ``wild-enum --format json`` entries, d = 3, 4, 5 and 6.

    Recaptured when d1 | d2 became rule R2 with a triangular witness map,
    so that a citation always means not tame: ``classify 2 4 5`` (R2) and
    ``classify 3 6 7`` (R3 before), text and JSON, which now carry a
    ``witness_map`` certificate and a ``realization``.

    stderr is not pinned."""
    code, out, _ = run(capsys, *record["argv"])
    assert (code, out) == (record["exit"], record["stdout"])


# sha256 of the stdout of each distinct call of the benchmark's CLI
# session for seeds 1 to 5, and of the gcds and reductions suites at
# --dmax 60 --kmax 20, with the exit code, as captured at commit 26b1559.
# The golden corpus above holds only small outputs; these pin the large
# R8, wild-enum --with-maps and verify documents.
_DIGESTS = (
    ("check-reductions --d 10 --k 11 --format json", 0,
     "a96b31be6c655904cf74fbfda7e67d7d1d99a5458200f5897220169fc2adf2de"),
    ("check-reductions --d 10 --k 23 --format json", 0,
     "b2eec6ffff3c0e51ff51bbb501911125f5e2e066d91878734ee1bb06d4a7de6f"),
    ("check-reductions --d 14 --k 13 --format json", 0,
     "c6dc112391aaa7ce3dee0737e9e42d1896ffef0c6763b18f625f3c97c724deaf"),
    ("check-reductions --d 16 --k 37 --format json", 0,
     "323f785d0247ac62dfef730ee0d310580b45de777c14aaf5fc984b52c6fbfe5b"),
    ("classify --format json 2 3 1405", 0,
     "03c624ea59d277800dace77ec8cda24ad6e81c5d556484f97b213e04a7e571c2"),
    ("classify --format json 2 3 1407", 0,
     "25d5c894b582f5f452508fcddb834be22e1f2a752015537f6ea4728fc676c9f4"),
    ("classify --format json 2 3 1419", 0,
     "4c49cfa5ac6c2584a4c0035bff1141c94d0d8771528f5a53d7d856792a0b2b49"),
    ("classify --format json 2 5 1201", 0,
     "e48df9e77506f22a1a278629d4474f858f07420aa6fb11cc51069aecbbaa24e6"),
    ("classify --format json 2 5 1209", 0,
     "76590cdcfdba5b804524fc0a86cf184aa577dd3cb5842199ac97c97a3d48a5b2"),
    ("classify --format json 2 5 1213", 0,
     "0eacea6529e5867da39a5f17cc5b866827a559d05c5c77530d40af5a074d448e"),
    ("classify --format json 2 5 1215", 0,
     "924d4f70f6e05186521cd06198f824fc4f44781b8816c91007baf41c94438c77"),
    ("classify --format json 3 4 1501", 0,
     "5eb37e5c912923001d1f0a6956019c3af48ac8fc89bdde807867c83575118ab7"),
    ("classify --format json 3 4 1507", 0,
     "06c403fd32e95b92d41bd6efd0478d0c9ecc880d287e3021a7097f942b9bb9aa"),
    ("classify --format json 3 4 1510", 0,
     "c274414a474a787140108097e47239cb922974092ac698be8e976d971b9a9a6f"),
    ("classify --format json 3 4 1516", 0,
     "e87cf9756c02b6e9bc2d2431b5917b6ae1625c770e9a5283c606298e7ea89420"),
    ("classify --format json 3 4 1519", 0,
     "dfdb3adcf0419f03aad4ced8771cf380e788d6f921374455b0ee05f2c5d1e07e"),
    ("classify --format json 3 5 1505", 0,
     "1daefe9abb88bfcefea4c2318d04095e8c29a32ca885ce760d3d942852f56ae7"),
    ("classify --format json 3 5 1514", 0,
     "081a589878b8f52954da6aebb8ddaa746fb9834b75040ad36ee9c77b9173a866"),
    ("classify --format json 3 5 1523", 0,
     "893e24de8fc397b4415e8316f6ed24981ec8c87b3e67dc3168a71da4ea53436c"),
    ("classify --format json 3 5 1526", 0,
     "6a723d6489a3d4f5d85c3d7ab2f91148ed9c1e17e5484cb5338c7bad65bf2b69"),
    ("construct fdk --d 6 --k 31 --format json", 0,
     "1b6e1eb3bdb97734eebc7c4f12d6b231134ff66762a4a574ffa5dfd5441c51a8"),
    ("construct lemma1 --l 10 --k 300 --format json", 0,
     "fdc891217e05e4e9580dd6747269e053910464dfc5228726d2a9aadedae6a5c7"),
    ("construct lemma2 --r 7 --k 30 --format json", 0,
     "ba9e9bb7544244f8d82b660bad4c97221e27562086c7cfe98a2a51bbd71effff"),
    ("construct nagata --k 500 --format json", 0,
     "6c0b51c18019e0dc9ca6a71840b3a939e3c8c735ed0e12a5ee0c98408244238d"),
    ("verify --suite exp-vs-closed-form --kmax 50 --format json", 0,
     "a556aeaa47d859e67890b04347b5b09c93e14cd84856f61239078620d9635907"),
    ("verify --suite gcds --dmax 160 --kmax 40 --format json", 0,
     "8d93441ddb4d6ce09f9ad118334551bfcf3c4297a816782d24d324c7cd71a6df"),
    ("verify --suite gcds --dmax 60 --kmax 20 --format json", 0,
     "8dc29e3f3600fdf2452575dc4221bcb6dfdc017414647c81340d968151dc4994"),
    ("verify --suite identities --kmax 8 --dmax 14 --lmax 8 --format json", 0,
     "895bcae791e6ed662c4d03d303820b61fd932eb9b23236fdf2aed058fd6b01f0"),
    ("verify --suite reductions --dmax 240 --kmax 100 --format json", 0,
     "9c613d03e8c5951d40d724373ce96c66b4db7969686572d8ca154ae85a8b57ac"),
    ("verify --suite reductions --dmax 60 --kmax 20 --format json", 0,
     "2f7f3cb4039b118da26fd0da250e34259900f0a543276204aaa284d11a017136"),
    ("wild-enum --d 6 --count 10 --with-maps --format json", 0,
     "a4d2be72a1170f155527315b292cdb698a332c27ca393c05c0979b2f1f49dd8b"),
    ("wild-enum --d 9 --count 50 --with-maps --format json", 0,
     "1ced0549485136743a9cf9aeec833ae377a38d586e19850d7427b57f880a7b83"),
)


@pytest.mark.parametrize("argv, code, digest", _DIGESTS, ids=[d[0] for d in _DIGESTS])
def test_large_outputs_are_unchanged(capsys, argv, code, digest):
    got, out, _ = run(capsys, *argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


_RELATION = re.compile(r" (==|!=|>=|<=|<|>) ")
_COMPARE = {
    "==": operator.eq, "!=": operator.ne, ">=": operator.ge,
    "<=": operator.le, "<": operator.lt, ">": operator.gt,
}


# (coordinate, i, j, l): coordinate i is reduced by G(f_j, f_l)
_CASES = (("first", 0, 1, 2), ("second", 1, 0, 2), ("third", 2, 0, 1))

# the side conditions of the citation rules (README rule table)
_CITED = {
    "R3": lambda d1, d2, d3: d1 == 3,
    "R4": lambda d1, d2, d3: d1 % 2 == d2 % 2 == 1 and gcd(d1, d2) == 1
    and 3 <= d1 < d2,
    "R6": lambda d1, d2, d3: d1 == 4 and d2 % 2 == 1 and d2 >= 5
    and d3 % 2 == 0 and d3 - d2 != 1,
}


def _values(rows, relation):
    """The (lhs, rhs) pairs of ``rows``, each of which must use ``relation``."""
    assert all(_RELATION.search(row["name"])[1] == relation for row in rows)
    return [(row["lhs"], row["rhs"]) for row in rows]


def _residues(t, s, l):
    """The residue rows' (lhs, rhs) showing t is not in <s, l>."""
    return [((t - b * l) % s, 0) for b in range(t // l + 1)]


def _recheck_triple(node, triple):
    """Tie the rows of ``node`` to the degree triple they are about."""
    d1, d2, d3 = triple
    if "cases" in node:
        assert [case["coordinate"] for case in node["cases"]] == [
            coordinate for coordinate, *_ in _CASES
        ]
        for case, (_, *indices) in zip(node["cases"], _CASES):
            t, s, l = (triple[n] for n in indices)
            floor, *residues = case["checks"]
            p = s // gcd(s, l)
            assert _values([floor], "<") == [(t, p * l - l - s + 2)]
            assert _values(residues, "!=") == _residues(t, s, l)
    if "excluded" in node:
        type_iii = [(d2 % 2, 0)] if d2 % 2 else [(d1 % 3, 0), (2 * d3, 3 * d2)]
        assert _values(node["checks"], "!=") == type_iii
    if node.get("kind") == "citation" and node["data"]["checks"]:
        assert _values(node["data"]["checks"], "!=") == _residues(d3, d1, d2)
    rule = node.get("rule_id")
    if rule in _CITED:
        # a citation fires only after R8 and R2 fail
        assert _CITED[rule](*triple) and d2 % d1
        assert all(t % d1 for t, _ in _residues(d3, d1, d2))
    if rule == "R7":
        d, k = d1, (d2 - d1) // (d1 + 1)
        assert d % 2 == 0 and d > 4 and gcd(d, k) == 1
        assert triple == (d, d + k * (d + 1), d + 2 * k * (d + 1))


def _recheck(node, rows, triple=None):
    """Recompute every row and every verdict from the degree triple.

    Appends each check row found under ``node`` to ``rows``.  Uses only the
    document: the first relation token of a row's name, applied to its lhs
    and rhs, must give its ``holds``; a dict with ``checks`` and a verdict
    (``conclusion`` or ``excluded``) must conclude exactly when all its
    rows hold.  Each row's lhs and rhs are recomputed from the triple
    (a ``triple`` key, or an audit's d and k), and every row that a
    reduction audit or a cited rule needs must be there.
    """
    if isinstance(node, list):
        for item in node:
            _recheck(item, rows, triple)
        return
    if not isinstance(node, dict):
        return
    if "holds" in node:
        match = _RELATION.search(node["name"])
        assert match, node["name"]
        assert isinstance(node["lhs"], int) and isinstance(node["rhs"], int)
        assert _COMPARE[match[1]](node["lhs"], node["rhs"]) is node["holds"]
        rows.append(node)
        return
    if "cases" in node:
        d, k = node["d"], node["k"]
        audited = (d, d + k * (d + 1), d + 2 * k * (d + 1))
        assert triple in (None, audited)
        triple = audited
    if "triple" in node:
        assert triple in (None, tuple(node["triple"]))
        triple = tuple(node["triple"])
    if triple is not None:
        _recheck_triple(node, triple)
    for value in node.values():
        _recheck(value, rows, triple)
    if "checks" in node:
        holds = all(c["holds"] for c in node["checks"])
        if "conclusion" in node:
            assert node["conclusion"] == (
                "reduction_impossible" if holds else "inconclusive"
            )
        if "excluded" in node:
            assert node["excluded"] is holds
    if "all_excluded" in node:
        assert node["all_excluded"] is (
            node["type_iii"]["excluded"]
            and all(c["conclusion"] == "reduction_impossible" for c in node["cases"])
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["wild-enum", "--format", "json", "--d", "3"],
        ["wild-enum", "--format", "json", "--d", "5"],
        ["wild-enum", "--format", "json", "--d", "9"],
        ["wild-enum", "--format", "json", "--d", "6"],
        ["wild-enum", "--format", "json", "--d", "4"],
        ["wild-enum", "--format", "json", "--d", "7"],
        ["check-reductions", "--format", "json", "--d", "8", "--k", "3"],
        ["check-reductions", "--format", "json", "--d", "4", "--k", "1"],
        ["classify", "--format", "json", "6", "13", "20"],
    ],
    ids=" ".join,
)
def test_certificates_are_checkable_from_json_alone(capsys, argv):
    _, out, _ = run(capsys, *argv)
    rows = []
    _recheck(json.loads(out), rows)
    assert rows and all(row["holds"] for row in rows)


def _delete_residue_rows(document):
    for case in document["certificate"]["data"]["cases"]:
        del case["checks"][1:]


def _forge_residue_lhs(document):
    document["certificate"]["data"]["cases"][2]["checks"][1]["lhs"] = 999


def _move_to_6_9_11(document):
    document["triple"] = [6, 9, 11]


@pytest.mark.parametrize(
    "degrees, forge",
    [
        (("6", "13", "20"), _delete_residue_rows),
        (("6", "13", "20"), _forge_residue_lhs),
        (("5", "7", "9"), _move_to_6_9_11),
    ],
    ids=["R7 without residue rows", "R7 residue lhs 999", "R4 moved to 6 9 11"],
)
def test_forged_certificates_are_rejected(capsys, degrees, forge):
    # each forgery keeps every row's holds consistent with its own lhs and rhs
    _, out, _ = run(capsys, "classify", "--format", "json", *degrees)
    document = json.loads(out)
    _recheck(document, [])
    forge(document)
    with pytest.raises(AssertionError):
        _recheck(document, [])


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "6", "13", "20"],
        ["check-reductions", "--d", "8", "--k", "3"],
    ],
    ids=" ".join,
)
def test_text_prints_every_row_of_the_json(capsys, argv):
    _, text, _ = run(capsys, *argv)
    _, out, _ = run(capsys, argv[0], "--format", "json", *argv[1:])
    rows = []
    _recheck(json.loads(out), rows)
    printed = [line for line in text.splitlines() if line.lstrip()[:1] == "["]
    assert len(printed) == len(rows) > 0
    for row in rows:
        mark = "ok" if row["holds"] else "XX"
        line = f"[{mark}] {row['name']}  (lhs={row['lhs']}, rhs={row['rhs']})"
        assert line in text
