"""End-to-end tests for the command-line interface.

All tests drive :func:`wildmdeg.cli.main` in-process with explicit argv
and capture stdout/stderr via capsys; one smoke test exercises the
``python -m wildmdeg`` entry point in a subprocess.
"""

import json
import operator
import os
import re
import subprocess
import sys
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
        assert "  type_iii:\n    condition1: false" in out
        assert "    excluded: true" in out

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

    def test_witness_auto_exponents(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "witness", "--d1", "3", "--d2", "5", "--d3", "11",
        )
        assert code == 0
        assert "multidegree: (3, 5, 11)" in out

    def test_witness_explicit_exponents(self, capsys):
        code, out, _ = run(
            capsys,
            "construct", "witness",
            "--d1", "3", "--d2", "5", "--d3", "11", "--a", "2", "--b", "1",
        )
        assert code == 0
        assert "multidegree: (3, 5, 11)" in out

    def test_witness_lone_exponent_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "construct", "witness",
            "--d1", "3", "--d2", "5", "--d3", "11", "--a", "2",
        )
        assert code == 3
        assert "both --a and --b" in err

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

    def test_identities_suite_single_instance(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "identities", "--d", "6", "--kmax", "2",
        )
        assert code == 0
        assert "passed 6/6 checks" in out

    def test_reductions_suite(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "reductions", "--dmax", "8", "--kmax", "1",
        )
        assert code == 0
        assert "passed 3/3 checks" in out

    def test_gcds_suite_single_instance(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "gcds", "--d", "6", "--k", "1"
        )
        assert code == 0
        assert "passed 1/1 checks" in out

    def test_gcds_suite_includes_progression_traces(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "gcds", "--d", "5", "--k", "2"
        )
        assert code == 0
        assert "short-progression exclusion valid, r=5, k=2" in out
        assert "long-progression exclusion valid, r=5, k=2" in out

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "exp-vs-closed-form",
            "--format", "json", "--k", "3",
        )
        assert code == 0
        document = json.loads(out)
        assert document["all_ok"] is True
        assert document["passed"] == document["total"] == 1

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

    stderr is not pinned."""
    code, out, _ = run(capsys, *record["argv"])
    assert (code, out) == (record["exit"], record["stdout"])


_RELATION = re.compile(r" (==|!=|>=|<=|<|>) ")
_COMPARE = {
    "==": operator.eq, "!=": operator.ne, ">=": operator.ge,
    "<=": operator.le, "<": operator.lt, ">": operator.gt,
}


def _recheck(node, rows):
    """Recompute every row's ``holds`` and every verdict from its rows.

    Appends each check row found under ``node`` to ``rows``.  Uses only the
    document: the first relation token of a row's name, applied to its lhs
    and rhs, must give its ``holds``.
    """
    if isinstance(node, list):
        for item in node:
            _recheck(item, rows)
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
    for value in node.values():
        _recheck(value, rows)
    if "conclusion" in node:
        holds = all(c["holds"] for c in node["checks"])
        assert node["conclusion"] == (
            "reduction_impossible" if holds else "inconclusive"
        )
    if "condition1" in node:
        assert node["excluded"] is not (node["condition1"] and node["condition2"])
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
        ["check-reductions", "--format", "json", "--d", "8", "--k", "3"],
        ["classify", "--format", "json", "6", "13", "20"],
    ],
    ids=" ".join,
)
def test_certificates_are_checkable_from_json_alone(capsys, argv):
    _, out, _ = run(capsys, *argv)
    rows = []
    _recheck(json.loads(out), rows)
    assert rows and all(row["holds"] for row in rows)


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
