"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Builds a few genuine outputs with wildmdeg (from the checkout's src/),
confirms that the checks accept them, then feeds every check property one
corrupted output and confirms that it reports that property.  Also
confirms that the modular semigroup formula agrees with the reachability
table, and that BENCHMARK.json names the metrics run.py prints.  Exits 1
on any miss.
"""

import contextlib
import copy
import io
import json
import sys

import checks
import inputs
import run
import workloads

POINTS = [(2, -1, 3), (-3, 1, 2)]
misses = []


def expect(name, problems, tag=None):
    """With ``tag`` None the output is genuine; otherwise ``tag`` must fire."""
    tags = {t for t, _ in problems}
    ok = not problems if tag is None else tag in tags
    print(f"{'ok  ' if ok else 'MISS'} {name}: {sorted(tags) or 'accepted'}")
    if not ok:
        misses.append(name)


def wild_output(wm, realization):
    left = wm.compose(wm.inverse(realization), realization)
    right = wm.compose(realization, wm.inverse(realization))
    return workloads.plain_wild(
        realization, wm.multidegree(realization), left, right,
        left.is_identity(), right.is_identity(),
    )


def bump(terms):
    """The same term map with one coefficient off by one."""
    terms = dict(terms)
    key = next(iter(terms))
    terms[key] += 1
    return terms


def test_wild(wm):
    case = ("odd_general", 3, 2)
    genuine = wild_output(wm, wm.wild_family(wm.FamilyParams(wm.Family.ODD_GENERAL, 3, 2))[1].realization)
    expect("wild genuine", checks.wild_certify(case, genuine, POINTS))

    bad = copy.deepcopy(genuine)
    bad["coords"][0] = bump(bad["coords"][0])
    expect("wild coefficient", checks.wild_certify(case, bad, POINTS), "coords_match_factors")

    bad = copy.deepcopy(genuine)
    bad["coords"][2][(0, 0, 99)] = 1
    expect("wild degree", checks.wild_certify(case, bad, POINTS), "sorted_degrees_formula")

    bad = copy.deepcopy(genuine)
    bad["multidegree"] = tuple(reversed(bad["multidegree"]))
    expect("wild reported multidegree", checks.wild_certify(case, bad, POINTS), "reported_multidegree")

    bad = copy.deepcopy(genuine)
    bad["left"][1] = bump(bad["left"][1])
    expect("wild inverse", checks.wild_certify(case, bad, POINTS), "inverse_identities")

    # (3, 15, 27) has the odd-family shape, but 27 = 9*3 is in <3, 15>
    member = wild_output(wm, wm.long_progression_map(3, 3))
    expect("wild odd non-member", checks.wild_certify(("odd_general", 3, 3), member, POINTS),
           "odd_family_nonmember")


def survey(wm, triple):
    return json.loads(json.dumps(wm.classify_tame(triple).to_dict(include_realization=False)))


def member(triple):
    d1, d2, d3 = triple
    return checks.reachable(d1, d2, d3)[d3]


def test_classify(wm):
    for triple in ((2, 3, 5), (3, 5, 7), (5, 7, 9), (6, 13, 20), (4, 6, 9)):
        expect(f"classify genuine {triple}", checks.classification(triple, survey(wm, triple), member(triple)))

    doc = survey(wm, (2, 3, 5))
    doc["triple"] = [2, 3, 6]
    expect("classify triple", checks.classification((2, 3, 5), doc, True), "triple_echo")

    doc = survey(wm, (2, 3, 5))
    doc["certificate"]["data"]["a"] += 1
    expect("classify R8 pair", checks.classification((2, 3, 5), doc, True), "r8_identity")

    doc = survey(wm, (4, 8, 9))
    doc["status"] = "not_tame"
    expect("classify d1 | d2 refuted", checks.classification((4, 8, 9), doc, False), "tame_not_refuted")

    # the R4 verdict on (5, 7, 9), moved onto the member (5, 7, 12)
    doc = survey(wm, (5, 7, 9))
    doc["triple"] = [5, 7, 12]
    expect("classify R4 on a member", checks.classification((5, 7, 12), doc, True), "refutation_nonmember")

    doc = survey(wm, (6, 13, 20))
    doc["certificate"]["data"]["cases"][1]["checks"][2]["lhs"] = 0
    expect("classify R7 audit", checks.classification((6, 13, 20), doc, False), "r7_audit")


def cli(argv):
    from wildmdeg.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_cli():
    def check(argv, code, document):
        return checks.cli_call(argv, code, json.dumps(document), POINTS)

    calls = {
        "classify": ["classify", "--format", "json", "2", "3", "11"],
        "fdk": ["construct", "fdk", "--d", "3", "--k", "1", "--format", "json"],
        "lemma1": ["construct", "lemma1", "--l", "1", "--k", "2", "--format", "json"],
        "nagata": ["construct", "nagata", "--k", "2", "--format", "json"],
        "enum": ["wild-enum", "--d", "5", "--count", "2", "--with-maps", "--format", "json"],
        "audit": ["check-reductions", "--d", "6", "--k", "1", "--format", "json"],
        "verify": ["verify", "--suite", "gcds", "--dmax", "7", "--kmax", "3", "--format", "json"],
        "identities": ["verify", "--suite", "identities", "--kmax", "1", "--dmax", "2",
                       "--lmax", "1", "--format", "json"],
    }
    out = {}
    for name, argv in calls.items():
        code, text = cli(argv)
        out[name] = (code, json.loads(text))
        expect(f"cli genuine {name}", check(argv, code, out[name][1]))

    code, doc = out["classify"]
    expect("cli exit code", check(calls["classify"], 1, doc), "exit_code")

    doc = copy.deepcopy(out["classify"][1])
    doc["realization"]["coords"][2] += " + 1"
    expect("cli R8 realization", check(calls["classify"], 0, doc), "r8_realization")

    doc = copy.deepcopy(out["fdk"][1])
    doc["coords"][2] += " + x^99"
    expect("cli term degrees", check(calls["fdk"], 0, doc), "term_degrees")

    doc = copy.deepcopy(out["lemma1"][1])
    doc["coords"][0] += " + 1"
    expect("cli coordinates vs factors", check(calls["lemma1"], 0, doc), "coords_match_factors")

    doc = copy.deepcopy(out["enum"][1])
    doc["results"][1]["realization"]["factors"][0] = "nagata(3)"
    expect("cli wild-enum factors", check(calls["enum"], 0, doc), "coords_match_factors")

    doc = copy.deepcopy(out["enum"][1])
    doc["results"].pop()
    expect("cli wild-enum count", check(calls["enum"], 0, doc), "result_count")

    doc = copy.deepcopy(out["audit"][1])
    doc["cases"][2]["checks"][0]["lhs"] = 2
    expect("cli audit", check(calls["audit"], 0, doc), "r7_audit")

    doc = copy.deepcopy(out["verify"][1])
    doc["checks"].pop()
    doc["total"] -= 1
    doc["passed"] -= 1
    expect("cli verify total", check(calls["verify"], 0, doc), "verify_total")


def test_semigroup_formula():
    for d1 in range(1, 25):
        for d2 in range(d1, 25):
            table = checks.reachable(d1, d2, 300)
            for n in range(301):
                if checks.in_semigroup(d1, d2, n) != table[n]:
                    misses.append(f"semigroup formula {d1} {d2} {n}")
                    print(f"MISS semigroup formula at ({d1}, {d2}, {n})")
                    return
    print("ok   semigroup formula agrees with the table")


def test_metric_names():
    spec = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        ok = listed == list(declared)
        print(f"{'ok  ' if ok else 'MISS'} BENCHMARK.json {key} matches run.py")
        if not ok:
            misses.append(key)


def main():
    inputs.library_path()
    import wildmdeg

    test_wild(wildmdeg)
    test_classify(wildmdeg)
    test_cli()
    test_semigroup_formula()
    test_metric_names()
    print(f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
