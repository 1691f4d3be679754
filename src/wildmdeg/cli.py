"""Command-line interface.

Subcommands
-----------

``classify D1 D2 D3``
    Decide tameness of a sorted degree triple.  Exit code 0 = tame,
    1 = not tame, 2 = unknown.
``construct {nagata,fdk,lemma1,lemma2,witness}``
    Build a named automorphism and print its coordinates, multidegree
    and factorization.
``wild-enum --d D [--count N] [--with-maps]``
    Enumerate certified wild triples with smallest degree D.
``check-reductions --d D --k K``
    Run the elementary-reduction inequality audit for the triple
    (D, D+K(D+1), D+2K(D+1)).  Exit code 0 when every case is excluded.
``verify --suite NAME``
    Re-run a family of internal cross-checks.  Exit code 0 when all pass;
    bounds that select no check at all are a parameter error.

Every subcommand accepts ``--format {text,json}`` (after the subcommand
name); JSON output is deterministic (sorted keys, two-space indent).
Usage and parameter errors exit with code 3.  ``python -m wildmdeg``
exits with code 141 (128 + SIGPIPE), and prints no traceback, when the
reader of its standard output closes it early, as ``| head`` does.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd
from typing import List, Optional, Sequence, Tuple

from . import __version__
from .classify import (
    TameStatus,
    classify_tame,
    enumerate_wild,
    long_progression_exclusion,
    semigroup_member,
    short_progression_exclusion,
)
from .derivations import nagata_exp
from .maps import (
    INVARIANT_QUADRIC,
    PolyMap,
    compose,
    inverse,
    long_progression_map,
    multidegree,
    nagata,
    sheared_nagata,
    short_progression_map,
    tame_witness,
)
from .reduction import family_triple, reduction_audit

_EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 3 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _format_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    fmt = _format_parent()
    parser = _Parser(
        prog="wildmdeg",
        description=(
            "Exact constructions of wild automorphisms of 3-space, their"
            " multidegrees, and a certified tameness classifier."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    p = commands.add_parser(
        "classify",
        parents=[fmt],
        help="decide whether a degree triple is a tame multidegree",
    )
    p.add_argument(
        "degrees",
        metavar="D",
        type=int,
        nargs=3,
        help="sorted degree triple d1 <= d2 <= d3",
    )

    construct = commands.add_parser(
        "construct", help="build a named automorphism"
    )
    kinds = construct.add_subparsers(
        dest="kind", required=True, parser_class=_Parser
    )
    p = kinds.add_parser(
        "nagata", parents=[fmt], help="Nagata-type shear with q-power k"
    )
    p.add_argument("--k", type=int, required=True, help="q-power (k >= 1)")
    p = kinds.add_parser(
        "fdk",
        parents=[fmt],
        help="sheared construction with multidegree (d, d+k(d+1), d+2k(d+1))",
    )
    p.add_argument("--d", type=int, required=True, help="shift power (d >= 1)")
    p.add_argument("--k", type=int, required=True, help="q-power (k >= 1)")
    p = kinds.add_parser(
        "lemma1",
        parents=[fmt],
        help="two-shear map with multidegree (4l+1, 4l+1+2k, 4l+1+4k)",
    )
    p.add_argument("--l", type=int, required=True, help="inner q-power (l >= 1)")
    p.add_argument("--k", type=int, required=True, help="outer q-power (k >= 1)")
    p = kinds.add_parser(
        "lemma2",
        parents=[fmt],
        help="map with multidegree (r, r+k(r+1), r+2k(r+1))",
    )
    p.add_argument("--r", type=int, required=True, help="smallest degree (r >= 1)")
    p.add_argument("--k", type=int, required=True, help="q-power (k >= 1)")
    p = kinds.add_parser(
        "witness",
        parents=[fmt],
        help="tame triangular map with multidegree (d1, d2, d3)",
    )
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--d3", type=int, required=True)
    p.add_argument(
        "--a", type=int, help="exponent with a*d1 + b*d2 = d3 (default: found)"
    )
    p.add_argument(
        "--b", type=int, help="exponent with a*d1 + b*d2 = d3 (default: found)"
    )

    p = commands.add_parser(
        "wild-enum",
        parents=[fmt],
        help="enumerate certified wild triples with smallest degree d",
    )
    p.add_argument("--d", type=int, required=True, help="smallest degree (>= 3)")
    p.add_argument(
        "--count", type=int, default=5, help="number of triples (default: 5)"
    )
    p.add_argument(
        "--with-maps",
        action="store_true",
        help="include the realizing automorphisms in the output",
    )

    p = commands.add_parser(
        "check-reductions",
        parents=[fmt],
        help="audit the elementary-reduction exclusion for (d, k)",
    )
    p.add_argument("--d", type=int, required=True, help="even smallest degree")
    p.add_argument("--k", type=int, required=True, help="family parameter")

    p = commands.add_parser(
        "verify", parents=[fmt], help="re-run a suite of internal cross-checks"
    )
    p.add_argument(
        "--suite",
        required=True,
        choices=("exp-vs-closed-form", "identities", "reductions", "gcds"),
        help="which checks to run",
    )
    p.add_argument("--kmax", type=int, default=5, help="largest k (default: 5)")
    p.add_argument("--dmax", type=int, default=14, help="largest d (default: 14)")
    p.add_argument("--lmax", type=int, default=4, help="largest l (default: 4)")
    p.add_argument("--d", type=int, help="check a single d instead of a range")
    p.add_argument("--k", type=int, help="check a single k instead of a range")
    return parser


def _dump(document: object) -> str:
    return json.dumps(document, sort_keys=True, indent=2)


def _map_lines(map_: PolyMap, heading: str = "coordinates") -> List[str]:
    lines = [f"{heading}:"]
    lines.extend(f"  {coord}" for coord in map_.coords)
    return lines


def _scalar(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(v) for v in value) + "]"
    return value if isinstance(value, str) else json.dumps(value)


def _document_lines(node, indent: str = "") -> List[str]:
    """Text of a JSON document: a check row on one line, ``[ok|XX] name
    (lhs=.., rhs=..)``; any other key as ``key: value`` in sorted order,
    lists of scalars inline, nested values indented below their key and
    each dict of a list marked with ``-``."""
    if isinstance(node, list):
        lines = []
        for item in node:
            if "holds" in item:
                lines += _document_lines(item, indent)
            else:
                block = _document_lines(item, indent + "  ")
                block[0] = f"{indent}- {block[0].lstrip()}"
                lines += block
        return lines
    if "holds" in node:
        mark = "ok" if node["holds"] else "XX"
        return [
            f"{indent}[{mark}] {node['name']}"
            f"  (lhs={node['lhs']}, rhs={node['rhs']})"
        ]
    lines = []
    for key in sorted(node):
        value = node[key]
        if isinstance(value, dict) or (
            isinstance(value, list) and any(isinstance(v, dict) for v in value)
        ):
            lines.append(f"{indent}{key}:")
            lines += _document_lines(value, indent + "  ")
        else:
            lines.append(f"{indent}{key}: {_scalar(value)}")
    return lines


def _run_classify(args) -> int:
    result = classify_tame(tuple(args.degrees))
    if args.format == "json":
        print(_dump(result.to_dict()))
    else:
        d1, d2, d3 = result.triple
        status = result.status.value.replace("_", " ")
        rule = f"  [rule {result.rule_id}]" if result.rule_id else ""
        print(f"triple ({d1}, {d2}, {d3}): {status}{rule}")
        certificate = result.to_dict(include_realization=False)["certificate"]
        print(f"certificate: {certificate['kind']}")
        for line in _document_lines(certificate.get("data", {}), "  "):
            print(line)
        if result.realization is not None:
            for line in _map_lines(result.realization, "realization"):
                print(line)
    return {
        TameStatus.TAME: 0,
        TameStatus.NOT_TAME: 1,
        TameStatus.UNKNOWN: 2,
    }[result.status]


def _construct_map(args) -> PolyMap:
    if args.kind == "nagata":
        return nagata(args.k)
    if args.kind == "fdk":
        return sheared_nagata(args.d, args.k)
    if args.kind == "lemma1":
        return short_progression_map(args.l, args.k)
    if args.kind == "lemma2":
        return long_progression_map(args.r, args.k)
    # witness
    if (args.a is None) != (args.b is None):
        raise ValueError("give both --a and --b, or neither")
    a, b = args.a, args.b
    if a is None:
        member = semigroup_member(args.d1, args.d2, args.d3)
        if member is None:
            raise ValueError(
                f"{args.d3} is not in the semigroup <{args.d1}, {args.d2}>;"
                " no triangular witness of this shape exists"
            )
        a, b = member
    return tame_witness(args.d1, args.d2, args.d3, a, b)


def _run_construct(args) -> int:
    map_ = _construct_map(args)
    degrees = multidegree(map_)
    if args.format == "json":
        document = map_.to_dict()
        document["multidegree"] = list(degrees)
        print(_dump(document))
    else:
        for line in _map_lines(map_):
            print(line)
        print(f"multidegree: {degrees}")
        if map_.factors is not None:
            print(
                "factorization: "
                + " * ".join(g.token() for g in map_.factors)
            )
    return 0


def _run_wild_enum(args) -> int:
    results = enumerate_wild(args.d, args.count)
    if args.format == "json":
        document = {
            "d": args.d,
            "count": args.count,
            "results": [
                r.to_dict(include_realization=args.with_maps)
                for r in results
            ],
        }
        print(_dump(document))
    else:
        for result in results:
            d1, d2, d3 = result.triple
            certificate = result.certificate
            print(
                f"({d1}, {d2}, {d3})  family={certificate.family}"
                f" k={certificate.k} rule={result.rule_id}"
                f" status={result.status.value}"
            )
            if args.with_maps and result.realization is not None:
                for line in _map_lines(result.realization, "  realization"):
                    print(line)
    return 0


def _run_check_reductions(args) -> int:
    audit = reduction_audit(args.d, args.k)
    if args.format == "json":
        print(_dump(audit.to_dict()))
    else:
        for line in _document_lines(audit.to_dict()):
            print(line)
    return 0 if audit.excluded else 1


def _range_or_single(value: Optional[int], stop: int, start: int = 1):
    if value is not None:
        return [value]
    return list(range(start, stop + 1))


def _suite_exp(args, checks: List[Tuple[str, bool]]) -> None:
    for k in _range_or_single(args.k, args.kmax):
        same = nagata_exp(k).coords == nagata(k).coords
        checks.append(
            (f"exponential of scaled derivation matches closed form, k={k}", same)
        )


def _suite_identities(args, checks: List[Tuple[str, bool]]) -> None:
    ks = _range_or_single(args.k, args.kmax)
    for k in ks:
        map_ = nagata(k)
        preserved = (
            INVARIANT_QUADRIC.substitute(*map_.coords) == INVARIANT_QUADRIC
        )
        checks.append((f"nagata({k}) preserves y^2 + x*z", preserved))
        ok = compose(inverse(map_), map_).is_identity()
        checks.append((f"inverse(nagata({k})) o nagata({k}) == id", ok))
    for d in _range_or_single(args.d, args.dmax):
        for k in ks:
            map_ = sheared_nagata(d, k)
            ok = compose(inverse(map_), map_).is_identity()
            checks.append((f"inverse o fdk(d={d}, k={k}) == id", ok))
    if args.d is None:
        for l in range(1, args.lmax + 1):
            for k in ks:
                map_ = short_progression_map(l, k)
                ok = compose(inverse(map_), map_).is_identity()
                checks.append(
                    (f"inverse o lemma1(l={l}, k={k}) == id", ok)
                )


def _even_family_pairs(args):
    for d in _range_or_single(args.d, args.dmax, start=4):
        if d % 2:
            continue
        for k in _range_or_single(args.k, args.kmax):
            if gcd(d, k) != 1:
                continue
            yield d, k


def _suite_reductions(args, checks: List[Tuple[str, bool]]) -> None:
    for d, k in _even_family_pairs(args):
        ok = reduction_audit(d, k).excluded
        checks.append((f"reductions excluded for d={d}, k={k}", ok))


def _suite_gcds(args, checks: List[Tuple[str, bool]]) -> None:
    for d, k in _even_family_pairs(args):
        d1, d2, d3 = family_triple(d, k)
        ok = (
            gcd(d1, d2) == 1 and gcd(d2, d3) == 1 and gcd(d1, d3) == 2
        )
        checks.append(
            (f"gcd pattern (1, 1, 2) on family triple d={d}, k={k}", ok)
        )
    for r in _range_or_single(args.d, args.dmax, start=3):
        if r % 2 == 0:
            continue
        for k in _range_or_single(args.k, args.kmax):
            if gcd(r, k) != 1:
                continue
            for name, exclusion in (
                ("short", short_progression_exclusion),
                ("long", long_progression_exclusion),
            ):
                ok = all(row.holds for row in exclusion(r, k))
                checks.append(
                    (f"{name}-progression exclusion valid, r={r}, k={k}", ok)
                )


def _run_verify(args) -> int:
    checks: List[Tuple[str, bool]] = []
    suite = {
        "exp-vs-closed-form": _suite_exp,
        "identities": _suite_identities,
        "reductions": _suite_reductions,
        "gcds": _suite_gcds,
    }[args.suite]
    suite(args, checks)
    if not checks:
        raise ValueError(f"the bounds select no checks for suite {args.suite!r}")
    passed = sum(1 for _, ok in checks if ok)
    if args.format == "json":
        document = {
            "suite": args.suite,
            "checks": [{"name": name, "ok": ok} for name, ok in checks],
            "passed": passed,
            "total": len(checks),
            "all_ok": passed == len(checks),
        }
        print(_dump(document))
    else:
        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'}  {name}")
        print(f"passed {passed}/{len(checks)} checks")
    return 0 if passed == len(checks) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    runner = {
        "classify": _run_classify,
        "construct": _run_construct,
        "wild-enum": _run_wild_enum,
        "check-reductions": _run_check_reductions,
        "verify": _run_verify,
    }[args.command]
    try:
        return runner(args)
    except ValueError as error:
        print(f"wildmdeg: error: {error}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
