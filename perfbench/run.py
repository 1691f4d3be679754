"""wildmdeg benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; wildmdeg is imported from its ``src/``.
Workloads: wild_certify, classify_survey, cli_session (see README.md).
With ``--trace 0`` the run repeats whole rounds of the workload's items
until ``S`` seconds of item time have passed and reports the end-to-end
metrics; with ``--trace 1`` it runs one round with spans around every
layer and reports the per-layer metrics.  Either way every output is
checked, and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from time import perf_counter

import inputs
import tracing
import workloads

SETUP_SAMPLES = 15
MIN_TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    # calls and self time of every traced layer; cli.main reports self time only
    tuple(
        (f"{prefix}.{kind}", "s" if kind == "self_s" else "count")
        for prefix in tracing.NAMES[1:-1]
        for kind in ("calls", "self_s")
    )
    + (
        ("poly.mul.term_products", "count"),
        ("poly.mul.terms_out", "count"),
        ("poly.mul.peak_terms", "count"),
        ("poly.mul.out_per_product", "ratio"),
        ("poly.mul.self_share", "ratio"),
        ("cli.import_s", "s"),
        ("cli.main.self_s", "s"),
        ("cli.output_bytes", "B"),
        ("trace.round_s", "s"),
    )
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def setup_seconds(workload, seed):
    """Median, over fresh interpreters, of the time to be ready to run.

    Each sample is timed inside its own interpreter, so process start is
    left out; the first sample is discarded because it may still compile
    bytecode.
    """
    probe = [sys.executable, str(inputs.HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run(probe, capture_output=True, text=True, cwd=inputs.ROOT)
        if done.returncode:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        samples.append(float(done.stdout))
    return statistics.median(samples[1:])


class Tally:
    """Latencies, counts and problems of one run."""

    def __init__(self, items):
        # compact arrays: the run's own bookkeeping should not move peak RSS
        self.latencies = [array("d") for _ in range(items)]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.child_rss_kb = 0
        self.output_bytes = 0


def _report(what, lines):
    print(f"perfbench: {what}", file=sys.stderr)
    for line in lines[:5]:
        print(f"  {line}", file=sys.stderr)


def run_rounds(workload, seconds, rounds=None, tracer=None):
    """Whole rounds over the items: ``rounds`` of them, or until ``seconds``.

    The first round checks every output in full; later rounds compare
    each output's fingerprint with the checked one.  Checks run outside
    the timed region.
    """
    tally = Tally(len(workload.arguments))
    reference = {}
    done = 0
    timed = 0.0
    while True:
        for i in range(len(workload.arguments)):
            tally.attempted += 1
            span = tracer.open(0) if tracer else None
            start = perf_counter()
            try:
                output = workload.run(i)
            except Exception:  # an item that raises counts as failed
                tally.failed += 1
                _report(f"item {workload.cases[i]} raised", traceback.format_exc().splitlines())
                continue
            finally:
                latency = perf_counter() - start
                if tracer:
                    tracer.close(span)
            tally.latencies[i].append(latency)
            timed += latency
            if workload.child_rss:
                tally.child_rss_kb = max(tally.child_rss_kb, output[2])
                tally.output_bytes += len(output[1])
            if i in reference:
                same = workload.fingerprint(output) == reference[i]
                problems = [] if same else [("repeat", "output differs from the checked one")]
            else:
                try:
                    problems = workload.check(i, output)
                except Exception:  # malformed output the checks could not read
                    problems = [("unreadable", traceback.format_exc())]
                if not problems:
                    reference[i] = workload.fingerprint(output)
            if problems:
                tally.failed += 1
                tally.wrong += 1
                _report(f"item {workload.cases[i]} failed its checks",
                        [f"{tag}: {message}" for tag, message in problems])
        done += 1
        if rounds is not None:
            if done == rounds:
                break
        elif done >= workload.min_rounds and timed >= seconds:
            break
    return tally, done, timed


def tail(latencies, percentile):
    """Nearest-rank percentile; at least MIN_TAIL_BEYOND samples lie above it."""
    ordered = sorted(latencies)
    rank = math.ceil(percentile / 100 * len(ordered))
    if len(ordered) - rank < MIN_TAIL_BEYOND:
        raise SystemExit(
            f"perfbench: {len(ordered)} samples leave fewer than"
            f" {MIN_TAIL_BEYOND} above p{percentile}"
        )
    return ordered[rank - 1]


def end_to_end(args):
    setup = setup_seconds(args.workload, args.seed)
    prepared = inputs.prepare(args.workload, args.seed)
    workload = workloads.CLASSES[args.workload](*prepared)
    try:
        tally, rounds, timed = run_rounds(workload, args.seconds)
    finally:
        workload.close()
    if workload.child_rss:
        rss_kb = tally.child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    samples = [t for item in tally.latencies for t in item]
    # Every round repeats the same items, so each item's median over the
    # rounds drops the rounds a burst of machine noise happened to slow.
    typical = [statistics.median(item) for item in tally.latencies if item]
    values = {
        "setup_s": setup,
        "items_per_s": len(typical) / sum(typical),
        "item_p50_ms": statistics.median(typical) * 1000,
        "item_tail_ms": tail(samples, workload.tail_percentile) * 1000,
        "peak_rss_mb": rss_kb / 1024,
    }
    print(
        f"{args.workload}: {rounds} rounds of {len(workload.arguments)} items"
        f" in {timed:.1f} s, {len(samples)} latency samples,"
        f" tail = p{workload.tail_percentile}"
    )
    return tally, {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(args):
    start = perf_counter()
    import wildmdeg  # noqa: F401  (timed: the in-process import of the package)

    import_s = perf_counter() - start
    prepared = inputs.prepare(args.workload, args.seed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    if args.workload == "cli_session":
        # each CLI process writes its own summary and spans here
        trace_dir = inputs.OUT / f"trace-{args.workload}-{args.seed}"
        trace_dir.mkdir(exist_ok=True)
        for old in trace_dir.iterdir():
            old.unlink()
        workload = workloads.CliSession(*prepared, trace_dir=trace_dir)
    else:
        workload = workloads.CLASSES[args.workload](*prepared)
    try:
        tally, _, timed = run_rounds(workload, args.seconds, rounds=1, tracer=tracer)
    finally:
        workload.close()
    tracer.write(inputs.OUT / f"trace-{args.workload}-{args.seed}.spans")

    values = tracer.summary()
    if workload.child_rss:
        children = [json.loads(path.read_text()) for path in workload.trace_files if path.exists()]
        for child in children:
            for key, value in child.items():
                if key == "poly.mul.peak_terms":
                    values[key] = max(values[key], value)
                elif key != "cli.import_s":
                    values[key] += value
        import_s = statistics.median(c["cli.import_s"] for c in children)
    products = values["poly.mul.term_products"]
    values["poly.mul.out_per_product"] = values["poly.mul.terms_out"] / products if products else 0.0
    values["poly.mul.self_share"] = values["poly.mul.self_s"] / timed
    values["cli.import_s"] = import_s
    values["cli.output_bytes"] = tally.output_bytes
    values["trace.round_s"] = timed
    print(f"{args.workload}: traced one round of {len(workload.arguments)} items")
    return tally, {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None):
    args = parse_args(argv)
    inputs.library_path()
    inputs.OUT.mkdir(exist_ok=True)
    tally, metrics = (per_layer if args.trace else end_to_end)(args)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    line = json.dumps(result)
    (inputs.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
