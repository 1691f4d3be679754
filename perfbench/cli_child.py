"""A traced CLI process, the cli_session item of a ``--trace 1`` run.

    python3 perfbench/cli_child.py SUMMARY_FILE ARG...

Imports wildmdeg.cli (timed), wraps the layers (tracing.py), runs
``wildmdeg.cli.main(ARG...)`` with its output on this process's stdout,
writes the per-layer summary to SUMMARY_FILE and the spans next to it,
and exits with main's return code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import inputs
import tracing


def main():
    summary_file, argv = Path(sys.argv[1]), sys.argv[2:]
    inputs.library_path()
    start = perf_counter()
    import wildmdeg.cli

    import_s = perf_counter() - start
    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = wildmdeg.cli.main(argv)
    sys.stdout.flush()
    tracer.write(summary_file.with_suffix(".spans"))
    summary = tracer.summary()
    summary["cli.import_s"] = import_s
    summary_file.write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
