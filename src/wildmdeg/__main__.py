"""Allow ``python -m wildmdeg``."""

import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        try:
            code = main()
        finally:
            # argparse's --help and --version end in SystemExit; flush here
            # too, so that a closed stdout shows up below and not at exit
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # interpreter exit cannot fail again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)
