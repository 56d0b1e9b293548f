"""Run the cfpow CLI under the tracer; used only by traced `cli` runs.

Usage: ``PERFBENCH_SPANS=FILE python -X importtime traced_cli.py ARGS...``.
Stdout and the exit status are the CLI's own; the per-layer summary of this
process goes to FILE as JSON when the command finishes.
"""

import json
import os
import sys

from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    import cfpow.cli

    try:
        return cfpow.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
