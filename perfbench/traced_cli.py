"""Run one ``halfbound`` CLI call with span tracing, for traced one-shot tasks.

Usage: python3 perfbench/traced_cli.py SPANS_FILE ARGV...

Installs the tracer's wrappers after import, calls ``halfbound.cli.main`` through
the module attribute, writes the spans as JSON to SPANS_FILE and exits with the
CLI's exit code.  Import time is not in any span; the traced run measures it
separately in fresh processes.
"""

import json
import sys

import halfbound
import halfbound.cli

from tracing import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install(halfbound)
    tracer.task = "child"
    try:
        rc = halfbound.cli.main(argv)
    finally:
        tracer.task = None
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
