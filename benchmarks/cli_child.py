"""Traced ``nusamp`` CLI run in a fresh interpreter, for the cli_cold workload.

    python3 benchmarks/cli_child.py SPANS.json analyze system.json --format json

Imports nusamp.cli, installs the span tracer, runs ``nusamp.cli.main`` on the
remaining arguments, writes the tracer's totals and spans to SPANS.json and
exits with ``main``'s exit code.
"""

import json
import sys

import nusamp.cli

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_op(0)
        try:
            code = nusamp.cli.main(argv)
        finally:
            tracer.end_op()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"aggregate": tracer.aggregate(), "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
