"""Run one emmatch CLI command with the benchmark's tracer installed.

Usage: python launcher.py SPANS_JSON COMMAND [ARGS...]

Times ``import emmatch.cli``, wraps the functions listed in
``tracer.WRAPPED``, runs ``emmatch.cli.main`` on the arguments, writes the
recorded spans to SPANS_JSON and exits with main's return code.  The
source directory must be on PYTHONPATH.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import emmatch.cli
    tracer.install()
    code = emmatch.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
