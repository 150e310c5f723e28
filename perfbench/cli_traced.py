"""Run the heavylab CLI in this process with the benchmark's tracer installed.

    python3 perfbench/cli_traced.py SPANS_OUT [heavylab CLI arguments...]

Exits with the CLI's exit code and writes the spans recorded inside the
process to SPANS_OUT as JSON.  Only the traced cli-cold pass uses it; the
untraced pass runs the CLI's own entry point.
"""

import json
import sys
from pathlib import Path

import heavylab.cli

from tracing import Tracer


def main() -> int:
    spans_out = Path(sys.argv[1])
    tracer = Tracer()
    tracer.install()
    try:
        return heavylab.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        spans_out.write_text(json.dumps(tracer.spans))


if __name__ == "__main__":
    sys.exit(main())
