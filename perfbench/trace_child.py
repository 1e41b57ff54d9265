"""Run one hoggsat command with every layer function traced.

    python perfbench/trace_child.py <summary.json> <hoggsat arguments...>

Stands in for ``python -m hoggsat`` in the traced run of the `cli` workload
and writes the span summary to the given file.
"""

import json
import sys

from tracer import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    import hoggsat.cli

    try:
        return hoggsat.cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main())
