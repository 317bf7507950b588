"""One traced ``nncost`` process for the zoo_cli workload.

Usage: python bench/child.py SPANS_JSON NNCOST_ARGS...

Imports nncost.cli, installs the span wrappers, runs ``main`` on the
arguments and writes the spans to SPANS_JSON.  The import is one
``import.nncost.cli`` span, outside every module's self time; its
per-module split comes from ``python -X importtime`` in the parent.
"""

import json
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import nncost.cli

    t1 = time.perf_counter()
    from tracing import Tracer, install

    tracer = Tracer()
    tracer.add("import.nncost.cli", t0, t1, -1, 0)
    install(tracer)
    try:
        return nncost.cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        with open(sys.argv[1], "w", encoding="utf-8") as f:
            json.dump([list(s[:4]) for s in tracer.spans()], f)


if __name__ == "__main__":
    sys.exit(main())
