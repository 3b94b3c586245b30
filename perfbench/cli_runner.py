"""Traced stand-in for `python -m thetafock.cli`, used by traced cli-verbs runs.

    python perfbench/cli_runner.py SPANS_OUT <thetafock cli arguments...>

Times the package import, installs the span wrappers, calls
``thetafock.cli.main`` under a ``cli.main`` span and writes the spans and
counters to SPANS_OUT.  The exit code is main's.  ``src`` must be on
PYTHONPATH, as for the untraced call.
"""

import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    import thetafock.cli

    imported = time.perf_counter()
    import spans

    tracer = spans.Tracer()
    tracer.op = 0
    spans.install(tracer)
    code = tracer.wrap("cli.main", thetafock.cli.main)(sys.argv[2:])
    rows = tracer.spans + [["cli.import", start, imported, -1, 0]]
    counters = {name: value for (_phase, name), value in tracer.counters.items()}
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"spans": rows, "counters": counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
