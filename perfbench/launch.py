"""Traced stand-in for the ``lagmin`` console script.

Usage: python3 perfbench/launch.py SUMMARY.json <lagmin arguments...>

Times ``import lagmin.cli``, installs the span wrappers of spans.py, runs
``lagmin.cli.main`` on the arguments and writes the span summary, the
import time and the time inside ``main`` to SUMMARY.json.  Exits with the
command's own exit code.
"""

import json
import sys
import time

from spans import Tracer, install


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import lagmin.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    try:
        code = lagmin.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    inproc_ms = (time.perf_counter() - t0) * 1e3
    summary = tracer.take()
    summary.update(import_ms=import_ms, inproc_ms=inproc_ms, code=code)
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
