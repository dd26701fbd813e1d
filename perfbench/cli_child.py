"""Traced stand-in for ``python -m fglcalc``: same arguments, stdout and exit code.

Times the import of ``fglcalc.cli``, installs the benchmark's wrappers, runs
``fglcalc.cli.main`` inside a ``cli.main`` span and then appends one line
``PERFBENCH_TRACE <json>`` to stderr with this process's span statistics,
kept span records and the clock reading taken when this module started
(the parent subtracts its spawn time from it to get interpreter start-up).
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

MARKER = "PERFBENCH_TRACE "


def main() -> int:
    begin = time.perf_counter()
    import fglcalc.cli

    import_s = time.perf_counter() - begin

    from perfbench.tracer import Tracer, install

    tracer = Tracer()
    installation = install(tracer)
    try:
        with tracer.span("cli.main"):
            code = fglcalc.cli.main(sys.argv[1:])
    finally:
        installation.uninstall()
    sys.stdout.flush()
    payload = {
        "started": STARTED,
        "import_s": import_s,
        "stats": tracer.stats,
        "spans": tracer.spans,
        "missing": tracer.missing,
    }
    sys.stderr.write("\n" + MARKER + json.dumps(payload) + "\n")
    return code


def parse_payload(stderr: bytes) -> dict:
    """The trace payload a child wrote as its last stderr line."""
    last = stderr.decode("utf-8", "replace").rstrip("\n").rsplit("\n", 1)[-1]
    if not last.startswith(MARKER):
        raise ValueError("traced CLI process wrote no trace payload")
    return json.loads(last[len(MARKER):])


if __name__ == "__main__":
    sys.exit(main())
