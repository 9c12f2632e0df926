"""Traced stand-in for ``python -m uncpool.cli``.

Usage: python perfbench/cli_launch.py SPANS_JSON {time,memory} CLI_ARGS...

Times a fresh ``import uncpool.cli``, wraps the package's public functions,
runs ``uncpool.cli.main`` with CLI_ARGS and writes the spans to SPANS_JSON
on exit.  ``memory`` runs the enumeration spans under tracemalloc (see
``tracer.MEMORY_SPANS``).  The exit status is the CLI's.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(memory=mode == "memory")
    span = tracer.open("cli.import")
    import uncpool.cli
    tracer.close(span)
    tracer.install()
    sys.argv = ["uncpool", *argv]
    try:
        uncpool.cli.main()
        status = 0
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main())
