"""Run the schubert-arcs CLI once with the benchmark's spans installed.

    python perfbench/cli_launcher.py TRACE_OUT [CLI ARGUMENTS...]

Behaves like ``python -m schubert_arcs.cli CLI ARGUMENTS...`` (same output,
same exit code, a traceback on an uncaught exception) and writes the spans
of the process to TRACE_OUT, also when the CLI fails.  The package must be
importable, e.g. through PYTHONPATH.
"""

import sys

from tracing import Tracer


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    import schubert_arcs.cli

    tracer = Tracer()
    tracer.install()
    try:
        return schubert_arcs.cli.main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
