"""Run one catbij CLI command with spans around its calls into each layer.

    python3 bench/cli_child.py SPANS_FILE VERB [ARGS...]

Behaves like `python -m catbij.cli VERB [ARGS...]` and writes the spans to
SPANS_FILE before exiting.  Used by the traced cli workload.
"""

import sys

from spans import Tracer, patched


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.current_op = 0
    span = tracer.begin("cli.import")
    import catbij.cli

    tracer.finish(span)
    with patched(tracer):
        span = tracer.begin("cli.main")
        code = catbij.cli.main(argv)
        sys.stdout.flush()
        tracer.finish(span)
    tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
