"""Run the qfmin CLI with its layers traced.

Usage: python3 perfbench/cli_driver.py SPANS_OUT ARGS...

Times ``import qfmin.cli``, wraps the layers, calls ``qfmin.cli.main(ARGS)``
and writes the spans and the import time to SPANS_OUT before exiting with
main's return code.  Stdout and stderr are the CLI's own.
"""

import json
import sys
import time

from tracing import Tracer, cli_targets, library_targets


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import qfmin.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(library_targets() + cli_targets())
    with tracer.span("cli.main"):
        code = qfmin.cli.main(argv)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
