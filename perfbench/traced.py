"""Run the pmufdi command line under the span tracer.

    python3 perfbench/traced.py SPANS_JSON -- experiment --config ...

Imports the CLI (timing the import), wraps the traced functions, runs
the command exactly as ``python -m pmufdi.cli`` would and writes the
spans to SPANS_JSON when the command ends, whatever its exit code.
"""

import sys
import time

from tracer import Tracer


def main():
    spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced.py SPANS_JSON -- <pmufdi arguments>")
    start = time.perf_counter()
    import pmufdi.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        pmufdi.cli.main(args=cli_args, prog_name="pmufdi")
    finally:
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    main()
