"""Run the qqwalk CLI with spans recorded.

Usage: python3 perfbench/cli_trace.py SPANS_JSON [qqwalk arguments...]

Imports ``qqwalk.cli``, wraps the program's functions as ``tracing.Tracer``
does in-process, calls ``qqwalk.cli.main`` with the remaining arguments and
writes the spans, the absent targets and the import time to SPANS_JSON.
"""

import json
import sys
import time
from pathlib import Path


def main():
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import qqwalk.cli
    import_s = time.perf_counter() - start
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        code = qqwalk.cli.main(argv)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps({"import_s": import_s, "spans": tracer.spans,
                                   "absent": sorted(tracer.absent)}))
    return code


if __name__ == "__main__":
    sys.exit(main())
