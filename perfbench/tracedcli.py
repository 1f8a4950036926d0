"""``python -m wring.cli`` with spans: the traced form of one cli-cold call.

Usage: PERFBENCH_SPANS=FILE python3 tracedcli.py <wring arguments>

Times the fresh-interpreter import of ``wring.cli``, wraps the package's
entry points, runs the CLI once as job ``job`` and writes the spans to FILE
when the call ends. The exit code is the CLI's.
"""

import os
import sys
import time

t = time.perf_counter()
import wring.cli  # noqa: E402

import_s = time.perf_counter() - t

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    tracer.install()
    tracer.start_job("job")
    tracer.add("cli.import_s", import_s)
    try:
        return wring.cli.main(sys.argv[1:])
    finally:
        tracer.start_job(None)
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
