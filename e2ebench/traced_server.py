"""Run ``repro.cli`` with the benchmark's timing shims installed.

    python3 e2ebench/traced_server.py serve --model lenet --port 0 ...

The shims go in before the CLI builds anything.  When the command returns
(``serve`` returns once SIGINT has drained it), every recorded span is
printed on standard output as one JSON line starting with
``tracing.SPANS_MARK``.  ``src`` must be on ``PYTHONPATH``.
"""

import json
import sys

import tracing


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from repro.cli import main as cli_main

    code = cli_main(sys.argv[1:])
    print(tracing.SPANS_MARK + json.dumps(tracer.spans), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
