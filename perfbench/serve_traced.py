"""``python -m repro.serve`` with the benchmark's span wrappers installed.

Runs the same command-line entry point as the untraced service
(``repro.serve.cli.main``) after :func:`tracing.install` has wrapped the
layer boundaries; when the service is interrupted, prints one line with
the span report (prefixed ``PERFBENCH-TRACE``) and exits.

    PYTHONPATH=src python perfbench/serve_traced.py serve --port 0
"""

import json
import sys

import tracing


def main() -> int:
    recorder = tracing.Recorder()
    tracing.install(recorder)
    from repro.serve.cli import main as serve_main

    recorder.start()
    code = serve_main(sys.argv[1:])
    recorder.stop()
    print("PERFBENCH-TRACE " + json.dumps(recorder.report()), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
