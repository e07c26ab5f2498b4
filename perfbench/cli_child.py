"""Traced command-line child: ``python cli_child.py SUMMARY ARGS...``.

Installs the span wrappers, runs ``lorentzflow.cli.main(ARGS)`` with
tracing on, writes the span summary and counters to SUMMARY as JSON and
exits with the command's exit code. The parent sets PYTHONPATH to the
package source.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    import lorentzflow.cli

    tracer.enabled = True
    try:
        code = lorentzflow.cli.main(argv)
    finally:
        tracer.enabled = False
        Path(summary_path).write_text(
            json.dumps({"spans": tracer.summary(), "counters": dict(tracer.counters)})
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
