"""A traced ``thermoact`` process: install the span wrappers, run
``thermoact.cli.main(argv)``, write the spans, exit with main's code.

    python perfbench/trace_child.py SPANS.npz COMMAND [ARGS...]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402
from thermoact import cli  # noqa: E402


def main(argv):
    spans = tracer.Tracer()
    spans.op = 0
    spans.install()
    try:
        code = cli.main(argv[1:])
    except SystemExit as exc:
        code = exc.code
    finally:
        spans.uninstall()
        spans.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
