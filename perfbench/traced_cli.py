"""Run one slitbound CLI command with the layer wrappers installed.

    python perfbench/traced_cli.py SPANS_JSON -- <slitbound arguments>

Imports the CLI, wraps the traced functions, runs ``main`` and writes the
span summary to SPANS_JSON.  Exits with the command's own exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- ARGS...")
    import slitbound.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = slitbound.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
