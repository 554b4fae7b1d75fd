"""Run the analyzer CLI with spans around the calls into each layer.

    python perfbench/launch.py SPANS.json -- check --all-checkers --json a.c ...
    python perfbench/launch.py SPANS.json -- serve --all-checkers a.c ...

Times ``import repro.cli``, installs the wrappers of
:data:`spans.PATCHES`, calls ``repro.cli.main`` with the arguments after
``--`` and, when it returns, writes every span to SPANS.json.
"""

import sys

from spans import PATCHES, Tracer


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: launch.py SPANS.json -- REPRO-ARGS...", file=sys.stderr)
        return 2
    tracer = Tracer()
    span = tracer.open("cli.import")
    import repro.cli

    tracer.close(span)
    tracer.install(PATCHES)
    try:
        return repro.cli.main(sys.argv[3:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
