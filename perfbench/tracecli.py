"""Run one `tsk` command under the tracer (the traced form of `python -m tsk.cli`).

    python perfbench/tracecli.py OUT.json <tsk arguments...>

Stdout and the exit code are the command's own; the call counts, self
times and spans go to OUT.json.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from tsk import cli

    code = cli.main(argv)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"aggregates": tracer.aggregates(), "spans": tracer.span_records()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
