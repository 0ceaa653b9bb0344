"""Run one octhls subcommand with the span wrappers installed.

    python perfbench/cliboot.py OUT_STEM OP_ID SUBCOMMAND [ARGS...]

Imports ``octhls.cli`` (and with it every layer it uses), installs the
same wrappers as the traced workload runs, calls ``octhls.cli.main``
with the remaining arguments, writes the recorded spans to
OUT_STEM.tsv.gz and their per-layer summary to OUT_STEM.json, and exits
with the subcommand's status.
"""

from __future__ import annotations

import json
import sys

import tracing


def main():
    stem, op = sys.argv[1], int(sys.argv[2])
    import octhls.cli  # noqa: PLC0415  (imported before the wrappers go in)

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = op
    try:
        return octhls.cli.main(sys.argv[3:])
    finally:
        tracing.write(tracer.spans, f"{stem}.tsv.gz")
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(tracing.summarize(tracer.spans), fh)


if __name__ == "__main__":
    sys.exit(main())
