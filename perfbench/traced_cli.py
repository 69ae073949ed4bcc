"""Run one phaseq CLI invocation with spans around its layers.

    python3 perfbench/traced_cli.py SPANS_JSON INVOCATION_ID -- ARGV...

Times ``import phaseq.cli`` in this fresh interpreter, wraps the layers'
public functions (see ``spans``), runs ``phaseq.cli.main(ARGV)``, writes the
spans and the import time to SPANS_JSON, and exits with phaseq's exit code.
"""

import sys
import time

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, invocation, cli_argv = argv[0], int(argv[1]), argv[3:]
    start = time.perf_counter()
    import phaseq.cli

    import_s = time.perf_counter() - start
    recorder = spans.Recorder(invocation)
    recorder.install()
    try:
        code = phaseq.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.dump(out, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
