"""One timed run of the shrinknet command line, in its own process.

Usage: python3 launch.py RECORD_JSON TRACE(0|1) -- CLI_ARGS...

Imports ``shrinknet.cli`` (the end of set-up), calls its ``main`` entry
point with CLI_ARGS, and writes to RECORD_JSON the monotonic clock at
ready and at done, the exit code, the process's peak resident memory
and, with TRACE=1, the span totals of spans.Tracer.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    record_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        print("usage: launch.py RECORD TRACE -- ARGS...", file=sys.stderr)
        return 2
    cli_args = sys.argv[4:]
    import click
    import shrinknet.cli as cli

    ready = time.monotonic()
    expected = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(cli.__file__).startswith(expected + os.sep):
        print(f"shrinknet imported from {cli.__file__}, not {expected}",
              file=sys.stderr)
        return 2
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    exit_code = 0
    write_s = None

    def command():
        cli.main(cli_args, standalone_mode=False)

    try:
        if tracer is None:
            command()
        else:
            write_s = tracer.run_root(command)
    except SystemExit as exc:
        exit_code = 0 if exc.code is None else (
            exc.code if isinstance(exc.code, int) else 1)
    except click.ClickException as exc:
        exc.show()
        exit_code = exc.exit_code
    done = time.monotonic()
    record = {
        "ready": ready,
        "done": done,
        "exit": exit_code,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
            "missing": tracer.missing,
            "write_s": write_s,
        }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
