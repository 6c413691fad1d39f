"""Run one thermolight command as `python -m thermolight` does, and report its timings.

    python perfbench/cli_child.py <thermolight arguments...>

The command's own output goes to stdout unchanged and its exit code is
this process's exit code. The last line on stderr starts with MARK and
holds JSON: the file thermolight was imported from, and the start and
end, on the system-wide monotonic clock, of the package import and of
`cli.main(argv)`.
"""

import json
import sys
import time

MARK = "PERFBENCH_CHILD "


def main() -> int:
    t0 = time.perf_counter()
    import thermolight.cli  # the same modules `python -m thermolight` imports

    t1 = time.perf_counter()
    rc = thermolight.cli.main(sys.argv[1:])
    t2 = time.perf_counter()
    sys.stdout.flush()
    report = {"file": thermolight.__file__, "import": [t0, t1], "main": [t1, t2]}
    print(MARK + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
