"""Run one ladderlab CLI command and report the process's own resource use.

Usage: python3 perfbench/stage.py STATUS_JSON LADDERLAB_ARGS...

The command runs exactly as `ladderlab LADDERLAB_ARGS...` would.  Before
exiting, the wrapper writes STATUS_JSON with the exit code, the
CLOCK_MONOTONIC instant at which `ladderlab.cli` had finished importing,
and the process's peak resident set (`VmHWM` from /proc/self/status).
`VmHWM` is read here, inside the stage process, because the parent's
`wait4` `ru_maxrss` inherits the parent's own high-water mark at exec.
"""

import json
import sys
import time

from ladderlab.cli import main

_IMPORTED_AT = time.monotonic()


def vmhwm_kb():
    """Peak resident set of this process in KiB, or None off Linux."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


if __name__ == "__main__":
    status_path, argv = sys.argv[1], sys.argv[2:]
    rc = main(argv)
    with open(status_path, "w") as f:
        json.dump({"rc": rc, "imported_at": _IMPORTED_AT, "vmhwm_kb": vmhwm_kb()}, f)
    sys.exit(rc)
