"""Run one ddrom command in this fresh process and record its peak memory.

    python3 child.py OUT_FILE COMMAND --config FILE

After the command returns, the process's resident high-water mark (VmHWM)
is written to OUT_FILE in bytes.  VmHWM belongs to the address space made by
exec, so unlike the ``ru_maxrss`` a parent reads from ``wait4`` it does not
start at the parent's size at fork time.
"""

import resource
import sys

from ddrom.cli import main


def peak_rss_bytes() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


if __name__ == "__main__":
    code = main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        fh.write(f"{peak_rss_bytes()}\n")
    sys.exit(code)
