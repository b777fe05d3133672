"""Run one mebkit CLI call and record the process's own peak resident memory.

Usage: python launch.py HWM_FILE ARG...

Standard output and the exit code are those of ``python -m mebkit.cli ARG...``.
On exit the launcher writes the ``VmHWM`` line of /proc/self/status, in kB,
to HWM_FILE.  The figure is read inside the child: ``ru_maxrss`` from
``wait4``/``getrusage`` keeps the parent's high-water mark across ``exec`` on
Linux, so a large benchmark process would inflate every call's reading.
"""

import sys


def vm_hwm_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    hwm_path, argv = sys.argv[1], sys.argv[2:]
    try:
        from mebkit.cli import main as cli_main

        code = cli_main(argv)
    finally:
        sys.stdout.flush()
        with open(hwm_path, "w", encoding="ascii") as fh:
            fh.write(f"{vm_hwm_kb()}\n")
    sys.exit(code)


if __name__ == "__main__":
    main()
