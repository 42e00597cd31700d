"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload gate --seed 1 --seconds 12 --trace 0

The program under test is the checkout's ``src/repro``; the benchmark
drives it through its public API only.  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs the same
operations with every other one traced, then the layer sweep
(``layers.py``), and prints the per-layer metrics.  The last line of
standard output is the result object; the lines before it say what
was run (the replay record) and, for a traced run, where the time went.
Spans of a traced run are written to ``.perfbench/``.

The benchmark itself runs in a child process.  This one stays as its
supervisor: parallel checks start a fork server, a resource tracker
and worker processes, and the service workload a server with its own
pool, and several of these outlive the process that started them by a
moment.  The supervisor adopts every such orphan (Linux's child
subreaper) and returns only once every process started under it has
ended.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: String hashing is randomised per process unless pinned, and the SAT
#: solver branches in set iteration order, so an unpinned run's proof
#: times move by a third between processes on the same inputs.
HASH_SEED = "0"

#: Set in the child's environment: this process runs the benchmark.
CHILD = "PERFBENCH_CHILD"

#: Seconds the processes left once the benchmark has ended get to end
#: on their own before they are killed.
GRACE_S = 20.0

#: ``prctl`` option: orphaned descendants are re-parented to this
#: process instead of to init, so it can wait for them.
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    """Adopt orphaned descendants; ``False`` where that is not
    possible (not Linux), and only the direct child is waited for."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def descendants() -> "list[int]":
    """Processes under this one that have not been reaped, from
    ``/proc`` (empty where there is none)."""
    parents = {}
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found: "list[int]" = []
    frontier = {os.getpid()}
    while frontier:
        frontier = {pid for pid, ppid in parents.items() if ppid in frontier}
        found.extend(frontier)
    return found


def reap(block: bool) -> "tuple[int, int] | None":
    """Wait for any child; ``None`` once there is none left to wait
    for (or, not blocking, none has ended)."""
    try:
        pid, status = os.waitpid(-1, 0 if block else os.WNOHANG)
    except ChildProcessError:
        return None
    return (pid, status) if pid else None


def supervise() -> int:
    """Run the benchmark in a child, then wait until every process it
    started has ended, killing those still there after
    :data:`GRACE_S`; returns the child's exit code."""
    become_subreaper()
    # A shell starting a command in the background makes it ignore
    # SIGINT, and children inherit that: the service child would then
    # ignore the SIGINT it is stopped with.  A handler is reset on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # Stopped from outside, the supervisor still stops the benchmark.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, **{CHILD: "1"})
    child = subprocess.Popen([sys.executable, __file__, *sys.argv[1:]],
                             env=env)
    code = 1
    try:
        # Reap adopted orphans as they end, until the benchmark has.
        while True:
            ended = reap(block=True)
            if ended is None:
                break
            if ended[0] == child.pid:
                code = os.waitstatus_to_exitcode(ended[1])
                child.returncode = code
                break
    finally:
        if child.returncode is None:  # interrupted: stop the benchmark
            child.kill()
        deadline = time.monotonic() + GRACE_S
        while True:
            while reap(block=False) is not None:
                pass
            left = descendants()
            if not left:
                break
            if time.monotonic() > deadline:
                for pid in left:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.02)
    return code if code >= 0 else 1


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC})",
              file=sys.stderr)
        return 2
    if os.environ.get(CHILD) != "1":
        return supervise()
    # Parallel workers and the service child import from the same tree.
    paths = [str(SRC), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path[:0] = [str(SRC), str(HERE)]
    import runner

    return runner.main(sys.argv[1:])


# Parallel checks start worker processes that may re-import this file
# (forkserver and spawn start methods), so the entry point stays guarded.
if __name__ == "__main__":
    sys.exit(main())
