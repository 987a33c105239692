"""Stops every process the benchmark started, and waits for each.

The runner joins its workers itself, but the ``multiprocessing``
resource tracker, which a shared-memory world starts on first use, runs
until its parent exits and only then reads end-of-file and quits.  A
benchmark that simply returned would leave it behind, so
:func:`stop_all` kills and reaps anything still a child of this
process, then ends the tracker explicitly.
"""

from __future__ import annotations

import os
import signal
from multiprocessing import resource_tracker


def child_pids() -> list[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue            # the process ended meanwhile
        # pid (comm) state ppid ...; comm may hold spaces and parentheses.
        fields = stat[stat.rindex(b")") + 2:].split()
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_all() -> None:
    """End every child process and wait until each has ended.

    The resource tracker goes last: it quits only once no process holds
    its pipe, and a forked child holds a copy.
    """
    tracker = resource_tracker._resource_tracker
    ours = getattr(tracker, "_pid", None)     # None: not started here
    for pid in child_pids():
        if pid == ours:
            continue
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass                # it ended, and was reaped, meanwhile
    if ours is not None:
        tracker._stop()         # closes its pipe, then waits for it
