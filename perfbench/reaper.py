"""Leave no process behind: every run ends with all its descendants reaped.

:func:`adopt_orphans` makes this process the reaper of its orphaned
descendants (Linux ``PR_SET_CHILD_SUBREAPER``), so a grandchild whose
parent died still shows up as a child here.  :func:`reap_children` then
ends every child: the workloads' own processes, such orphans, and
``multiprocessing``'s resource tracker, which the ``spawn`` start method
starts and which would otherwise outlive the run, detached.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from multiprocessing import resource_tracker
from typing import List

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Become the reaper of orphaned descendants; False where unsupported."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> List[int]:
    """Pids whose parent is this process (zombies included)."""
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
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # ``pid (comm) state ppid ...``; comm may hold spaces or parens.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def _wait(pids: List[int], timeout: float) -> List[int]:
    """Reap ``pids`` as they end, for up to ``timeout`` s; return the rest."""
    deadline = time.monotonic() + timeout
    alive = list(pids)
    while alive:
        for pid in list(alive):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid  # reaped elsewhere, or not ours
            if done:
                alive.remove(pid)
        if not alive or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    return alive


def _end(pids: List[int], grace: float) -> None:
    """SIGTERM ``pids``, then SIGKILL whichever outlive ``grace`` s; reap all."""
    for sig, timeout in ((signal.SIGTERM, grace), (signal.SIGKILL, 30.0)):
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        pids = _wait(pids, timeout)
        if not pids:
            return


def _stop_resource_tracker(grace: float) -> None:
    """Close the tracker's pipe (its signal to exit) and wait for it."""
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    if pid is not None and _wait([pid], grace):
        _end([pid], 0.0)


def reap_children(grace: float = 10.0) -> int:
    """End and reap every child; return how many had to be signalled."""
    stray = [pid for pid in children() if pid != resource_tracker._resource_tracker._pid]
    # Children that already exited are zombies: reaping them is enough.
    stray = _wait(stray, 0.0)
    _end(stray, grace)
    _stop_resource_tracker(grace)
    # Orphans of the processes just ended were adopted meanwhile.
    late = _wait(children(), 0.0)
    _end(late, grace)
    return len(stray) + len(late)
