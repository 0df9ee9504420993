"""Server process hygiene and accounting from ``/proc`` (Linux only).

Standard library only.  The server is started in its own session, so its
process group holds the front door and every forked shard; CPU and memory
are read for the whole tree under the server's pid.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Dict, Iterable, List

_TICKS = os.sysconf("SC_CLK_TCK")

#: Command-line fragments that identify a tuning-service server process.
_SERVER_MARKS = ("repro.service.cli", "traced_serve.py")


def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` split after the parenthesised command name."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        raw = handle.read().decode("ascii", "replace")
    return raw[raw.rindex(")") + 2:].split()


def _pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def tree(root: int) -> List[int]:
    """``root`` and every live descendant of it."""
    children: Dict[int, List[int]] = {}
    for pid in _pids():
        try:
            parent = int(_stat_fields(pid)[1])
        except (OSError, ValueError, IndexError):
            continue                  # exited while we looked
        children.setdefault(parent, []).append(pid)
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        frontier.extend(children.get(pid, ()))
    return found


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU of ``pids``, including their reaped children.

    A descendant that exits and is reaped moves its time into its parent's
    ``cutime``/``cstime``, so summing all four fields over a tree keeps the
    total whole while processes come and go.
    """
    ticks = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        # utime, stime, cutime, cstime are fields 14-17 of stat(5); the
        # slice starts at field 3.
        ticks += sum(int(value) for value in fields[11:15])
    return ticks / _TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum over ``pids`` of each process's peak resident set (``VmHWM``).

    Pages a forked shard still shares with its parent count once per
    process, as ``ps`` would show them.
    """
    kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
                        break
        except (OSError, ValueError):
            continue
    return kib / 1024.0


def host_ticks() -> List[int]:
    """``[steal, total]`` CPU ticks of the host since boot (``/proc/stat``).

    Steal is time a virtual machine's CPUs were runnable but the hypervisor
    ran something else: a share of it over a window says how much the
    neighbours, not the program, slowed that window.
    """
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return [fields[7] if len(fields) > 7 else 0, sum(fields)]


def stray_servers() -> List[int]:
    """Pids of tuning-service servers alive now (other than ourselves)."""
    found = []
    for pid in _pids():
        if pid == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                argv = handle.read().decode("utf-8", "replace").split("\0")
        except OSError:
            continue
        if "serve" in argv and any(mark in arg for arg in argv
                                   for mark in _SERVER_MARKS):
            found.append(pid)
    return found


def kill_group(process: subprocess.Popen) -> None:
    """SIGKILL the process group led by ``process`` and reap the leader,
    so no shard outlives its server."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    # Members of the group that were not the leader's children are reaped
    # by init; wait until none is left so the next run starts clean.
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and _group_alive(process.pid):
        time.sleep(0.01)


def _group_alive(pgid: int) -> bool:
    for pid in _pids():
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False
