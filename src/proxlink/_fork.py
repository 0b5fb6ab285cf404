"""``fork_map``: a map over independent items in forked children.

The children inherit the parent's memory through ``fork``, so ``fn`` and
its items are never pickled; each child sends back one pickled reply
through a pipe.
"""
from __future__ import annotations

import os
import pickle
from typing import Callable, Optional, Sequence


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start(fn: Callable, item) -> tuple[int, int]:
    """Fork a child that writes back ``(True, fn(item), None)`` or
    ``(False, exception, formatted traceback)``; returns (pid, read fd)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                reply = (True, fn(item), None)
            except BaseException as exc:  # interrupts too: the parent re-raises it
                import traceback
                reply = (False, exc, traceback.format_exc())
            # pickled before writing, so a reply that cannot be pickled
            # arrives as no reply at all
            payload = pickle.dumps(reply)
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _finish(pid: int, read_fd: int, name: str) -> tuple[bool, object, Optional[str]]:
    """Read a child's reply to the end, reap the child, then unpickle."""
    try:
        with os.fdopen(read_fd, "rb") as src:
            payload = src.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not payload:
        return False, RuntimeError(f"{name} exited without a reply (exit status "
                                   f"{os.waitstatus_to_exitcode(status)})"), None
    return pickle.loads(payload)


def fork_map(fn: Callable, items: Sequence, label: Optional[Callable] = None,
             cost: Optional[Callable] = None) -> list:
    """``[fn(item) for item in items]``, each call in a forked child.

    At most one child runs per usable CPU. Items start in order, or by
    decreasing ``cost(item)`` if given. An item whose fork fails (no
    process or memory to spare) runs in-process, and so does everything
    with one usable CPU, one item or no ``os.fork``. If the parent fails,
    its children are killed and reaped.

    A child's exception is re-raised with the same type and message,
    chained from a ``RuntimeError`` that carries the child's traceback. Of
    several failing items the first in item order wins, and no later item
    is started once one has failed. ``label(item)`` names a child in these
    messages.
    """
    items = list(items)
    n_workers = min(len(items), usable_cpus())
    if n_workers < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    # imported here so that runs which never fork load neither module
    import select
    import signal

    def name(i: int) -> str:
        return label(items[i]) if label else f"fork_map child for item {i}"

    order = range(len(items))
    pending = sorted(order, key=lambda i: -cost(items[i])) if cost else list(order)
    running: dict[int, tuple[int, int]] = {}  # read fd -> (item index, pid)
    replies: dict[int, tuple[bool, object, Optional[str]]] = {}
    try:
        while pending or running:
            while pending and len(running) < n_workers:
                i = pending.pop(0)
                try:
                    pid, read_fd = _start(fn, items[i])
                except OSError:
                    replies[i] = (True, fn(items[i]), None)
                    continue
                running[read_fd] = (i, pid)
            if running:
                for read_fd in select.select(list(running), [], [])[0]:
                    i, pid = running.pop(read_fd)
                    replies[i] = _finish(pid, read_fd, name(i))
                    if not replies[i][0]:
                        pending = [j for j in pending if j < i]
    finally:
        for read_fd, (_, pid) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    out = []
    for i in range(len(items)):
        ok, value, child_tb = replies[i]
        if not ok:
            if child_tb is None:
                raise value
            raise value from RuntimeError(f"in the {name(i)}:\n{child_tb}")
        out.append(value)
    return out
