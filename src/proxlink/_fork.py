"""``fork_map``: a map over independent items in a pool of forked workers.

The workers are forked at the start of each ``fork_map`` call and
inherit the parent's memory, so ``fn`` and its items are never pickled.
The parent hands the items out in item order: it sends an idle worker
the index of the next item (8 bytes) down that worker's own pipe; the
worker sends back one length-prefixed pickled reply through another pipe
and waits for the next index.
"""
from __future__ import annotations

import os
import pickle
from typing import Callable, Optional, Sequence

_INT_BYTES = 8  # an item index or a reply length, little-endian


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_exactly(fd: int, n: int) -> Optional[bytearray]:
    """``n`` bytes from ``fd``, or None at end of file before the last one."""
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        k = os.readv(fd, [view[got:]])
        if not k:
            return None
        got += k
    return buf


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _failure_payload(exc: BaseException) -> bytes:
    """The pickled ``(False, exc, formatted traceback)``, with ``exc``
    replaced by a ``RuntimeError`` naming its type when the exception
    would not survive the trip (a class whose ``__init__`` takes other
    arguments than ``args`` cannot be unpickled, for one)."""
    import traceback
    child_tb = traceback.format_exc()
    try:
        payload = pickle.dumps((False, exc, child_tb))
        pickle.loads(payload)
        return payload
    except Exception:
        stand_in = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        return pickle.dumps((False, stand_in, child_tb))


def _serve(fn: Callable, items: list, task_fd: int, reply_fd: int) -> None:
    """Run ``fn(items[i])`` for each index ``i`` read from ``task_fd``
    until end of file, writing back ``(True, fn(item), None)`` or
    ``(False, exception, formatted traceback)`` for each; a value that
    cannot be pickled is a failure like an exception raised by ``fn``."""
    while True:
        index = _read_exactly(task_fd, _INT_BYTES)
        if index is None:
            return
        try:
            value = fn(items[int.from_bytes(index, "little")])
            payload = pickle.dumps((True, value, None))
        except BaseException as exc:  # interrupts too: the parent re-raises it
            payload = _failure_payload(exc)
        _write_all(reply_fd, len(payload).to_bytes(_INT_BYTES, "little"))
        _write_all(reply_fd, payload)


class _Worker:
    """A forked child serving ``fn`` over ``items`` (see ``_serve``);
    ``busy_with`` is the index of the item it is running, if any."""

    def __init__(self, fn: Callable, items: list, inherited: Sequence[int]):
        task_r, task_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_r, task_w, reply_r, reply_w):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                # the other workers' pipes too: a worker must see end of
                # file when the parent closes its task pipe
                for fd in (task_w, reply_r, *inherited):
                    os.close(fd)
                _serve(fn, items, task_r, reply_w)
                status = 0
            finally:
                os._exit(status)
        os.close(task_r)
        os.close(reply_w)
        self.pid, self.task_fd, self.reply_fd = pid, task_w, reply_r
        self.busy_with: Optional[int] = None

    def send(self, i: int) -> None:
        _write_all(self.task_fd, i.to_bytes(_INT_BYTES, "little"))
        self.busy_with = i

    def receive(self) -> Optional[bytearray]:
        """The pickled reply to the item sent, or None if the worker
        ended without one."""
        size = _read_exactly(self.reply_fd, _INT_BYTES)
        payload = size and _read_exactly(self.reply_fd, int.from_bytes(size, "little"))
        self.busy_with = None
        return payload

    def close(self) -> None:
        """Close the task pipe: an idle worker reads end of file and ends."""
        os.close(self.task_fd)

    def reap(self) -> int:
        """Wait for the closed worker to end; its exit status."""
        os.close(self.reply_fd)
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def fork_map(fn: Callable, items: Sequence, label: Optional[Callable] = None) -> list:
    """``[fn(item) for item in items]``, in a pool of forked workers.

    The call forks one worker per usable CPU, at most one per item, and
    each worker runs one item at a time. Items are handed to idle workers
    in item order. A fork that fails (no process or memory to spare)
    leaves the items to the workers that exist; everything runs
    in-process if none does, and with one usable CPU, one item or no
    ``os.fork``. No worker outlives the call: if the parent fails, the
    workers are killed and reaped.

    The workers inherit the parent's state as of this call, and one
    worker serves many items, so an item must not rely on process state
    that another item leaves behind (module-level caches, random state).

    Keep matrix products (level-3 BLAS) out of items while BLAS may use
    more than one thread: each worker's BLAS threads then compete for the
    same CPUs. On two CPUs with ``OPENBLAS_NUM_THREADS=2``, ``A.T @ A``
    for a 26,000 x 40 ``A`` took 2-3 ms in-process but up to 0.2-0.6 s in
    a worker; with one BLAS thread it took 2-3 ms in both. A 1-D dot of a
    few values (``ddot``) starts no threads.

    A worker's exception is re-raised with the same type and message,
    chained from a ``RuntimeError`` that carries the worker's traceback;
    an exception that cannot be unpickled arrives as a ``RuntimeError``
    naming its type, a result that cannot be pickled fails its item with
    the pickling error (the worker goes on serving), and a worker that
    ends without a reply fails its item. Once an item has failed no
    further item is handed out; the items already out finish, and of the
    failing ones the first in item order wins. ``label(item)`` names an
    item's worker in these messages.
    """
    items = list(items)
    n_workers = min(len(items), usable_cpus())
    if n_workers < 2 or not hasattr(os, "fork"):
        n_workers = 0
    workers: dict[int, _Worker] = {}  # reply fd -> live worker
    try:
        for _ in range(n_workers):
            inherited = [fd for w in workers.values() for fd in (w.task_fd, w.reply_fd)]
            try:
                worker = _Worker(fn, items, inherited)
            except OSError:
                continue
            workers[worker.reply_fd] = worker
        if not workers:
            return [fn(item) for item in items]
        # imported here so that runs which never fork load neither module
        import select
        import signal

        def name(i: int) -> str:
            return label(items[i]) if label else f"fork_map child for item {i}"

        pending = list(range(len(items)))
        replies: dict[int, tuple[bool, object, Optional[str]]] = {}
        while True:
            for worker in workers.values():
                if pending and worker.busy_with is None:
                    worker.send(pending.pop(0))
            busy = [fd for fd, w in workers.items() if w.busy_with is not None]
            if not busy:  # all done, or a failure stopped the hand-out
                break
            for reply_fd in select.select(busy, [], [])[0]:
                worker = workers[reply_fd]
                i = worker.busy_with
                payload = worker.receive()
                if payload is None:
                    del workers[reply_fd]
                    worker.close()
                    replies[i] = (False, RuntimeError(
                        f"{name(i)} exited without a reply (exit status {worker.reap()})"),
                        None)
                else:
                    replies[i] = pickle.loads(payload)
                if not replies[i][0]:
                    pending.clear()
    finally:
        for worker in workers.values():
            if worker.busy_with is not None:
                os.kill(worker.pid, signal.SIGKILL)
            worker.close()
        for worker in workers.values():
            worker.reap()
    out = []
    for i in range(len(items)):
        ok, value, child_tb = replies[i]
        if not ok:
            if child_tb is None:
                raise value
            raise value from RuntimeError(f"in the {name(i)}:\n{child_tb}")
        out.append(value)
    return out
