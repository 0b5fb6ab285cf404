"""Contract of ``fork_map``: the results of an in-process map, from a pool
of forked workers, one per usable CPU, each serving one item at a time."""
import errno
import os
import select
import time

import pytest

from proxlink._fork import fork_map

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch, usable_cpus):
    """Two usable CPUs, with ``os.fork`` and ``os.waitpid`` wrapped: the
    pids of forked workers in order, and the most workers forked and
    not yet reaped at any time."""
    usable_cpus(2)
    state = {"started": [], "live": 0, "peak": 0}
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = real_fork()
        if pid:
            state["started"].append(pid)
            state["live"] += 1
            state["peak"] = max(state["peak"], state["live"])
        return pid

    def waitpid(pid, options):
        out = real_waitpid(pid, options)
        if pid > 0 and out[0] == pid:
            state["live"] -= 1
        return out

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return state


@pytest.fixture
def ran(tmp_path):
    """``ran.record(item)`` notes that ``item`` started, in whichever
    process; ``ran.read()`` is the list of (item, pid) in start order."""
    path = tmp_path / "ran.log"

    class Ran:
        @staticmethod
        def record(item):
            with open(path, "a") as log:
                log.write(f"{item} {os.getpid()}\n")

        @staticmethod
        def read():
            if not path.exists():
                return []
            return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]

    return Ran


def fork_fails_after(n, fork):
    """``os.fork`` that works ``n`` times, then fails for want of processes."""
    calls = []

    def limited_fork():
        calls.append(1)
        if len(calls) > n:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    return limited_fork


def nap_then_report(item, unit=0.02):
    """Item ``n`` takes ``n`` time units; returns (item, pid, start time)."""
    start = time.monotonic()
    time.sleep(unit * item)
    return item, os.getpid(), start


def served_by_worker(state, results):
    """The items each forked worker ran, in the order it ran them."""
    return [[item for item, pid, _ in sorted(results, key=lambda r: r[2]) if pid == worker]
            for worker in state["started"]]


def fail_on(*bad, nap=0.0):
    def fn(item):
        if item in bad:
            time.sleep(nap)
            raise ValueError(f"bad item {item}")
        return item
    return fn


class Picky(Exception):
    """Pickles, but cannot be unpickled: ``__init__`` wants two arguments."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


class Unpicklable(Exception):
    """Cannot be pickled: it holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: message


class ParentFailed(Exception):
    pass


def _fail_while_unpickling():
    raise ParentFailed("a reply could not be read")


class FailsInParent:
    """Pickles in the worker; unpickling it in the parent raises."""

    def __reduce__(self):
        return _fail_while_unpickling, ()


class TestForkMap:
    def test_results_in_item_order_items_started_in_order(self, forks):
        # item n takes n units: the first worker is busy with 5 until the
        # second has run 0, 3 and 1, so that one takes 4 and the first 2
        items = [5, 0, 3, 1, 4, 2]
        results = fork_map(lambda item: nap_then_report(item, unit=0.05), items)
        assert [item for item, _, _ in results] == items
        assert len(forks["started"]) == 2
        assert served_by_worker(forks, results) == [[5, 2], [0, 3, 1, 4]]

    def test_cost_starts_the_costliest_items_first(self, forks, monkeypatch):
        # one worker forks: it runs every item, in the order handed out
        monkeypatch.setattr(os, "fork", fork_fails_after(1, os.fork))
        results = fork_map(nap_then_report, [1, 4, 0, 3], cost=lambda item: item)
        assert [item for item, _, _ in results] == [1, 4, 0, 3]
        assert served_by_worker(forks, results) == [[4, 3, 1, 0]]

    def test_one_worker_runs_the_items_in_item_order(self, forks, monkeypatch):
        monkeypatch.setattr(os, "fork", fork_fails_after(1, os.fork))
        results = fork_map(nap_then_report, [1, 4, 0, 3])
        assert served_by_worker(forks, results) == [[1, 4, 0, 3]]

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_never_more_live_children_than_cpus(self, forks, usable_cpus, n_cpus):
        usable_cpus(n_cpus)
        items = [3, 0, 2, 1, 3, 0, 2]
        results = fork_map(nap_then_report, items)
        assert [item for item, _, _ in results] == items
        assert len(forks["started"]) == forks["peak"] == n_cpus
        assert forks["live"] == 0
        assert {pid for _, pid, _ in results} <= set(forks["started"])

    def test_no_more_workers_than_items(self, forks, usable_cpus):
        usable_cpus(3)
        assert [item for item, _, _ in fork_map(nap_then_report, [1, 0])] == [1, 0]
        assert len(forks["started"]) == 2 and forks["live"] == 0

    def test_child_exception_keeps_type_message_and_traceback(self, forks):
        with pytest.raises(ValueError, match="^bad item 2$") as info:
            fork_map(fail_on(2), [0, 1, 2, 3])
        cause = info.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "fork_map child for item 2" in str(cause)
        assert "Traceback" in str(cause) and "in fn" in str(cause)

    @pytest.mark.parametrize("make, message", [(lambda: Picky("x", "y"), "Picky: x and y"),
                                               (lambda: Unpicklable("x"), "Unpicklable: x")],
                             ids=["cannot be unpickled", "cannot be pickled"])
    def test_exception_that_cannot_make_the_trip_arrives_as_runtime_error(
            self, forks, make, message):
        def fn(item):
            if item == 1:
                raise make()
            return item

        with pytest.raises(RuntimeError, match=f"^{message}$") as info:
            fork_map(fn, [0, 1, 2], label=lambda item: f"child for {item}")
        cause = str(info.value.__cause__)
        assert "in the child for 1:" in cause
        assert "Traceback" in cause and message in cause

    def test_label_names_the_child(self, forks):
        with pytest.raises(ValueError) as info:
            fork_map(fail_on("b"), ["a", "b"], label=lambda item: f"child for {item!r}")
        assert "in the child for 'b':" in str(info.value.__cause__)

    def test_first_failing_item_wins(self, forks, ran):
        # item 3 fails first in time, item 1 first in item order
        slow, fast = fail_on(1, nap=1.0), fail_on(3)

        def fn(item):
            ran.record(item)
            return slow(item) if item == 1 else fast(item)

        with pytest.raises(ValueError, match="bad item 1"):
            fork_map(fn, [0, 1, 2, 3])
        assert sorted(item for item, _ in ran.read()) == [0, 1, 2, 3]

    def test_no_item_after_a_failure_is_started(self, forks, ran):
        bad = fail_on(1)

        def fn(item):
            ran.record(item)
            return time.sleep(1.0) if item == 0 else bad(item)

        with pytest.raises(ValueError, match="bad item 1"):
            fork_map(fn, [0, 1, 2, 3])
        assert sorted(item for item, _ in ran.read()) == [0, 1]

    def test_child_exiting_without_reply_is_reported(self, forks):
        with pytest.raises(RuntimeError, match=r"^fork_map child for item 1 exited without "
                                               r"a reply \(exit status 3\)$"):
            fork_map(lambda item: os._exit(3) if item == 1 else item, [0, 1, 2])

    def test_earlier_items_finish_on_a_replacement_worker(self, forks, ran):
        # by cost, 2 and 1 go out first; 1's worker dies, and 0 runs on a
        # new fork while 2 is still running
        def fn(item):
            ran.record(item)
            if item == 1:
                os._exit(3)
            time.sleep(0.3 if item == 2 else 0.0)

        with pytest.raises(RuntimeError, match=r"^fork_map child for item 1 exited without "
                                               r"a reply \(exit status 3\)$"):
            fork_map(fn, [0, 1, 2], cost=lambda item: item)
        assert len(forks["started"]) == 3 and forks["live"] == 0
        assert dict(ran.read())[0] == forks["started"][2]

    def test_earlier_items_run_in_process_when_no_worker_is_left(
            self, forks, ran, monkeypatch):
        def fn(item):
            ran.record(item)
            if item > 0:
                os._exit(3)

        monkeypatch.setattr(os, "fork", fork_fails_after(2, os.fork))
        with pytest.raises(RuntimeError, match=r"^fork_map child for item 1 exited without "
                                               r"a reply \(exit status 3\)$"):
            fork_map(fn, [0, 1, 2], cost=lambda item: item)
        assert dict(ran.read())[0] == os.getpid()
        assert len(forks["started"]) == 2 and forks["live"] == 0

    def test_unpicklable_result_is_reported(self, forks):
        with pytest.raises(RuntimeError, match=r"item 0 exited without a reply "
                                               r"\(exit status 1\)"):
            fork_map(lambda item: lambda: item, [0, 1])

    def test_fork_failing_every_other_time_leaves_the_items_to_the_workers(
            self, forks, usable_cpus, monkeypatch):
        usable_cpus(3)
        wrapped = os.fork
        calls = []

        def fork_fails_every_other():
            calls.append(1)
            if len(calls) % 2 == 0:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return wrapped()

        monkeypatch.setattr(os, "fork", fork_fails_every_other)
        items = [4, 0, 3, 1, 2]
        results = fork_map(nap_then_report, items)
        assert [item for item, _, _ in results] == items
        assert len(calls) == 3 and len(forks["started"]) == 2
        assert {pid for _, pid, _ in results} <= set(forks["started"])

    def test_fork_always_failing_runs_everything_in_process(self, forks, monkeypatch):
        def fork_fails():
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(os, "fork", fork_fails)
        assert [result[:2] for result in fork_map(nap_then_report, [2, 0, 1])] == \
            [(2, os.getpid()), (0, os.getpid()), (1, os.getpid())]

    @pytest.mark.parametrize("where", ["reading a reply", "waiting"])
    def test_parent_failure_kills_and_reaps_children(self, forks, usable_cpus, monkeypatch,
                                                    where):
        usable_cpus(3)

        def fn(item):
            if item == 0 and where == "reading a reply":
                return FailsInParent()
            time.sleep(60)

        def select_fails(*args):
            raise ParentFailed("interrupted while waiting")

        if where == "waiting":
            monkeypatch.setattr(select, "select", select_fails)
        t0 = time.perf_counter()
        with pytest.raises(ParentFailed):
            fork_map(fn, [0, 1, 2])
        assert time.perf_counter() - t0 < 30
        assert len(forks["started"]) == 3
        assert forks["live"] == 0

    def test_one_cpu_one_item_or_no_fork_runs_in_process(self, usable_cpus, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        def item_and_pid(item):
            return item, os.getpid()

        monkeypatch.setattr(os, "fork", no_fork)
        usable_cpus(1)
        assert fork_map(item_and_pid, [1, 0]) == [(1, os.getpid()), (0, os.getpid())]
        usable_cpus(2)
        assert fork_map(item_and_pid, [1]) == [(1, os.getpid())]
        monkeypatch.delattr(os, "fork")
        assert fork_map(item_and_pid, [1, 0]) == [(1, os.getpid()), (0, os.getpid())]
        assert fork_map(item_and_pid, []) == []
