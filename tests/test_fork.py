"""Contract of ``fork_map``: the results of an in-process map, from forked
children, one per usable CPU."""
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
    pids of started children in order, and the most children forked and
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


def nap_then_report(item):
    """Later items of the test lists finish first."""
    time.sleep(0.02 * item)
    return item, os.getpid()


def fail_on(*bad, nap=0.0):
    def fn(item):
        if item in bad:
            time.sleep(nap)
            raise ValueError(f"bad item {item}")
        return item
    return fn


def started_items(state, results):
    by_pid = {pid: item for item, pid in results}
    return [by_pid[pid] for pid in state["started"]]


class TestForkMap:
    def test_results_in_item_order_items_started_in_order(self, forks):
        items = [5, 0, 3, 1, 4, 2]
        results = fork_map(nap_then_report, items)
        assert [item for item, _ in results] == items
        assert os.getpid() not in {pid for _, pid in results}
        assert started_items(forks, results) == items

    def test_cost_starts_the_costliest_items_first(self, forks):
        items = [1, 4, 0, 3]
        results = fork_map(nap_then_report, items, cost=lambda item: item)
        assert [item for item, _ in results] == items
        assert started_items(forks, results) == [4, 3, 1, 0]

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_never_more_live_children_than_cpus(self, forks, usable_cpus, n_cpus):
        usable_cpus(n_cpus)
        items = [3, 0, 2, 1, 3, 0, 2]
        assert [item for item, _ in fork_map(nap_then_report, items)] == items
        assert forks["peak"] == n_cpus
        assert forks["live"] == 0
        assert len(forks["started"]) == len(items)

    def test_child_exception_keeps_type_message_and_traceback(self, forks):
        with pytest.raises(ValueError, match="^bad item 2$") as info:
            fork_map(fail_on(2), [0, 1, 2, 3])
        cause = info.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "fork_map child for item 2" in str(cause)
        assert "Traceback" in str(cause) and "in fn" in str(cause)

    def test_label_names_the_child(self, forks):
        with pytest.raises(ValueError) as info:
            fork_map(fail_on("b"), ["a", "b"], label=lambda item: f"child for {item!r}")
        assert "in the child for 'b':" in str(info.value.__cause__)

    def test_first_failing_item_wins(self, forks):
        # item 3 fails first in time, item 1 first in item order
        slow, fast = fail_on(1, nap=1.0), fail_on(3)
        with pytest.raises(ValueError, match="bad item 1"):
            fork_map(lambda item: slow(item) if item == 1 else fast(item), [0, 1, 2, 3])
        assert len(forks["started"]) == 4

    def test_no_item_after_a_failure_is_started(self, forks):
        fn = fail_on(1)
        with pytest.raises(ValueError, match="bad item 1"):
            fork_map(lambda item: time.sleep(1.0) if item == 0 else fn(item), [0, 1, 2, 3])
        assert len(forks["started"]) == 2

    def test_child_exiting_without_reply_is_reported(self, forks):
        with pytest.raises(RuntimeError, match=r"^fork_map child for item 1 exited without "
                                               r"a reply \(exit status 3\)$"):
            fork_map(lambda item: os._exit(3) if item == 1 else item, [0, 1, 2])

    def test_unpicklable_result_is_reported(self, forks):
        with pytest.raises(RuntimeError, match=r"item 0 exited without a reply "
                                               r"\(exit status 1\)"):
            fork_map(lambda item: lambda: item, [0, 1])

    def test_fork_failing_every_other_time_runs_those_items_in_process(
            self, forks, monkeypatch):
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
        assert [item for item, _ in results] == items
        in_process = [item for item, pid in results if pid == os.getpid()]
        assert in_process == [0, 1]
        assert len(forks["started"]) == 3 and len(calls) == 5

    def test_fork_always_failing_runs_everything_in_process(self, forks, monkeypatch):
        def fork_fails():
            raise OSError(errno.ENOMEM, "Cannot allocate memory")

        monkeypatch.setattr(os, "fork", fork_fails)
        assert fork_map(nap_then_report, [2, 0, 1]) == [(2, os.getpid()), (0, os.getpid()),
                                                        (1, os.getpid())]

    @pytest.mark.parametrize("where", ["in-process item", "waiting"])
    def test_parent_failure_kills_and_reaps_children(self, forks, usable_cpus, monkeypatch,
                                                     where):
        usable_cpus(3)
        wrapped = os.fork

        class ParentFailed(Exception):
            pass

        def sleep_long(item):
            if os.getpid() == parent:
                raise ParentFailed(f"item {item} failed in the parent")
            time.sleep(60)

        def third_fork_fails():
            if len(forks["started"]) == 2:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return wrapped()

        def select_fails(*args):
            raise ParentFailed("interrupted while waiting")

        parent = os.getpid()
        if where == "in-process item":
            monkeypatch.setattr(os, "fork", third_fork_fails)
        else:
            monkeypatch.setattr(select, "select", select_fails)
        t0 = time.perf_counter()
        with pytest.raises(ParentFailed):
            fork_map(sleep_long, [0, 1, 2])
        assert time.perf_counter() - t0 < 30
        assert len(forks["started"]) == (2 if where == "in-process item" else 3)
        assert forks["live"] == 0

    def test_one_cpu_one_item_or_no_fork_runs_in_process(self, usable_cpus, monkeypatch):
        def no_fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", no_fork)
        usable_cpus(1)
        assert fork_map(nap_then_report, [1, 0]) == [(1, os.getpid()), (0, os.getpid())]
        usable_cpus(2)
        assert fork_map(nap_then_report, [1]) == [(1, os.getpid())]
        monkeypatch.delattr(os, "fork")
        assert fork_map(nap_then_report, [1, 0]) == [(1, os.getpid()), (0, os.getpid())]
        assert fork_map(nap_then_report, []) == []
