"""The /proc/<pid>/schedstat window reader behind ``repro scale``."""

from __future__ import annotations

import os
import time

import pytest

from repro.obs import resources
from repro.obs.resources import cpu_clocks, read_window, schedstat, window_digest

pytestmark = [
    pytest.mark.linux,
    pytest.mark.skipif(
        schedstat(os.getpid()) is None, reason="no /proc/<pid>/schedstat"
    ),
]


def _spin_cpu(seconds: float) -> None:
    # CPU time, not wall time: a contended host still yields the full spin
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def _window_of(body):
    """Digest of a forked child that runs ``body`` between two reads.

    The child reports ready, runs ``body`` on the parent's signal, then
    stays alive until the parent has taken its second read.
    """
    go_r, go_w = os.pipe()
    done_r, done_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(done_w, b"r")
            os.read(go_r, 1)
            body()
            os.write(done_w, b"d")
            os.read(go_r, 1)
        finally:
            os._exit(0)
    try:
        os.read(done_r, 1)
        before = read_window([pid])
        os.write(go_w, b"g")
        os.read(done_r, 1)
        after = read_window([pid])
    finally:
        os.write(go_w, b"x")
        os.waitpid(pid, 0)
        for fd in (go_r, go_w, done_r, done_w):
            os.close(fd)
    return window_digest(before, after)


class TestWindowRead:
    def test_spinning_child_reads_its_cpu_time(self):
        digest = _window_of(lambda: _spin_cpu(0.05))
        assert digest["worker_cpu_s"][0] >= 0.03
        assert digest["worker_run_delay_s"][0] >= 0.0

    def test_sleeping_child_reads_almost_none(self):
        digest = _window_of(lambda: time.sleep(0.05))
        assert digest["worker_cpu_s"][0] < 0.005

    def test_pid_that_exits_between_reads_is_skipped(self):
        go_r, go_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.read(go_r, 1)
            finally:
                os._exit(0)
        before = read_window([pid, os.getpid()])
        os.write(go_w, b"g")
        os.waitpid(pid, 0)
        os.close(go_r)
        os.close(go_w)
        after = read_window([pid, os.getpid()])
        assert pid in before and pid not in after
        digest = window_digest(before, after)
        assert len(digest["worker_cpu_s"]) == 1
        assert len(digest["worker_run_delay_s"]) == 1

    def test_unreadable_proc_yields_empty_digest(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("permission denied")

        monkeypatch.setattr(resources, "open", refuse, raising=False)
        assert schedstat(os.getpid()) is None
        assert read_window([os.getpid()]) == {}
        assert window_digest({}, {}) == {}


class TestCpuClocks:
    def test_a_running_child_reads_current_cpu_time(self):
        """A spinning child's clock advances with its spin, read while it
        still runs; once reaped it is left out."""
        pid = os.fork()
        if pid == 0:
            try:
                _spin_cpu(0.3)
            finally:
                os._exit(0)
        try:
            first = cpu_clocks([pid])[pid]
            time.sleep(0.1)
            second = cpu_clocks([pid])[pid]
        finally:
            os.waitpid(pid, 0)
        assert 0.0 <= first < second
        assert cpu_clocks([pid]) == {}

    def test_the_caller_reads_its_thread_clock(self):
        import threading

        tid = threading.get_native_id()
        before = cpu_clocks([], caller=True)[tid]
        _spin_cpu(0.02)
        assert cpu_clocks([], caller=True)[tid] - before >= 0.015
