"""Worker processes: results in item order, forks that fail, and when a process may fork."""

import os
import sys
import threading

import pytest

from finitebath import workers


def _no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_processes_take_twenty_thousand_items_in_turn():
    """More items than a pipe holds indices: every result comes back in order, from several workers."""
    got = workers.in_processes(lambda i: (i, os.getpid()), range(20_000), 3)
    assert [i for i, _ in got] == list(range(20_000))
    assert len({pid for _, pid in got}) > 1
    _no_child_remains()


def test_a_fork_that_fails_leaves_its_share_to_the_others(monkeypatch):
    def refuse():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    assert workers.in_processes(lambda i: (i, os.getpid()), range(5), 3) == [
        (i, os.getpid()) for i in range(5)]


def test_only_a_lone_thread_on_linux_may_fork(monkeypatch):
    """fork copies only its own thread, so another Python thread keeps the points in order."""
    assert workers.may_fork() == sys.platform.startswith("linux")
    monkeypatch.setattr(sys, "platform", "linux")
    assert workers.may_fork()
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(10.0,))
    other.start()
    try:
        assert not workers.may_fork()
    finally:
        release.set()
        other.join(timeout=10.0)
    assert not other.is_alive()
    monkeypatch.setattr(sys, "platform", "darwin")
    assert not workers.may_fork()
