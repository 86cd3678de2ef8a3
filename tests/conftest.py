"""Fixtures for tests of train.run_fits's lanes: this process and the worker
processes it starts."""

import os
import subprocess

import pytest

from anodelab import train as trn


@pytest.fixture
def lanes(monkeypatch):
    """lanes(n) makes run_fits run n lanes (up to one per job), as on a host
    where this process may use n cores."""
    def force(n):
        monkeypatch.setattr(trn.os, "sched_getaffinity", lambda pid: set(range(n)))
    return force


@pytest.fixture
def one_lane(lanes):
    """Every fit runs in this process, where the test's monkeypatches reach."""
    lanes(1)


class Workers(list):
    """The worker processes started so far, in the order they started."""

    @staticmethod
    def assert_none_left():
        with pytest.raises(ChildProcessError):  # waitpid has no child to wait for
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def workers(monkeypatch):
    started = Workers()

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    return started
