"""The fork helper's children end when the process that forked them dies."""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Each job's result is larger than a pipe's buffer, so a child whose send
# could wait for a reader would wait for ever once its parent is gone.
_KILLED_PARENT = textwrap.dedent("""
    import os, signal, sys, time
    from pathlib import Path
    from ganfuzz.forking import forked

    where = Path(sys.argv[1])

    def job():
        (where / str(os.getpid())).touch()
        time.sleep(0.5)
        return b"x" * 1_000_000

    with forked([job, job]) as results:
        while len(list(where.iterdir())) < min(2, len(os.sched_getaffinity(0))):
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
""")


def _running(pid: int) -> bool:
    """True while `pid` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_children_of_a_killed_parent_end_instead_of_blocking(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _KILLED_PARENT, str(tmp_path)],
                          env=env, stderr=subprocess.DEVNULL, timeout=60)
    assert proc.returncode == -signal.SIGKILL
    pids = [int(p.name) for p in tmp_path.iterdir()]
    try:
        deadline = time.monotonic() + 30
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pids and not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


# Every child and grandchild sleeps far longer than the test waits, so only
# the parent's death can end them in time.
_KILLED_PARENT_OF_SLEEPERS = textwrap.dedent("""
    import os, signal, sys, time
    from pathlib import Path
    from ganfuzz.forking import forked

    where = Path(sys.argv[1])
    n = min(2, len(os.sched_getaffinity(0)))

    def sleeper():
        (where / str(os.getpid())).touch()
        time.sleep(30)

    def outer():
        with forked([sleeper, sleeper]) as results:
            (where / str(os.getpid())).touch()
            list(results)

    with forked([outer, outer]) as results:
        while len(list(where.iterdir())) < n + n * n:
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux")
def test_nested_children_end_within_seconds_of_a_killed_parent(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _KILLED_PARENT_OF_SLEEPERS, str(tmp_path)],
                          env=env, stderr=subprocess.DEVNULL, timeout=60)
    killed = time.monotonic()
    assert proc.returncode == -signal.SIGKILL
    pids = [int(p.name) for p in tmp_path.iterdir()]
    try:
        while any(map(_running, pids)) and time.monotonic() < killed + 5:
            time.sleep(0.05)
        assert len(pids) >= 2 and not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
