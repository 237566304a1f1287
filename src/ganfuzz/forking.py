"""Independent jobs in forked child processes, results back in job order.

`run_experiment` runs its phase-2 strategies through `forked`, and
`train_gan` its restarts; a strategy's child may therefore fork again.
Each block starts at most one child per usable CPU, so a GAN trained in a
phase-2 child adds up to `restarts - 1` processes to those of the outer
block.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
from contextlib import contextmanager
from typing import Callable, Iterator

_PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>


@contextmanager
def forked(jobs: list[Callable[[], object]]) -> Iterator[Iterator]:
    """Start each job in a forked child process, at most one child per
    usable CPU, and yield an iterator over their results in job order, which
    raises a job's exception. Where there is no fork, the iterator runs each
    job in this process when its result is asked for.

    The children inherit their jobs through fork, so a job need not pickle;
    its result or exception is pickled back. The package starts no threads
    of its own, and OpenBLAS shuts its thread pool down before a fork.
    Children are not daemonic, so a job may use `forked` itself. Leaving the
    block sends SIGTERM to every child still running and reaps it; a child
    turns SIGTERM into `SystemExit`, so its own `forked` block stops and
    reaps its children in turn before it ends. On Linux a child also gets
    SIGTERM when this process dies, even by SIGKILL: the signal follows the
    thread that forked the child, which is this block's own thread.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        yield (job() for job in jobs)
        return
    ctx = multiprocessing.get_context("fork")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(len(jobs), cpus or 1)
    children = []
    try:
        for c in range(n):
            receive, send = ctx.Pipe(duplex=False)
            reads = [r for _, r in children] + [receive]
            child = ctx.Process(target=_serve,
                                args=(jobs[c::n], send, reads, os.getpid()),
                                daemon=False)
            # SIGTERM waits until the child is listed here to be stopped,
            # and in the child until _serve handles it.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
            try:
                child.start()
                children.append((child, receive))
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            send.close()
        yield _receive(children, len(jobs))
    finally:
        for child, _ in children:
            if child.is_alive():
                child.terminate()
        for child, receive in children:
            child.join()
            receive.close()


def _serve(jobs: list[Callable[[], object]], send, reads, parent: int) -> None:
    """A forked child's work: send (True, result) for each job, in order, or
    (False, exception) for the first that raises and stop.

    SIGTERM raises `SystemExit`, which unwinds the jobs' own `forked`
    blocks. On Linux the parent's death sends it; a parent that died
    before it was asked for is caught by the `getppid` check. The child
    closes its copies of the block's read ends, so a send fails rather
    than blocks once the parent is gone."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if sys.platform.startswith("linux"):
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent:
        sys.exit(1)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    for read in reads:
        read.close()
    for job in jobs:
        try:
            outcome = (True, job())
        except Exception as exc:  # handed to the parent, which raises it
            outcome = (False, exc)
        # One that does not pickle raises here and ends the child, which the
        # parent reports as a child that ended without a result.
        send.send(outcome)
        if not outcome[0]:
            return


def _receive(children, count: int) -> Iterator:
    """Results of `count` jobs dealt round-robin to children, in job order."""
    for k in range(count):
        child, receive = children[k % len(children)]
        try:
            ok, value = receive.recv()
        except EOFError:
            child.join()
            raise RuntimeError(f"a forked job's process ended with exit code "
                               f"{child.exitcode} before sending its result") from None
        if not ok:
            raise value
        yield value
