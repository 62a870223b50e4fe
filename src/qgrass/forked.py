"""Run shards of work on this process and on forked workers.

`harness` imports this module only when a sweep forks, so a one-process run
and every other command never load it (nor `pickle` and `signal`).

The shard queue is a pipe of fixed-size shard indices, written before any
worker starts; every process pulls whole indices until the queue runs dry.
Each worker pickles {index: result} back through its own pipe and leaves
with os._exit, so it never returns into its parent's code.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from itertools import chain
from typing import Callable

_INDEX_BYTES = 4


def _fill_queue(queue_w: int, count: int) -> int:
    """Write shard indices 0, 1, ... into the queue until all `count` are in
    or the pipe is full; return how many went in."""
    os.set_blocking(queue_w, False)
    for shard in range(count):
        try:
            os.write(queue_w, shard.to_bytes(_INDEX_BYTES, "little"))
        except BlockingIOError:
            return shard
    return count


def _pull(queue_r: int):
    while item := os.read(queue_r, _INDEX_BYTES):
        yield int.from_bytes(item, "little")


def _end_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when its parent dies (Linux's
    parent-death signal), then leave at once if the parent died before that
    took hold."""
    if sys.platform.startswith("linux"):
        import ctypes

        pr_set_pdeathsig = 1
        ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _worker(shards, run, queue_r: int, out_w: int, inherited: list[int], parent: int):
    """Run the shards this worker pulls, pickle {index: result} to `out_w`
    and leave with os._exit.  It ends with `parent`: on Linux the kernel
    kills it when the parent dies; elsewhere, once orphaned, it runs no
    further shard."""
    status = 1
    try:
        _end_with_parent(parent)
        for fd in inherited:
            os.close(fd)
        done = {
            index: run(index)
            for shard in _pull(queue_r)
            if os.getppid() == parent
            for index in shards[shard]
        }
        with os.fdopen(out_w, "wb") as out:
            pickle.dump(done, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def run_shards(shards: list[list[int]], workers: int, run: Callable[[int], object]) -> tuple[dict, list[str]]:
    """run(index) for each index of each shard, on this process and on up to
    `workers` forked workers, all pulling shards from one queue in list
    order.  Returns {index: result} for every result that came back, and one
    line for each worker that exited without reporting ("worker exited with
    status 3"); the indices of its shards are missing from the results.

    Every worker is reaped before this returns or raises; on an exception or
    an interrupt here, the workers are killed first."""
    results: dict = {}
    pids: list[int] = []
    readers: list[int] = []  # this process's ends of the workers' result pipes
    reports: list[bytes] = []
    parent = os.getpid()
    queue_r, queue_w = os.pipe()
    fds = [queue_r, queue_w]  # every descriptor opened here and still open
    finished = False
    try:
        queued = _fill_queue(queue_w, len(shards))
        fds.remove(queue_w)
        os.close(queue_w)
        for _ in range(workers):
            out_r, out_w = os.pipe()
            fds += (out_r, out_w)
            try:
                pid = os.fork()
            except OSError:  # no process to spare: go on with the workers forked so far
                break
            if pid == 0:
                _worker(shards, run, queue_r, out_w, readers + [out_r], parent)
            pids.append(pid)
            readers.append(out_r)
            fds.remove(out_w)
            os.close(out_w)
        # The shards the queue could not hold are the last, so the smallest;
        # this process runs them once the queue is empty.
        for shard in chain(_pull(queue_r), range(queued, len(shards))):
            results.update((index, run(index)) for index in shards[shard])
        for out_r in readers:
            with os.fdopen(out_r, "rb") as out:
                fds.remove(out_r)
                reports.append(out.read())
        finished = True
    finally:
        for fd in fds:
            os.close(fd)
        codes = []
        for pid in pids:
            if not finished:
                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    lost = []
    for code, report in zip(codes, reports):
        if code == 0:
            results.update(pickle.loads(report))
        else:  # -N for a worker killed by signal N
            lost.append(f"worker exited with status {code}")
    return results, lost
