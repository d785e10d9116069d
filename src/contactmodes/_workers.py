"""Fan independent work out over forked worker processes.

Only ``os.fork``, ``os.pipe`` and ``pickle`` are used: importing
``multiprocessing`` and its pool takes 17-24 ms and 1.6 MB RSS on a
2-core machine.  The caller is one of the workers; every other worker
is a forked child that pickles its result into a pipe and ends in
``os._exit``.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import warnings


def usable_cpus() -> int:
    """CPUs this process may run on, and so the most workers
    :func:`fan_out` uses; 1 where ``os.fork`` is missing or not
    fork-safe, which is anywhere but Linux."""
    if sys.platform != "linux":
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(costs, n: int) -> list[list[int]]:
    # longest processing time first: each task, by decreasing cost, goes
    # to the least loaded worker (the lowest index on ties); each share
    # lists its task indices in increasing order
    loads = [0] * n
    shares = [[] for _ in range(n)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        w = loads.index(min(loads))
        shares[w].append(i)
        loads[w] += costs[i]
    return [sorted(share) for share in shares]


def _child(work, share, read: int, write: int):
    # runs in the forked child and never returns.  A share that raised or
    # warned sends nothing and exits 1, so the caller runs it again and
    # the exception or warning is the caller's own
    code = 1
    try:
        os.close(read)
        with warnings.catch_warnings(record=True) as caught:
            result = work(share)
        if not caught:
            # the write end stays open until the exit, so the caller's
            # end-of-file means this process has exited
            with open(write, "wb", closefd=False) as pipe:
                pipe.write(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
            code = 0
    finally:
        os._exit(code)


def fan_out(work, tasks, costs) -> list:
    """Run ``work`` over the list ``tasks`` on min(:func:`usable_cpus`,
    tasks) workers and return its results, one per worker share.

    The tasks are split by longest processing time first on ``costs``
    (one per task), and ``work`` gets each share as a list of tasks in
    task order.  The caller runs the first share itself while forked
    children run the others.  A share that raised in the caller or that
    raised or warned in a child, and the share of a child that could not
    be forked or died, are then run again in the caller, all in one list
    in task order: the exception that call raises is the one the caller
    would raise running every task in order, provided ``work`` stops at
    its first failing task, and a child's warnings become the caller's.
    Every child is killed and reaped before this returns or raises.
    """
    if not tasks:
        return []
    shares = _shares(costs, min(usable_cpus(), len(tasks)))

    def run(share):
        return work([tasks[i] for i in share])

    children = {}  # pid: (read end, share)
    results, failed, data, status = [], [], {}, {}
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the caller runs the share
                os.close(read)
                os.close(write)
                failed += share
                continue
            if pid == 0:
                _child(run, share, read, write)
            children[pid] = read, share
            os.close(write)
        try:
            results.append(run(shares[0]))
        except Exception:  # run again below, with any failed share of lower tasks
            failed += shares[0]
        # every pipe is read to its end before its child is reaped, so no
        # child waits on a full pipe
        for pid, (read, _) in children.items():
            with open(read, "rb", closefd=False) as pipe:
                data[pid] = pipe.read()
    finally:
        for pid, (read, _) in children.items():
            os.kill(pid, signal.SIGKILL)
            status[pid] = os.waitpid(pid, 0)[1]
            os.close(read)
    for pid, (_, share) in children.items():
        if status[pid] == 0:
            results.append(pickle.loads(data[pid]))
        else:
            failed += share
    if failed:
        results.append(run(sorted(failed)))
    return results
