"""Forked worker processes, each pinned to a CPU of its own, that answer
requests over a pipe while this process answers one more with the same
function.

Forking lets the workers start with everything the parent built, shared
mappings included, with nothing pickled: a caller that needs large arrays
back has the workers write them into a mapping it shared before the fork.
This needs fork and CPU affinity, that is Linux, and a process with no
other threads; `supported()` says whether all are there, and where they are
not a `Team` starts no worker, so its caller runs everything in its own
process.

Each process polls its pipe for up to `POLL_S` before it sleeps on it.  A
process that sleeps leaves its CPU idle, and on a virtual machine an idle
virtual CPU is handed back to the host, which may take milliseconds to run it
again once the answer arrives; training's many short exchanges would each pay
that delay, by an amount that depends on the host's load.
"""

from __future__ import annotations

import os
import signal
import time


POLL_S = 0.05  # how long a process polls its pipe before it sleeps on it


def _receive(conn):
    """`conn.recv()`, after polling for up to POLL_S, giving the CPU to
    any other runnable process between polls."""
    end = time.perf_counter() + POLL_S
    while not conn.poll(0) and time.perf_counter() < end:
        os.sched_yield()
    return conn.recv()


def usable_cpus() -> list[int]:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (a cpuset or `taskset` narrows it), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def single_threaded() -> bool:
    """Whether this process runs no thread but its own; False where Linux's
    /proc cannot tell."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def supported() -> bool:
    """Whether workers may be forked here: fork and CPU affinity exist, and
    this process is single-threaded.  A multi-threaded BLAS starts its
    threads when numpy loads, unless told to use one (say, by
    OPENBLAS_NUM_THREADS=1); forked workers would crowd its threads off the
    CPUs, and forking a multi-threaded process is unsafe in general."""
    return hasattr(os, "fork") and hasattr(os, "sched_setaffinity") and single_threaded()


class Team:
    """A context manager holding the forked workers that let `processes`
    processes, this one included, run at once: at most one process per usable
    CPU, and no worker where `supported()` says none may be forked.  Within
    it, this process runs on the first usable CPU and worker k on the
    (k + 2)-th; on exit the pipes close, the workers end and this process's
    affinity mask is restored.

    `run` is the one exchange with the workers: this process and each worker
    answer one request with `serve(request)`, whose result `run` returns; a
    worker that raises answers with the exception's type and message, which
    `run` raises.  A worker's result crosses the pipe pickled; one that cannot
    be pickled is answered with the exception that pickling raised.  A worker
    that stops without answering makes `run` raise ChildProcessError.  `size`
    is the number of workers; with 0 nothing is started."""

    def __init__(self, processes: int, serve):
        self.cpus = usable_cpus()
        processes = min(processes, len(self.cpus))
        self.size = processes - 1 if processes > 1 and supported() else 0
        self.serve = serve
        self.conns, self.procs = [], []
        self.mask = None

    def __enter__(self):
        if not self.size:
            return self
        import multiprocessing  # only a run with workers loads it

        context = multiprocessing.get_context("fork")
        try:
            for k in range(self.size):
                here, there = context.Pipe()
                self.conns.append(here)
                # the worker closes this process's ends of every pipe, its
                # own included: an end left open in a worker would keep
                # another worker from seeing the end of its pipe
                proc = context.Process(target=_serve, daemon=True, args=(
                    there, self.cpus[k + 1], self.serve, list(self.conns)))
                proc.start()
                self.procs.append(proc)
                there.close()
            self.mask = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpus[0]})
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            # an idle worker ends at the end of its pipe; one still busy
            # after a failure here has nothing worth waiting for
            proc.join(10.0 if exc_type is None else 0.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        if self.mask is not None:
            os.sched_setaffinity(0, self.mask)
        self.conns, self.procs, self.mask = [], [], None
        return False

    def run(self, requests) -> list:
        """The answers to `requests`, in order: worker k answers requests[k + 1],
        all sent first, while this process answers requests[0] with `serve`."""
        for k, request in enumerate(requests[1:]):
            try:
                self.conns[k].send(request)
            except OSError:
                self._stopped(k)
        answers = [self.serve(requests[0])]
        for k in range(len(requests) - 1):
            try:
                status, *reply = _receive(self.conns[k])
            except (EOFError, OSError):
                self._stopped(k)
            if status == "error":
                raise _rebuilt(*reply)
            answers.append(reply[0])
        return answers

    def _stopped(self, k: int):
        proc = self.procs[k]
        proc.join(1.0)
        raise ChildProcessError(f"worker process {k + 1} stopped unexpectedly "
                                f"(exit code {proc.exitcode})")


def _rebuilt(kind, message: str) -> BaseException:
    """A worker's exception of type `kind` as `kind(message)`, or, where that
    type takes more than a message (numpy's `_ArrayMemoryError` takes a
    shape and a dtype), as the nearest base class that takes a message."""
    for cls in kind.__mro__:
        try:
            return cls(message)
        except TypeError:
            continue


def _serve(conn, cpu: int, serve, inherited) -> None:
    """A worker's loop: answer requests until the pipe ends."""
    # Ctrl-C reaches the whole process group; the parent stops its workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    os.sched_setaffinity(0, {cpu})
    while True:
        try:
            request = _receive(conn)
        except EOFError:
            return
        try:
            reply = ("ok", serve(request))
        except Exception as exc:  # handed to the parent, which raises it
            reply = ("error", type(exc), str(exc))
        try:
            conn.send(reply)
        except OSError:  # the parent has stopped listening
            return
        except Exception as exc:  # the result cannot be pickled; nothing was sent
            conn.send(("error", type(exc), str(exc)))
