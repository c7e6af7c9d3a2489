"""Forked worker processes, each pinned to a CPU of its own, that answer
requests over a pipe and hand bulk float64 arrays back through a buffer they
share with the process that started them.

Forking lets the workers start with everything the parent built, shared
mappings included, with nothing pickled.  This needs fork, CPU affinity and
memfd, that is Linux, and a process with no other threads; `supported()`
says whether all are there, and where they are not a `Team` starts no
worker, so its caller runs everything in its own process.

Each process polls its pipe for up to `POLL_S` before it sleeps on it.  A
process that sleeps leaves its CPU idle, and on a virtual machine an idle
virtual CPU is handed back to the host, which may take milliseconds to run it
again once the answer arrives; training's many short exchanges would each pay
that delay, by an amount that depends on the host's load.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import time

import numpy as np


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
    """Whether workers may be forked here: fork, CPU affinity and memfd
    exist, and this process is single-threaded.  A multi-threaded BLAS
    starts its threads when numpy loads, unless told to use one (say, by
    OPENBLAS_NUM_THREADS=1); forked workers would crowd its threads off the
    CPUs, and forking a multi-threaded process is unsafe in general."""
    return (all(hasattr(os, name) for name in ("fork", "sched_setaffinity", "memfd_create"))
            and single_threaded())


class SharedBuffer:
    """A growable float64 array in a memfd.  Arrays that one process `store`s
    are read back with `array` by any other that holds the buffer, which it
    must have been made before the fork.  Only the pages written take memory."""

    def __init__(self):
        self.fd = os.memfd_create("zoneroute")
        self.used = 0  # doubles stored; a worker resets it before each request
        self._view = np.empty(0)

    def _mapped(self, doubles: int) -> np.ndarray:
        """This process's view of the buffer, at least `doubles` long."""
        if self._view.size < doubles:
            size = os.fstat(self.fd).st_size
            if size < 8 * doubles:
                size = -(-max(8 * doubles, 2 * size, 1 << 20) // mmap.PAGESIZE) * mmap.PAGESIZE
                os.ftruncate(self.fd, size)
            self._view = np.frombuffer(mmap.mmap(self.fd, size), dtype=np.float64)
        return self._view

    def store(self, arr) -> tuple:
        """Copy `arr` in after what is stored; returns the handle `array` takes."""
        arr = np.asarray(arr)
        start, self.used = self.used, self.used + arr.size
        self._mapped(self.used)[start:self.used].reshape(arr.shape)[...] = arr
        return start, arr.shape

    def array(self, handle) -> np.ndarray:
        """A view of the array that `store` returned `handle` for."""
        start, shape = handle
        size = math.prod(shape)
        return self._mapped(start + size)[start:start + size].reshape(shape)

    def close(self) -> None:
        os.close(self.fd)


class Team:
    """A context manager holding the forked workers that let `processes`
    processes, this one included, run at once: at most one process per usable
    CPU, and no worker where `supported()` says none may be forked.  Within
    it, this process runs on the first usable CPU and worker k on the
    (k + 2)-th; on exit the pipes close, the workers end and this process's
    affinity mask is restored.

    Worker k answers each request `send(k, request)` makes with
    `serve(request, buffers[k])`, which stores from the buffer's start and
    whose result `recv(k)` returns, or with the type and message of the
    exception it raised, which `recv(k)` raises.  A worker that stops
    without answering makes `recv` raise ChildProcessError.  `size` is the
    number of workers; with 0 nothing is started."""

    def __init__(self, processes: int, serve):
        self.cpus = usable_cpus()
        processes = min(processes, len(self.cpus))
        self.size = processes - 1 if processes > 1 and supported() else 0
        self.serve = serve
        self.conns, self.procs, self.buffers = [], [], []
        self.mask = None

    def __enter__(self):
        if not self.size:
            return self
        import multiprocessing  # only a run with workers loads it

        context = multiprocessing.get_context("fork")
        try:
            for k in range(self.size):
                self.buffers.append(SharedBuffer())
                here, there = context.Pipe()
                self.conns.append(here)
                # the worker closes this process's ends of every pipe, its
                # own included: an end left open in a worker would keep
                # another worker from seeing the end of its pipe
                proc = context.Process(target=_serve, daemon=True, args=(
                    there, self.cpus[k + 1], self.serve, self.buffers[k], list(self.conns)))
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
        for buffer in self.buffers:
            buffer.close()
        if self.mask is not None:
            os.sched_setaffinity(0, self.mask)
        self.conns, self.procs, self.buffers, self.mask = [], [], [], None
        return False

    def send(self, k: int, request) -> None:
        try:
            self.conns[k].send(request)
        except OSError:
            self._stopped(k)

    def recv(self, k: int):
        try:
            status, *reply = _receive(self.conns[k])
        except (EOFError, OSError):
            self._stopped(k)
        if status == "error":
            kind, message = reply
            raise kind(message)
        return reply[0]

    def _stopped(self, k: int):
        proc = self.procs[k]
        proc.join(1.0)
        raise ChildProcessError(f"worker process {k + 1} stopped unexpectedly "
                                f"(exit code {proc.exitcode})")


def _serve(conn, cpu: int, serve, buffer: SharedBuffer, inherited) -> None:
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
        buffer.used = 0  # each request stores from the buffer's start
        try:
            reply = ("ok", serve(request, buffer))
        except Exception as exc:  # handed to the parent, which raises it
            reply = ("error", type(exc), str(exc))
        try:
            conn.send(reply)
        except OSError:  # the parent has stopped listening
            return
