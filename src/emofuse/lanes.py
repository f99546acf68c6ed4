"""A second lane: a FIFO helper thread, and a forked worker process for training.

NumPy releases the GIL in its loops and BLAS calls, so the helper thread keeps a
second core busy with work whose bits do not depend on the thread: evaluation's
encoder stacks. Training spends much of its time in Python itself (graph building,
``backward``'s loop), which a thread cannot overlap, so a training function forks
one ``Worker`` process instead, linked to it by a pipe and by turns (``Link``).
Two lanes run with at least 2 CPUs and a BLAS pinned to one thread by the
environment (a BLAS thread pool would not survive the fork); with one lane ``share``
is a plain loop and no worker is forked, in the same functions."""

import collections
import contextvars
import ctypes
import mmap
import multiprocessing
import os
import pickle
import signal
from concurrent import futures

import numpy as np

from .errors import EmofuseError


def _blas_pinned() -> bool:
    """Whether the first positive thread count the BLAS reads from the environment is 1."""
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    names = ("MKL", "OMP") if "mkl" in str(deps.get("blas")) else ("OPENBLAS", "GOTO", "OMP")
    counts = [os.environ.get(f"{name}_NUM_THREADS", "").strip() for name in names]
    return next((c for c in counts if c.isdigit() and int(c) > 0), None) == "1"


_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# The helper thread, or None for one lane; chosen once, at import.
helper = futures.ThreadPoolExecutor(1, "emofuse-helper") if _CPUS >= 2 and _blas_pinned() else None


def share(fn, items: list) -> list:
    """``[fn(item) for item in items]``. With two lanes, this thread and the helper each
    take the next unclaimed item until none are left, the helper in the caller's context
    (``np.errstate`` included). After an error nothing more is claimed, and the error
    propagates once the helper's current item has finished."""
    if helper is None:
        return [fn(item) for item in items]
    results = [None] * len(items)
    claims = iter(range(len(items)))  # next() on it is atomic under the GIL

    def drain():
        try:
            for i in claims:
                results[i] = fn(items[i])
        finally:
            list(claims)  # after an error, leave nothing to claim

    helping = helper.submit(contextvars.copy_context().run, drain)
    try:
        drain()
    finally:
        futures.wait([helping])
    helping.result()
    return results


def shared(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Zeroed float64 arrays of ``shapes`` in one anonymous shared mapping: after a
    fork, this process and the worker each see the other's writes to them in place."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.frombuffer(mmap.mmap(-1, 8 * max(1, sum(sizes))), np.float64)
    offsets = np.cumsum([0] + sizes)
    return [flat[lo:hi].reshape(shape) for lo, hi, shape in zip(offsets, offsets[1:], shapes)]


def release_freed() -> None:
    """Hand the free pages of the C heap back to the system (glibc's ``malloc_trim``),
    so the arrays a move into ``shared`` views left behind do not count as resident."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
        trim(0)


def _sendable(err: Exception) -> Exception:
    """``err`` if it survives pickling, else an EmofuseError with its class and message."""
    try:
        pickle.loads(pickle.dumps(err))
        return err
    except Exception:
        return EmofuseError(f"{type(err).__name__}: {err}")


# How often a lane waiting for a turn looks at the pipe for an error or a lost lane.
_WAKE_S = 0.1


class Link:
    """One lane's end of its link to the other: tuples over a pipe, and turns.

    A turn is a unit the other lane gives (``give``) and this lane takes, in the
    order given (``try_take``, ``take``); each direction is counted by a semaphore
    both lanes share, which orders memory: what a lane wrote before a ``give`` is
    seen by the other after the matching take. ``recv`` returns the messages in the
    order sent, and raises an error the other lane sent back with its class and
    message.
    """

    def __init__(self, conn, mine, theirs):
        self._conn, self._mine, self._theirs = conn, mine, theirs
        self._early = collections.deque()  # messages read while waiting for a turn

    def send(self, *message) -> None:
        self._conn.send(message)

    def recv(self) -> tuple:
        return self._early.popleft() if self._early else self._read()

    def _read(self) -> tuple:
        message = self._conn.recv()
        if message[0] == "error":
            raise message[1]
        return message

    def give(self) -> None:
        self._theirs.release()

    def try_take(self) -> bool:
        """Take the next turn if it has been given; never waits."""
        return self._mine.acquire(False)

    def take(self) -> None:
        """Wait, blocked, for the next turn. An error the other lane sends meanwhile, or
        its end closing, raises here; any other message is kept for ``recv``."""
        while not self._mine.acquire(timeout=_WAKE_S):
            while self._conn.poll():
                self._early.append(self._read())


def _serve(link: Link, handle):
    """The worker's life: ``handle(message, link)`` for each message until the parent
    closes its end. An error is sent back in place of the handler's next message.

    It ends in ``os._exit``, whatever happens: nothing unwinds into the frames it
    shares with the parent, and no atexit handler or buffered output of the parent's
    runs twice."""
    global helper
    helper = None  # its thread did not survive the fork
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles an interrupt and ends this
    code = 1
    try:
        while True:
            message = link.recv()
            try:
                handle(message, link)
            except (EOFError, BrokenPipeError, ConnectionResetError):
                raise
            except Exception as err:
                link.send("error", _sendable(err))
    except (EOFError, BrokenPipeError, ConnectionResetError):  # the parent is done or gone
        code = 0
    finally:
        os._exit(code)


class Worker(Link):
    """A forked copy of this process that runs ``handle(message, link)`` for each
    message sent to it, ``link`` being its end of the ``Link``.

    Only what was mapped with ``shared`` before the fork is shared; everything else is
    the worker's own copy. A worker that is gone is an EmofuseError naming it, from
    ``send``, ``recv`` or ``take``. ``close`` ends and reaps it. Create one only while
    the helper thread is idle: the fork copies no thread but the caller's, and a lock
    another thread held would stay held in the copy.
    """

    def __init__(self, handle):
        context = multiprocessing.get_context("fork")
        conn, theirs = context.Pipe()
        turns = context.Semaphore(0), context.Semaphore(0)
        super().__init__(conn, *turns)
        self._status = None
        try:
            self.pid = os.fork()
        except OSError as err:
            conn.close()
            theirs.close()
            raise EmofuseError(f"cannot start a training worker process: {err}") from None
        if self.pid == 0:
            conn.close()
            _serve(Link(theirs, *reversed(turns)), handle)
        theirs.close()

    def send(self, *message) -> None:
        try:
            super().send(*message)
        except (BrokenPipeError, ConnectionResetError):
            raise self._lost() from None

    def _read(self) -> tuple:
        try:
            return super()._read()
        except (EOFError, ConnectionResetError):
            raise self._lost() from None

    def close(self, kill: bool = False) -> None:
        """End the worker: it exits when its pipe closes, or at once with ``kill``; reap it."""
        self._conn.close()
        if kill and self._status is None:
            os.kill(self.pid, signal.SIGKILL)
        self._reap()

    def _reap(self) -> int:
        if self._status is None:
            self._status = os.waitpid(self.pid, 0)[1]
        return self._status

    def _lost(self) -> EmofuseError:
        status = self._reap()
        how = (f"was killed by signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
               else f"exited with status {os.WEXITSTATUS(status)}")
        return EmofuseError(f"training worker process {self.pid} {how}")
