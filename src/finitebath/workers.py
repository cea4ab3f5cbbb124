"""numpy's BLAS and LAPACK through ctypes, and the program's worker threads and processes.

Start-up.  dlasd4 is bound through ctypes from numpy's own BLAS library,
which exports LAPACK too, so a run loads one OpenBLAS and no scipy:
importing scipy.linalg star-imports numpy through scipy's array-API
layer, which loads numpy.f2py, numpy.testing, numpy.ma and numpy.random
(116 of the 160 ms and 19 MB of the peak memory of importing the command
line module), and even scipy's compiled LAPACK wrapper alone maps a
second OpenBLAS (2.2 MB).  The library is opened once, through numpy's
core extension, which links it; the BLAS thread count and config are
looked up there too.  The command line runs with numpy's BLAS on one
thread and restores the count it found (blas_on_one_thread), since a
multithreaded BLAS rounds a product by how it splits it.

Threads.  Unlike scipy's f2py wrapper, a ctypes call releases the GIL,
so the secular roots, and Loewner's products and the pass over the mode
shapes below propagator.FAR_FIELD_ROOTS roots, whose numpy operations
release it too, run on worker threads:
one per ROOTS_PER_WORKER roots and at most one per CPU the process may
run on (threads_for), each taking a contiguous range of the work
(in_ranges).  Smaller systems stay on the calling thread.  in_ranges is
the one place the program starts threads: plain threads started per
call, one per range, the calling thread running the first, each in a
copy of the caller's context (so np.errstate holds there too), all
joined before the call returns.

Processes.  in_processes is the one place the program starts processes:
children forked per call, on Linux and while no other Python thread is
alive (may_fork), the calling process one of the workers, all reaped
before the call returns.  A sweep (experiments._sweep) runs its points
on it, one process per CPU (processes_for): on threads the GIL held two
points to 1.2-1.35 times one.  In every worker, as on a range's thread,
threads_for gives every call one thread (point_thread), so the CPUs are
shared out once per run, and only a run of a single point threads
inside it.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os
import pickle
import sys
import threading
import warnings

import numpy as np

# numpy's core extension, which links numpy's BLAS library: both loaders
# look their routines up through it
_numpy_core = ctypes.CDLL(np._core._multiarray_umath.__file__)


def _load_dlasd4():
    """LAPACK's dlasd4 from numpy's BLAS library, through ctypes, and its integer type.

    scipy_dlasd4_64_ in numpy's scipy-openblas wheels and dlasd4_64_
    elsewhere take 64-bit integers, scipy_dlasd4_ and dlasd4_ 32-bit
    ones.  Every argument is passed by address, as Fortran takes it.
    """
    for name, integer in (("scipy_dlasd4_64_", ctypes.c_int64), ("dlasd4_64_", ctypes.c_int64),
                          ("scipy_dlasd4_", ctypes.c_int32), ("dlasd4_", ctypes.c_int32)):
        routine = getattr(_numpy_core, name, None)
        if routine is not None:
            # n, i, d, z, delta, rho, sigma, work, info
            routine.argtypes = [ctypes.c_void_p] * 9
            routine.restype = None
            return routine, integer
    raise ImportError(f"{_numpy_core._name} exports none of scipy_dlasd4_64_, dlasd4_64_, "
                      "scipy_dlasd4_ and dlasd4_")


# the integer type of n, i and info travels with the routine
dlasd4, dlasd4_int = _load_dlasd4()


def _load_blas():
    """The thread count getter and setter and the config string of numpy's BLAS, through ctypes.

    OpenBLAS's openblas_get_num_threads, openblas_set_num_threads and
    openblas_get_config, under the names numpy's builds give them, or
    MKL's MKL_Get_Max_Threads and MKL_Set_Num_Threads.  None for each
    one that is not found.
    """
    for get, put, config in (("scipy_openblas_get_num_threads64_",
                              "scipy_openblas_set_num_threads64_", "scipy_openblas_get_config64_"),
                             ("openblas_get_num_threads64_", "openblas_set_num_threads64_",
                              "openblas_get_config64_"),
                             ("openblas_get_num_threads", "openblas_set_num_threads",
                              "openblas_get_config"),
                             ("MKL_Get_Max_Threads", "MKL_Set_Num_Threads", None)):
        getter = getattr(_numpy_core, get, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter = getattr(_numpy_core, put, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
            describe = config and getattr(_numpy_core, config, None)
            if describe is not None:
                describe.argtypes, describe.restype = [], ctypes.c_char_p
            return getter, setter, describe
    return None, None, None


blas_threads, _set_blas_threads, _blas_config = _load_blas()


def blas_config() -> str | None:
    """The build and core numpy's BLAS reports (OpenBLAS's get_config), None where not found.

    That library does the BLAS products and supplies dlasd4 as well.
    """
    return None if _blas_config is None else _blas_config().decode(errors="replace")


# (count found, count used) of numpy's BLAS threads inside blas_on_one_thread
_blas_counts = contextvars.ContextVar("blas_counts", default=None)


@contextlib.contextmanager
def blas_on_one_thread():
    """Run the block with numpy's BLAS on one thread, then restore the count found.

    A multithreaded BLAS rounds a product by how it splits it among its
    threads, and its threads compete with the program's own (the point
    workers of a sweep, the secular roots' ranges).  Where no setter is
    found the count stays as it is (blas_counts).
    """
    found = None if blas_threads is None else blas_threads()
    used = None if _set_blas_threads is None or found is None else 1
    if used is not None:
        _set_blas_threads(used)
    token = _blas_counts.set((found, used))
    try:
        yield
    finally:
        _blas_counts.reset(token)
        if used is not None:
            _set_blas_threads(found)


def blas_counts():
    """(found, used): numpy's BLAS threads before blas_on_one_thread and inside it.

    used is None where no setter is found, found where no getter is.
    Outside blas_on_one_thread both are the count in effect.
    """
    counts = _blas_counts.get()
    if counts is None:
        now = None if blas_threads is None else blas_threads()
        counts = (now, now)
    return counts


# secular roots (or Loewner arms) per worker thread.  A worker pays a
# thread start and GIL hand-offs of a few microseconds per root, which the
# root work it takes over must outweigh.  On 2 CPUs (in-process medians,
# roots plus arms) two threads broke even at N = 400, 2.0 ms either way,
# and won from N = 600 on: 4.1 against 2.7 ms, and 0.135 against 0.071 s
# at N = 4000.  So N = 400 stays on the calling thread and N = 600 splits
ROOTS_PER_WORKER = 300


def usable_cpus() -> int:
    """The CPUs the process may run on, where the platform says (sched_getaffinity), else all."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


# True on the threads of an in_ranges call with several, and in every
# worker of an in_processes call with several (a sweep's points, which
# already take every CPU): a call there keeps its work on its own thread.
# Threads run in a copy of the caller's context, and a forked child
# inherits it, so it reaches every nested call
point_thread = contextvars.ContextVar("point_thread", default=False)


def threads_for(n) -> int:
    """Worker threads for n independent roots: one per ROOTS_PER_WORKER roots, at most one per CPU.

    One inside a worker (point_thread).
    """
    if point_thread.get():
        return 1
    return max(1, min(usable_cpus(), n // ROOTS_PER_WORKER))


def in_ranges(task, n, workers) -> None:
    """task(lo, hi) on each of `workers` contiguous ranges that split range(n), one thread each.

    The calling thread runs range 0, and every range whose thread cannot
    start (RuntimeError, as at a limit on threads or processes).  Each
    range runs in a copy of the caller's context, so the caller's numpy
    error state (np.errstate, a context variable) holds there too; when
    there are several, each sets point_thread, so that a task does not
    thread inside itself.  All threads are joined before this returns,
    also when the calling thread is interrupted, and the exception of
    the lowest range is raised, the one a loop in order would have raised.
    """
    bounds = [n * j // workers for j in range(workers + 1)]
    errors = {}

    def run(j):
        if workers > 1:
            point_thread.set(True)
        try:
            task(bounds[j], bounds[j + 1])
        except BaseException as exc:    # raised below, on the calling thread
            errors[j] = exc

    threads, mine = [], [0]
    try:
        for j in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, j))
            try:
                thread.start()
                threads.append(thread)
            except RuntimeError:
                mine.append(j)
        for j in mine:
            contextvars.copy_context().run(run, j)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def may_fork() -> bool:
    """Whether in_processes may fork: on Linux, outside a worker, with no other Python thread alive.

    A forked child holds only the thread that forked, so a lock another
    Python thread held at the fork stays locked in the child for good.
    """
    return (sys.platform.startswith("linux") and not point_thread.get()
            and threading.active_count() == 1)


def processes_for(n) -> int:
    """Worker processes for n independent items: one per CPU, at most n, one where may_fork is False."""
    return min(usable_cpus(), n) if may_fork() else 1


def _traceback(exc) -> str:
    """exc's traceback as the interpreter prints it, to cross a process boundary as text."""
    import traceback

    return "".join(traceback.format_exception(exc))


def _send(fd, message):
    """Write one message to the pipe fd: its pickle's length in 8 bytes, then the pickle."""
    data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[os.write(fd, view):]


def in_processes(task, items, workers) -> list:
    """[task(item) for item in items], on `workers` processes that take the items in turn.

    The calling process is one of them, and workers - 1 children forked
    for the call (only where may_fork) are the others; one worker runs
    the items in order on the calling thread.  The next index travels
    between the workers through a pipe that holds it alone: a worker
    reads it, writes back the one after it and runs that item, so no
    split is fixed in advance and any number of items fits the pipe.  A
    fork that fails leaves its share to the others.  Every worker sets
    point_thread, so that an item does not thread inside itself, and
    records the warnings each item raises; a child sends its results,
    warnings and exceptions back pickled, with the indices it took, and
    ends through os._exit (no atexit handler, no flush of the stdio
    buffers it inherited).  The warnings are issued again on the caller,
    in item order, with their category, message, file and line.  Once an
    item raises, no worker takes another, and the exception of the lowest
    index is raised when all have stopped, the one a loop in order would
    have raised: on a child any exception, KeyboardInterrupt and
    MemoryError included, with the child's traceback as its cause; on the
    caller any Exception, while an interrupt there ends the call at once.
    A child that ends without reporting (a signal, the OOM killer) is a
    ChildProcessError naming the signal and the items it lost.  Every
    child is reaped before this returns or raises, and killed first if
    the call raises.
    """
    if workers <= 1:
        return [task(item) for item in items]
    import select
    import signal

    n = len(items)
    results, errors, records = [None] * n, {}, {}
    children = {}       # result pipe -> (pid, indices taken and not returned, unread bytes)
    baton_r, baton_w = os.pipe()
    os.set_blocking(baton_r, False)     # a worker that finds it taken waits in poll
    os.write(baton_w, bytes(8))         # index 0
    poller = select.poll()

    def receive(fd):
        """Take in what the child on pipe fd sent; at its end, reap it and check how it ended."""
        pid, taken, unread = children[fd]
        chunk = os.read(fd, 1 << 16)
        if chunk:
            unread += chunk
            while len(unread) >= 8:
                size = 8 + int.from_bytes(unread[:8], "little")
                if len(unread) < size:
                    break
                i, outcome = pickle.loads(unread[8:size])
                del unread[:size]
                if outcome is None:
                    taken.add(i)
                    continue
                taken.discard(i)
                results[i], error, records[i] = outcome
                if error is not None:
                    errors[i], text = error
                    errors[i].__cause__ = ChildProcessError(text)
            return
        poller.unregister(fd)
        os.close(fd)
        del children[fd]
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            how = (f"exited with status {code}" if code > 0 else
                   f"was killed by signal {-code} ({signal.strsignal(-code)})")
            raise ChildProcessError(f"a worker process {how} before it returned "
                                    f"{[items[i] for i in sorted(taken)]}")

    def wait():
        """Block until the index or a child's pipe is ready, and take in what the children sent."""
        for fd, _ in poller.poll():
            if fd in children:
                receive(fd)

    def take(stop=False):
        """The next index, None once every one is taken; stop takes none and ends the taking."""
        while True:
            try:
                i = int.from_bytes(os.read(baton_r, 8), "little")
            except BlockingIOError:
                wait()
                continue
            os.write(baton_w, (n if stop else min(i + 1, n)).to_bytes(8, "little"))
            return None if stop or i >= n else i

    def run(i, catch):
        """task(items[i]) and its warnings: (result, exception or None, warnings)."""
        with warnings.catch_warnings(record=True) as caught:
            try:
                result, error = task(items[i]), None
            except catch as exc:
                result, error = None, exc
        return result, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]

    def child(fd):
        """Run items until none is left, each one's outcome sent back on fd; never returns."""
        code = 1
        try:
            for other in children:          # the earlier children's pipes
                os.close(other)
                poller.unregister(other)
            children.clear()
            for i in iter(take, None):
                _send(fd, (i, None))
                result, error, caught = run(i, BaseException)
                if error is not None:
                    take(stop=True)
                    error = (error, _traceback(error))
                try:
                    _send(fd, (i, (result, error, caught)))
                except Exception as exc:    # an outcome that does not pickle
                    take(stop=True)
                    _send(fd, (i, (None, (exc, _traceback(exc)), [])))
            code = 0
        finally:
            os._exit(code)

    token = point_thread.set(True)
    try:
        poller.register(baton_r, select.POLLIN)
        for _ in range(1, workers):
            fd, child_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns that forking a process with other OS
                    # threads may deadlock the child.  Here those are OpenBLAS's
                    # pool, which stops its threads around a fork (pthread_atfork)
                    warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(fd)
                os.close(child_fd)
                break
            if pid == 0:
                os.close(fd)
                child(child_fd)
            os.close(child_fd)
            children[fd] = (pid, set(), bytearray())
            poller.register(fd, select.POLLIN)
        for i in iter(take, None):
            results[i], error, records[i] = run(i, Exception)
            if error is not None:
                errors[i] = error
                take(stop=True)
        poller.unregister(baton_r)      # it holds n from here on: always readable
        while children:
            wait()
    except BaseException:
        for pid, _, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        point_thread.reset(token)
        for fd, (pid, _, _) in children.items():
            os.close(fd)
            os.waitpid(pid, 0)
        os.close(baton_r)
        os.close(baton_w)
    registry = {}       # a "default" warning is shown once per call, as in one process
    for i in sorted(records):
        for message, category, filename, lineno in records[i]:
            warnings.warn_explicit(message, category, filename, lineno, registry=registry)
    if errors:
        raise errors[min(errors)]
    return results
