"""Independent items computed side by side on the CPUs the process may use.

``map_items(fn, n)`` returns ``[fn(i) for i in range(n)]``. With ``cpus``
usable CPUs (``usable_cpus``) it cuts the items by residue (``_shares``):
the parent computes the items with ``i % cpus == 0`` itself, and one
forked helper per other residue computes its items in order and sends
their results, pickled down a pipe, before it leaves by ``os._exit``.
Residues rather than contiguous blocks spread items of unequal cost,
such as the cells of a sweep over two classifiers, evenly. The items
are the batches of ``synth.generate`` (up to 1,024 documents of one
class each), the cells of ``pipeline.sweep`` and the training runs of
``classifiers.train_many``: every ANN restart and every SVM or tree of
every fold of a cross-validation.

The parent then walks the items in order and computes every item no
helper sent: those of a helper whose fork failed (say with EAGAIN: out
of process ids) or that died or raised. An item that raises therefore
raises in the parent, and the first failing item in index order is the
one whose exception comes out, as in a serial run; but by then helpers
may have finished items past it, so a failed call can leave more side
effects (written files) than a serial one. No helper outlives the call:
each is killed and reaped on return and on raise.

A call made while another one runs, in the parent or in one of its
helpers, runs serially, so no more than ``cpus - 1`` helpers are ever
alive. That flag is module state because the nested call (the folds
of a cross-validation inside a sweep cell, say) cannot be handed it. A
fork copies only the calling thread, so a process with other OS threads
(an unpinned BLAS pool, say) never forks, and neither does one without
``os.fork`` or without ``/proc/self/task`` to count its threads in:
they compute every item in the parent.
"""

import os
import pickle
import signal

_running = False   # a map_items call is under way in this process


def usable_cpus() -> int:
    """CPUs ``map_items`` may spread over (module docstring): 1 unless the
    process may fork and runs no other OS thread."""
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = 0
    if threads != 1 or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _shares(n: int, cpus: int) -> list[range]:
    """``range(n)`` cut into ``min(cpus, n)`` shares; share ``r`` holds the
    items ``i`` with ``i % cpus == r``."""
    return [range(r, n, cpus) for r in range(min(cpus, n))]


def _start_helper(fn, items: range):
    """The pid of a forked helper that pickles ``[fn(i) for i in items]``
    into a pipe, and the pipe's read end; None if the fork fails."""
    recv, send = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(recv)
        os.close(send)
        return None
    if pid == 0:
        # The helper leaves by os._exit whatever happens: no traceback,
        # and none of the parent's exit handlers or buffers run twice.
        code = 1
        try:
            results = [fn(i) for i in items]
            with open(send, "wb") as pipe:
                pickle.dump(results, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(send)
    return pid, open(recv, "rb")


def _received(helper) -> list:
    """The results the helper sent, or [] if it was never started, or died
    or raised before it sent."""
    if helper is not None:
        try:
            return pickle.load(helper[1])
        except (EOFError, OSError, pickle.UnpicklingError):
            pass
    return []


def map_items(fn, n: int) -> list:
    """``[fn(i) for i in range(n)]``, computed side by side on the usable
    CPUs (module docstring); ``fn`` must depend on nothing but ``i``."""
    global _running
    cpus = 1 if _running else usable_cpus()
    if min(cpus, n) < 2:
        return [fn(i) for i in range(n)]
    own, *rest = _shares(n, cpus)
    results, failure, helpers = {}, None, []
    _running = True
    try:
        for items in rest:
            helpers.append(_start_helper(fn, items))
        try:
            for i in own:
                results[i] = fn(i)
        except Exception as exc:
            failure = exc   # raised below, once the items before it are done
        for items, helper in zip(rest, helpers):
            results.update(zip(items, _received(helper)))
        for i in range(n):
            if i not in results:
                if i in own:   # the parent's own item that raised
                    raise failure
                results[i] = fn(i)
        return [results[i] for i in range(n)]
    finally:
        _running = False
        # Every helper has sent or is no longer wanted.
        for pid, pipe in filter(None, helpers):
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
