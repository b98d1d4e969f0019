"""Optional process-level parallelism for embarrassingly parallel checks.

The worker count comes from the DUNKLCMS_WORKERS environment variable
(default 1, meaning plain serial evaluation), clamped to the CPUs this
process may run on.  Where ``os`` has no ``fork`` the count is always 1 and
every map runs serially.

With n > 1 workers, ``ordered_map`` forks n children, no more than there are
items.  Child w maps the strided share ``items[w::n]`` with the function it
inherited through the fork, so nothing is pickled on the way out, and writes
one pickled ``(ok, results or exception)`` back through its own pipe.  The
parent reads every pipe, reaps every child, re-raises the first failure by
share with its own type and puts the shares back in input order, so reports
stay deterministic regardless of the worker count.  The library starts no
threads, which is what makes the fork safe.
"""

from __future__ import annotations

import os


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    if not hasattr(os, "fork"):
        return 1
    try:
        n = int(os.environ.get("DUNKLCMS_WORKERS", "1"))
    except ValueError:
        return 1
    return max(1, min(n, _usable_cpus()))


def ordered_map(fn, items):
    """Map preserving order; distributes across forked processes when configured."""
    items = list(items)
    n = min(worker_count(), len(items))
    if n <= 1:
        return [fn(x) for x in items]
    # imported here: serial requests, most of them, never pickle anything
    import pickle

    children = []  # (pid, read end of its pipe)
    payloads, statuses = None, []
    try:
        for w in range(n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                _run_share(fn, items[w::n], write_fd)
            os.close(write_fd)
            children.append((pid, read_fd))
        payloads = [_read_all(fd) for _, fd in children]
    finally:
        for pid, fd in children:
            os.close(fd)
            if payloads is None:  # interrupted: stop the child rather than wait for it
                import signal

                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    shares = []
    for payload, status in zip(payloads, statuses):
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not payload:
            raise RuntimeError("an ordered_map worker exited with status %d without a result" % code)
        ok, value = pickle.loads(payload)  # bytes written by our own child
        if not ok:
            raise value
        shares.append(value)
    out = [None] * len(items)
    for w, share in enumerate(shares):
        out[w::n] = share
    return out


def _run_share(fn, share, fd):
    """In the child: map the share, write the pickled outcome to ``fd`` and
    leave through ``os._exit``, so the parent's cleanup and buffered output
    never run twice."""
    import pickle

    code = 1
    try:
        try:
            data = pickle.dumps((True, [fn(x) for x in share]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # sent to the parent, which re-raises it
            data = _pickled_error(exc)
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc) -> bytes:
    import pickle

    try:
        data = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(data)  # some exceptions pickle but cannot be rebuilt
        return data
    except Exception:
        return pickle.dumps((False, RuntimeError("in an ordered_map worker: %r" % (exc,))),
                            pickle.HIGHEST_PROTOCOL)


def _read_all(fd) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)
