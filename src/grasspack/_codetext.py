"""The decimal text of an embedded code, written by this process alone or
with worker processes that format it on every CPU.

The text is byte for byte ``json.dumps({"d": d, "vectors": [{"coords": [...],
"rank": l}, ...]}, indent=2, sort_keys=True) + "\\n"``; json writes a finite
float with ``float.__repr__`` too. This module imports no NumPy: workers are
forked while the process has one thread, before NumPy and its BLAS threads
load, and they format plain Python floats.
"""

from __future__ import annotations

import os
import pickle
import sys
from collections import deque
from collections.abc import Sequence
from contextlib import suppress

# Coordinates in one worker job: 128 KB of doubles, about 0.4 MB of text.
CHUNK = 1 << 14


def vector_text(coords: list[float], rank: int) -> str:
    """The text of one vector of the code, without the separator before it."""
    body = ",\n        ".join(map(float.__repr__, coords))
    return f'    {{\n      "coords": [\n        {body}\n      ],\n      "rank": {rank}\n    }}'


def write(fp, d: int, vectors, workers: Sequence[_Worker] = ()) -> int:
    """Write the code of the iterable ``vectors`` (``EmbeddedVector``s with
    float64 ``coords`` of length ``d``) to the text stream ``fp``; return how
    many were written.

    Without ``workers`` each vector is formatted here as soon as it arrives.
    With them, each full chunk of ``CHUNK`` coordinates goes to the next idle
    worker as bytes, and its text is written in order. A worker gets its next
    chunk only after its last result is read, so this process and a worker
    never both wait to write to each other, and memory holds at most one
    chunk per worker. The vectors after the last full chunk (the whole code,
    when it fits in one chunk) are formatted here."""
    fp.write(f'{{\n  "d": {d},\n  "vectors": [')
    count, sep = 0, "\n"
    for n, text in _texts(vectors, d, workers):
        fp.write(sep + text)
        count, sep = count + n, ",\n"
    fp.write("\n  ]\n}\n" if count else "]\n}\n")
    return count


def _texts(vectors, d: int, workers):
    """(number of vectors, their text) for ``vectors``, in order (``write``)."""
    if not workers:
        for v in vectors:
            yield 1, vector_text(v.coords.tolist(), v.source_rank)
        return
    idle, busy, batch = deque(workers), deque(), []
    for v in vectors:
        batch.append(v)
        if len(batch) * d < CHUNK:
            continue
        if not idle:
            worker = busy.popleft()
            yield worker.receive()
            idle.append(worker)
        busy.append(idle.popleft())
        busy[-1].send(batch)
        batch = []
    for worker in busy:
        yield worker.receive()
    for v in batch:
        yield 1, vector_text(v.coords.tolist(), v.source_rank)


def _chunk_text(raw: bytes, ranks: list[int]) -> tuple[int, str]:
    """The text of the vectors whose float64 coordinates are ``raw``, in order;
    ``tolist`` of the cast memoryview gives the same floats, bit for bit."""
    coords = memoryview(raw).cast("d")
    d = len(coords) // len(ranks)
    return len(ranks), ",\n".join(vector_text(coords[i * d:(i + 1) * d].tolist(), rank)
                                  for i, rank in enumerate(ranks))


class _Worker:
    """A forked process that formats chunks: it reads ``(raw, ranks)`` jobs from
    one pipe and writes their ``_chunk_text`` to another until its jobs pipe
    closes. ``siblings`` are the workers forked before it, whose pipes it
    closes, so that each pipe has one reader and one writer."""

    def __init__(self, siblings: list[_Worker]):
        # this process's ends of the pipes are opened before the fork, so that
        # nothing after a fork can fail before the worker's pid is kept (should
        # os.fork itself raise after forking, closing the pipes ends the worker)
        jobs_r, jobs_w = os.pipe()
        results_r, results_w = os.pipe()
        self.jobs = open(jobs_w, "wb")
        self.results = open(results_r, "rb")
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(jobs_r)
            os.close(results_w)
            self.close()
            raise
        if self.pid == 0:  # the worker: it never returns into the command
            code = 1
            try:
                self.close()
                for sibling in siblings:
                    sibling.close()
                _serve(jobs_r, results_w)
                code = 0
            finally:
                os._exit(code)
        os.close(jobs_r)
        os.close(results_w)

    def send(self, batch) -> None:
        job = (b"".join(v.coords.tobytes() for v in batch), [v.source_rank for v in batch])
        try:
            pickle.dump(job, self.jobs, pickle.HIGHEST_PROTOCOL)
            self.jobs.flush()
        except BrokenPipeError:
            raise self._lost() from None

    def receive(self) -> tuple[int, str]:
        try:
            return pickle.load(self.results)
        except EOFError:
            raise self._lost() from None

    def _lost(self) -> RuntimeError:
        # not an OSError: the command's input is not at fault
        return RuntimeError(f"formatting worker {self.pid} exited early")

    def close(self) -> None:
        """Close both pipes, so the worker exits: on end of input when idle,
        on a broken pipe when writing a result."""
        with suppress(BrokenPipeError):  # the unsent rest of a lost worker's job
            self.jobs.close()
        self.results.close()


def _serve(jobs_fd: int, results_fd: int) -> None:
    with open(jobs_fd, "rb") as jobs, open(results_fd, "wb") as results:
        while True:
            try:
                job = pickle.load(jobs)
            except EOFError:
                return
            pickle.dump(_chunk_text(*job), results, pickle.HIGHEST_PROTOCOL)
            results.flush()


def _one_thread() -> bool:
    """Whether this process runs one thread. Linux counts its threads in
    /proc/self/stat, as Python 3.12's fork warning reads them; elsewhere
    the threads ``threading`` started are counted."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rpartition(b")")[2].split()[17]) == 1
    except OSError:
        import threading
        return threading.active_count() == 1


class Formatters:
    """The formatting workers of one command, as a context manager whose exit
    stops them all, whether the command succeeded or raised.

    ``start`` forks one worker per available CPU, and none (so ``write`` runs
    serially) when there is one CPU, no ``os.fork``, NumPy already loaded, more
    than one thread in this process (a fork would not carry the others over,
    and Python 3.12 warns of it), or a fork fails."""

    def __init__(self, workers: list[_Worker]):
        self.workers = workers

    @classmethod
    def start(cls) -> Formatters:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity call on this platform
            cpus = os.cpu_count() or 1
        formatters = cls([])
        if cpus > 1 and hasattr(os, "fork") and "numpy" not in sys.modules and _one_thread():
            try:
                for _ in range(cpus):
                    formatters.workers.append(_Worker(formatters.workers))
            except OSError:  # say, no more processes: format here instead
                formatters.stop()
            except BaseException:
                formatters.stop()
                raise
        return formatters

    def stop(self) -> None:
        """Close every worker's pipes, then reap them all."""
        for worker in self.workers:
            worker.close()
        for worker in self.workers:
            os.waitpid(worker.pid, 0)
        self.workers = []

    def __enter__(self) -> Formatters:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
