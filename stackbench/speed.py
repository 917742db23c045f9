"""Machine-speed normalization for host times.

Host time on a shared machine drifts: the speed a process gets can halve
for seconds at a time while neighbours run, and the program's own CPU
time drifts with it.  While the benchmark times the program, a
:class:`Speed` sampler interrupts it every ``INTERVAL_S`` (``SIGALRM``)
and times a small fixed reference job that never calls the program.
Each timed operation is then reported as

    (wall seconds - seconds spent in the sampler) * mean(REFERENCE_S / t)

over the reference runs ``t`` that fell inside the operation (or the
latest few, for an operation shorter than the interval): its duration
at the reference machine speed.  A change that makes the program faster
lowers that number; a busy neighbour slows the reference job and the
program alike and cancels out.

This module imports nothing from the program, so set-up can be timed
with it before the program is imported.
"""

from __future__ import annotations

import heapq
import signal
from time import perf_counter

#: how often the sampler runs the reference job
INTERVAL_S = 0.05

#: ``reference_seconds()`` on an idle 2-vCPU x86-64 container running
#: CPython 3.11; host times are reported at this machine speed
REFERENCE_S = 0.00115

#: reference runs an operation shorter than the interval borrows
RECENT = 8


class _Node:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind, a, b):
        self.kind, self.a, self.b = kind, a, b


def _eval(node, env):
    if isinstance(node, int):
        return node
    if isinstance(node, str):
        return env[node]
    if node.kind == "+":
        return _eval(node.a, env) + _eval(node.b, env)
    if node.kind == "*":
        return _eval(node.a, env) * _eval(node.b, env) % 1009
    return _eval(node.a, env) - _eval(node.b, env)


_EXPR = _Node("+", _Node("*", "i", 7),
              _Node("-", _Node("+", "j", 3), _Node("*", "i", "j")))


def _reference_process(k: int, out: list):
    env = {"i": k, "j": 0}
    for j in range(40):
        env["j"] = j
        out.append(_eval(_EXPR, env))
        yield (j * 7 + k) % 11 + 1


def reference_seconds(n: int = 16) -> float:
    """Host seconds of a fixed reference job: a miniature event loop
    resuming generator processes that evaluate expression trees, the
    same kind of work as the simulator's interpreter."""
    t0 = perf_counter()
    heap, out = [], []
    for k in range(n):
        heap.append((0, k, _reference_process(k, out)))
    seq = n
    while heap:
        t, _, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(heap, (t + delay, seq, proc))
    return perf_counter() - t0


class Speed:
    """Periodic reference-job sampler; use as a context manager.

    ``mark()`` before an operation and ``normalize(mark, wall)`` after
    it give the operation's seconds at reference speed.
    """

    def __init__(self):
        self.samples: list[float] = [reference_seconds()]
        self.stolen = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_seconds())
        self.stolen += perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self) -> "Speed":
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.stolen

    def factor(self, since: int | None = None) -> float:
        """Mean REFERENCE_S / t over the samples taken after ``since``
        (the latest few when there are none)."""
        inside = self.samples[since:] if since is not None else []
        window = inside or self.samples[-RECENT:]
        return sum(REFERENCE_S / t for t in window) / len(window)

    def normalize(self, mark: tuple[int, float], wall: float) -> float:
        n0, stolen0 = mark
        own = wall - (self.stolen - stolen0)
        return own * self.factor(n0)
