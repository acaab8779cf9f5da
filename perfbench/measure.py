"""Measurement helpers shared by the workloads: percentiles, CPU, memory.

CPU time and peak RSS are read from ``/proc`` so they cover every process
of the system under test (the driver process, its worker children, or a
``repro serve`` server and its workers), not only this interpreter.
"""

from __future__ import annotations

import ctypes
import os
import signal
import statistics
import time
from typing import Dict, Iterable, List, Sequence

_TICKS = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Samples per window of a windowed tail: per-request latencies (p90 with
#: ten beyond) and the sparser reads (p75 with ten beyond).
TAIL_WINDOW = 100
READ_WINDOW = 40
#: Seconds :func:`host_probe` takes on the reference host.  Timings are
#: reported scaled to that host speed (see :func:`speed_factors`).
PROBE_REFERENCE_S = 0.040
PROBE_LOOPS = 150_000


def _probe_loop() -> float:
    started = time.perf_counter()
    counts: Dict[int, int] = {}
    state = 12345
    for _ in range(PROBE_LOOPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state % 5003
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - started


def host_probe(width: int = 1) -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    The loop (integer arithmetic and dict updates, like the sampler's
    per-element path) lives here, outside the program under test, so no
    change to the program can move it.  The shared host's speed drifts by
    a third within minutes, and the program's time follows the probe's
    closely, so a timing divided by the probe around it is steady.

    With ``width`` 2 a forked child runs the loop at the same time and the
    slower of the two times is returned: a workload that keeps two cores
    busy waits for the slower one, and a one-core probe can miss a
    neighbour that slows only the other core.
    """
    if width == 1:
        return _probe_loop()
    reader, writer = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the forked child
        try:
            os.write(writer, repr(_probe_loop()).encode())
        finally:
            os._exit(0)
    os.close(writer)
    try:
        own = _probe_loop()
        with os.fdopen(reader, "rb") as handle:
            other = float(handle.read())
    finally:
        os.waitpid(child, 0)
    return max(own, other)


def speed_factors(probes: Sequence[float]) -> List[float]:
    """Scale for each interval between consecutive probes.

    A time measured between probes ``i`` and ``i + 1`` times its factor is
    the time on the reference host: the reference probe time over the mean
    of the two probes around it.
    """
    return [2.0 * PROBE_REFERENCE_S / (before + after)
            for before, after in zip(probes, probes[1:])]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p50_ms(samples: Sequence[float]) -> float:
    return median(samples) * 1e3


def tail(samples: Sequence[float],
         window: int = TAIL_WINDOW) -> Dict[str, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns the value (milliseconds), the percentile and the sample count,
    so a reader can see how deep into the tail the run can look.  Ladder
    steps, rather than the exact eleventh-largest sample, keep the figure
    from chasing single stalls of a noisy host.  A run with at least two
    windows of samples is cut into consecutive windows and reports the
    median of the windows' tails: one slow second of the host moves one
    window, not the run's figure, and the percentile depends on the window
    size alone, not on how many samples a run happened to collect.
    """
    windows = len(samples) // window
    if windows >= 2:
        tails = [_ladder_tail(samples[index * window:(index + 1) * window])
                 for index in range(windows)]
        return {"ms": median([entry["ms"] for entry in tails]),
                "percentile": tails[0]["percentile"],
                "count": len(samples), "windows": windows}
    return _ladder_tail(samples)


def _ladder_tail(samples: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(samples)
    count = len(ordered)
    for percentile in TAIL_LADDER:
        if count * (100.0 - percentile) / 100.0 >= TAIL_BEYOND:
            break
    index = min(count - 1, int(count * percentile / 100.0))
    return {"ms": ordered[index] * 1e3, "percentile": percentile,
            "count": count}


def _proc_stat(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    # the command name may contain spaces; fields resume after its ")"
    return text[text.rindex(")") + 2:].split()


def descendants(pid: int) -> List[int]:
    """Every live descendant process of ``pid`` (children, grandchildren)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            parent = int(_proc_stat(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while scanning
        parents.setdefault(parent, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def adopt_orphans() -> None:
    """Make this process the subreaper of everything it starts (Linux).

    A descendant whose parent exits first (a server's worker, a server's
    resource tracker) is then re-parented here instead of to init, so
    :func:`stop_descendants` still finds it and waits for it.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - not Linux
        pass


def _reap_children() -> None:
    """Collect the exit status of every child that has already ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def stop_descendants(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The multiprocessing resource tracker (started by the shared-memory
    transport) is stopped first through its own pipe, so it unlinks what
    it tracks and is waited for; it would otherwise outlive this process.
    Any other descendant gets ``SIGTERM``, then ``SIGKILL`` after
    ``grace`` seconds.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    deadline = time.monotonic() + grace
    signalled = None
    while True:
        _reap_children()
        alive = descendants(os.getpid())
        if not alive or time.monotonic() > deadline + grace:
            return
        wanted = (signal.SIGTERM if time.monotonic() < deadline
                  else signal.SIGKILL)
        if wanted != signalled:
            for pid in alive:
                try:
                    os.kill(pid, wanted)
                except ProcessLookupError:
                    pass
            signalled = wanted
        time.sleep(0.02)


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by the given processes."""
    total = 0
    for pid in pids:
        try:
            fields = _proc_stat(pid)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the processes' peak resident set sizes (``VmHWM``), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
