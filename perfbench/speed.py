"""The machine's current speed, read with a fixed reference kernel.

A small shared host runs interpreter-bound code up to 1.5-2x slower for
stretches of tens of seconds to minutes, as other tenants come and go.
The program's wall and CPU times move with it, so two runs of the same
code can differ by more than any bound a benchmark could hold a change
to.  The benchmark therefore runs this kernel (tokenizing, dict and
string work in the shape of a command-line parse, written here and never
changed with the program) after every program call, and reports the time
metrics of interpreter-bound phases at the reference speed: each call's
time is divided by the slowdown the readings around it show::

    at_reference = measured * REFERENCE_S / mean(nearby kernel times)

The kernel is timed in thread CPU time on its second back-to-back pass,
with the garbage collector paused, so neither waits for other threads,
a cold cache left by the program, nor collections of the program's heap
count toward it.  The raw figures stay in the report.
"""

from __future__ import annotations

import gc
import re
import time

import numpy as np

#: Kernel CPU seconds that count as the reference speed (the typical
#: reading on a 2-vCPU Xeon VM).
REFERENCE_S = 1.0e-4
#: Readings averaged into the speed a program call ran at: one reading
#: alone is noisy, while the machine's state holds for seconds.
WINDOW = 51

_WORDS = tuple(
    "sudo find /var/log -name '*.gz' -mtime +7 -exec rm -f {} ; && "
    "cat /etc/passwd | grep -v nologin | cut -d: -f1 > /tmp/users.txt ; "
    "curl -fsSL http://10.0.0.8:8080/x.sh | bash -s -- --quiet".split()
)
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|\S")


def _kernel() -> int:
    total = 0
    for _ in range(3):
        counts: dict[str, int] = {}
        for word in _WORDS:
            tokens = _TOKEN.findall(word)
            counts[word] = counts.get(word, 0) + len(tokens)
        total += len(" ".join(sorted(counts)).upper().lower())
    return total


def probe() -> float:
    """Thread CPU seconds of one warm pass of the reference kernel."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        started = time.thread_time()
        _kernel()
        return time.thread_time() - started
    finally:
        if collecting:
            gc.enable()


def slowdown(readings) -> float:
    """Mean kernel time over the reference: above 1 when the machine is slow."""
    if not len(readings):
        return 1.0
    return float(np.mean(readings)) / REFERENCE_S


def local_slowdowns(readings, window: int = WINDOW) -> np.ndarray:
    """The slowdown around each reading: the mean of the *window* readings
    centred on it (fewer at the ends), over the reference."""
    values = np.asarray(readings, dtype=float)
    if not len(values):
        return values
    half = window // 2
    sums = np.concatenate(([0.0], np.cumsum(values)))
    index = np.arange(len(values))
    low = np.maximum(index - half, 0)
    high = np.minimum(index + half + 1, len(values))
    return (sums[high] - sums[low]) / (high - low) / REFERENCE_S
