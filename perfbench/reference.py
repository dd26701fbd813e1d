"""Machine-speed reference: benchmark-owned work timed next to every job.

The machine this benchmark was built on, a 2-vCPU Intel Xeon virtual
machine, changes speed by up to 60 % in phases of tens of seconds.  The
same in-process job took 4.2 ms in one phase and 7.3 ms in the next; CPU
time moved with wall time, and no time was stolen.  A 30 s run cannot average such phases out.  So every time
reported as an end-to-end metric is a *normalized* time:

    normalized = wall x NOMINAL_MS / (median of the references timed around it)

Over the same phases the ratio of job to reference stayed within about
10 %, against up to 75 % for the raw wall time.  The reference runs no
fglcalc code, so a change to fglcalc moves the normalized time by the same
factor as the wall time.  The reference is:

- for in-process jobs, ``kernel_ms``: a sparse polynomial product over
  tuple-keyed dicts, the shape of fglcalc's inner loop (nominal 1 ms);
- for CLI jobs, ``spawn_ms``: one bare ``python -c pass`` with the job's
  environment.  Process start tracks the CLI job's speed far better than an
  in-process loop does (nominal 50 ms).
"""

import gc
import statistics
import subprocess
import sys
import time

KERNEL_NOMINAL_MS = 1.0
SPAWN_NOMINAL_MS = 50.0
WINDOW = 4  # references on each side of a job that its normalization uses

_LEFT = {(i, j, k): i - j + 2 * k + 1 for i in range(4) for j in range(4) for k in range(3)}
_RIGHT = {(i, j, k): 3 * i + j - k - 2 for i in range(4) for j in range(3) for k in range(4)}


def kernel_ms() -> float:
    """Time one fixed sparse product, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc: dict = {}
        for m1, c1 in _LEFT.items():
            for m2, c2 in _RIGHT.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                acc[m] = acc.get(m, 0) + c1 * c2
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def spawn_ms(env: dict, cwd) -> float:
    """Time one bare interpreter start with the given environment."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd,
                   capture_output=True, check=True, timeout=60)
    return (time.perf_counter() - start) * 1000.0


def normalize(walls: list, references: list, nominal_ms: float) -> list:
    """Scale walls[i] by nominal / the median reference within WINDOW of i.

    references[i] is the reference timed just before walls[i]; a wall of
    None (a job that raised) is dropped.
    """
    out = []
    for i, wall in enumerate(walls):
        if wall is None:
            continue
        local = statistics.median(references[max(0, i - WINDOW): i + WINDOW + 1])
        out.append(wall * nominal_ms / local)
    return out
