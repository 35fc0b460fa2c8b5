"""Host-speed reference: a fixed kernel, timed next to the program.

The vCPUs of a shared host run at a speed that changes over minutes (see
"Host speed" in the README).  The benchmark times this kernel next to every
invocation and scales the invocation's wall time by REF_S over the kernel's
time, so a figure reads as seconds on a host that runs the kernel in REF_S.
The kernel mixes a numpy loop and a Python loop, as the program does, and
imports nothing from smalltime, so no change to the program moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_S = 0.015       # nominal seconds of one reference() call
_X = np.random.default_rng(0).random(100_000)


def reference() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    start = perf_counter()
    for _ in range(12):
        np.sin(_X)
        s = 0
        for i in range(3000):
            s += i * i
    return perf_counter() - start


def scaled(wall_s: float, ref_s: list) -> float:
    """`wall_s` at the nominal host speed, from reference times taken
    alongside it."""
    return wall_s * REF_S * len(ref_s) / sum(ref_s)
