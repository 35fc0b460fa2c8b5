"""The host the digest pins were recorded on.

numpy's SIMD kernels of exp, log and power differ in the last bit between
dispatch targets (AVX-512 against AVX2, say), so a digest holds on a host
whose numpy dispatches as the recording host's did.  byte_contract.json
records that host's fingerprint under "host"; a pin that fails names how
this host differs from it.
"""

import json
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

CONTRACT = Path(__file__).with_name("byte_contract.json")


def fingerprint() -> dict:
    """The numpy version and the SIMD dispatch targets it enables here."""
    return {"numpy": np.__version__,
            "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


def host_difference() -> str:
    """A failing pin's message: how this host differs from the one the pins
    were recorded on, or that it does not."""
    recorded, here = json.loads(CONTRACT.read_text())["host"], fingerprint()
    if recorded == here:
        return f"pinned on this host's fingerprint {here}: the bytes moved"
    missing = [t for t in recorded["simd"] if t not in here["simd"]]
    extra = [t for t in here["simd"] if t not in recorded["simd"]]
    return (f"pinned on another host: numpy {recorded['numpy']} recorded, "
            f"{here['numpy']} here; SIMD targets recorded but not enabled here: "
            f"{missing or 'none'}; enabled here but not recorded: {extra or 'none'}")
