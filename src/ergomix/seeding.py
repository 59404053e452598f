"""Deterministic seed derivation.

All randomness in an experiment flows from the single config seed.  Module
seeds are derived with numpy's SeedSequence spawn keys (a counter-based
splitter), so streams are independent yet reproducible, and adding a stream
never perturbs existing ones.
"""

import numpy as np

_STREAMS = {
    "lyapunov": 1,
    "entropy": 2,
    "nu": 3,
}


def child_seed(master: int, stream: str) -> int:
    """Derive the integer seed for a named stream of an experiment."""
    # the trailing 0 is part of every stream's spawn key; dropping it changes the seeds
    seq = np.random.SeedSequence(master, spawn_key=(_STREAMS[stream], 0))
    return int(seq.generate_state(1, dtype=np.uint64)[0])
