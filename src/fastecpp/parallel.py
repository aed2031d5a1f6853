"""Deterministic seed derivation.

Every random choice in the prover and the sampler draws from a child
seed derived from the master seed and a tag naming the choice, so a run
is reproduced exactly by its master seed.
"""

import hashlib


def derive_seed(master: int, *tags) -> int:
    """Derive a child seed from a master seed and a tag tuple.

    Uses SHA-256 over a canonical repr, so results are stable across runs,
    platforms and PYTHONHASHSEED values.
    """
    blob = repr((int(master),) + tuple(tags)).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:16], "big")
