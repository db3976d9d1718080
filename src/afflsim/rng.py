"""Deterministic, label-keyed random number streams.

Every random draw in the simulator comes from a stream keyed by
(seed, *labels) — e.g. ("local-train", round, client_id) — so results
never depend on call order. Philox is counter-based:
distinct keys give statistically independent streams.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key(seed: int, labels: tuple) -> int:
    h = hashlib.blake2b(digest_size=16)
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"\x1f")
        h.update(repr(label).encode())
    return int.from_bytes(h.digest(), "little")


def stream(seed: int, *labels) -> np.random.Generator:
    """Return the Generator for (seed, labels); identical on every call."""
    return np.random.Generator(np.random.Philox(key=_key(seed, labels)))


def subseed(seed: int, *labels) -> int:
    """Derive a child integer seed; stable across platforms and runs."""
    return _key(seed, labels) % (2**63)
