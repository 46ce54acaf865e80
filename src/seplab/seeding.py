"""Deterministic sub-seed derivation for trial batches.

One master seed reproduces an entire batch: trial i uses the sub-seed
``master * 1_000_003 + i``.  The stride is a prime comfortably above any
realistic trial count; indices at or above it are refused, so distinct
(master, i) pairs never collide, and the scheme is documented so results can
be reproduced one trial at a time.
"""

from __future__ import annotations

import random

SEED_STRIDE = 1_000_003


def derive_seed(master: int, index: int) -> int:
    if index < 0:
        raise ValueError("negative trial index")
    if index >= SEED_STRIDE:
        raise ValueError(
            f"trial index {index} reaches the seed stride {SEED_STRIDE}, "
            "where it would reuse the next master seed's trials"
        )
    return master * SEED_STRIDE + index


def trial_rng(master: int, index: int) -> random.Random:
    return random.Random(derive_seed(master, index))
