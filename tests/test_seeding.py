"""Tests for trial sub-seed derivation."""

import pytest

from seplab import derive_seed
from seplab.seeding import SEED_STRIDE


def test_derive_seed_refuses_indices_that_reach_the_next_master():
    assert derive_seed(0, SEED_STRIDE - 1) == SEED_STRIDE - 1
    assert derive_seed(1, 0) == SEED_STRIDE
    for bad in (SEED_STRIDE, SEED_STRIDE + 5, -1):
        with pytest.raises(ValueError):
            derive_seed(0, bad)
