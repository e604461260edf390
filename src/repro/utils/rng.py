"""Seeded random-number-generation helpers.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` created through :func:`make_rng`, so that
experiments are reproducible bit-for-bit given the same seed.  A
component that needs its own stream (a benchmark's activity, a
scenario's variation) seeds it with :func:`seed_for` of a label, which
is stable across runs.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["make_rng", "seed_for"]

RngLike = Union[None, int, np.random.Generator]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS entropy, an ``int`` for a fixed seed, or an
        existing generator (returned unchanged so callers can thread a
        single stream through a call chain).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_for(key: str, modulus: int = 2**32) -> int:
    """Map a string ``key`` to a stable non-negative integer seed.

    Unlike the builtin ``hash``, this is stable across interpreter runs
    (no hash randomization), which keeps experiment pipelines
    deterministic.
    """
    acc = 2166136261  # FNV-1a offset basis
    for ch in key.encode("utf-8"):
        acc = ((acc ^ ch) * 16777619) % (2**64)
    return acc % modulus
