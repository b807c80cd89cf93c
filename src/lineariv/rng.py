"""Pinned random number generation.

All randomness in the package flows through counter-based Philox generators
keyed by numpy SeedSequence entropy, which is stable across platforms and
numpy versions.  Normal variates are produced by the inverse-CDF transform of
uniforms (not the ziggurat), so a (seed, index) pair identifies a bit-exact
stream everywhere.  The transform is scipy's ``ndtri``, so the first draw
imports ``scipy.special``.
"""

from __future__ import annotations

import numpy as np

from .glm import _special

__all__ = ["make_generator", "draw_normal"]


def make_generator(seed_key) -> np.random.Generator:
    """Generator keyed by an int or a sequence of ints (e.g. [seed, rep])."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed_key)))


def draw_normal(gen: np.random.Generator, n: int) -> np.ndarray:
    """Standard normals via inverse CDF; u=0 is nudged to the smallest double."""
    return _to_normal(gen.random(n))


def _to_normal(u: np.ndarray) -> np.ndarray:
    """:func:`draw_normal`'s transform, in place on an array of uniforms: no
    uniform is negative, so the maximum moves u=0 alone."""
    np.maximum(u, 5e-324, out=u)
    return _special().ndtri(u, out=u)
