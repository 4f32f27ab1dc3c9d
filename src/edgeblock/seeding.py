"""Deterministic derivation of random streams.

Every random decision in the library derives from one master seed plus a
fixed tuple of integer coordinates (stream tag, replicate index, ...), so
results never depend on execution order or worker scheduling.
"""

import numpy as np

from .graph import checked_count

DEFAULT_SEED = 42

# stream tags: first coordinate after the master seed; the numbers are part
# of every stream's key, so retired tags (3, 6) leave gaps, never a renumbering
TAG_SIMULATE_SEEDS = 0
TAG_SEED_SETS = 1
TAG_CASCADE = 2
TAG_STRATEGY = 4
TAG_SWEEP = 5

_MASK64 = 0xFFFFFFFFFFFFFFFF


def checked_seed(master_seed) -> int:
    """The one master-seed rule: ``master_seed`` as an int; ValueError unless checked_count
    finds an integer in [-2**63, 2**64 - 1], so that no int64 or uint64 seed is truncated."""
    return checked_count(master_seed, -2**63, _MASK64, "master seed")


def seed_sequence(master_seed, *coords):
    """SeedSequence keyed by (master_seed, *coords); ValueError if checked_seed rejects it."""
    entropy = [checked_seed(master_seed) & _MASK64] + [int(c) for c in coords]
    return np.random.SeedSequence(entropy=entropy)


def rng_for(master_seed, *coords):
    """A numpy Generator on the stream keyed by (master_seed, *coords)."""
    return np.random.default_rng(seed_sequence(master_seed, *coords))


def as_rng(rng) -> np.random.Generator:
    """``rng`` if a Generator, else ``rng_for(rng)``: ValueError unless checked_seed takes it."""
    return rng if isinstance(rng, np.random.Generator) else rng_for(rng)


def replicate_seed_bits(master_seed, *coords, count):
    """int64 array of derived seeds (uint64 bit patterns).

    Element ``i`` is a pure function of (master_seed, *coords, i), not of
    ``count``.  The experiment grid takes element i as the master seed of
    seed set i's cascade stream, so a seed set's replicates do not depend
    on how many seed sets run, or in which order.
    """
    u = seed_sequence(master_seed, *coords).generate_state(count, np.uint64)
    return u.view(np.int64)
