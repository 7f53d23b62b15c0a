import numpy as np
from hypothesis import HealthCheck, settings

from shuffledp import Channel, Composition, LrAtomization, validate_channel
from shuffledp.exact_dist import DEFAULT_ATOM_CAP, _fold_atoms

settings.register_profile(
    "local",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("local")


def full_channel(rng: np.random.Generator, d: int) -> Channel:
    """Random FULL channel with every mass at least 0.2/d."""
    W0 = 0.8 * rng.dirichlet([2.0] * d) + 0.2 / d
    W1 = 0.8 * rng.dirichlet([2.0] * d) + 0.2 / d
    return validate_channel(W0, W1)


def fold_atoms(channel: Channel, comp: Composition) -> LrAtomization:
    """Atoms of the pair (T_{n,k}, T_{n,k+1}) from the dense fold, at every k.

    The fold derives both laws from T_{n-1,k}; at k = 0 it is an oracle for
    `lr_atoms`, which builds that pair in closed form instead.
    """
    return _fold_atoms(channel, comp, 1, DEFAULT_ATOM_CAP)
