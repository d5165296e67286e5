"""Planted maximum independent set recovery from noisy membership oracles.

The package pairs two solver families with the oracle models they assume:
a one-shot neighborhood-count filter for persistent noise, and an adaptive
elimination loop for resampling oracles, plus sampling/amplification
baselines, planted-instance generators, and a seeded experiment harness.
"""

# each module's __all__ is the one list of its public names
from .graph import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .persistent import *  # noqa: F401,F403
from .bandit import *  # noqa: F401,F403
from .baselines import *  # noqa: F401,F403
from .instances import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403

__version__ = "0.1.0"
