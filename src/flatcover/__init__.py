"""flatcover: projective clustering and hyperplane cover, exactly and at desk scale.

Library surface:

* ``geometry``   - scalar regimes, point clouds, flats, hyperplanes, distances
* ``fitting``    - optimal single-flat fitting (weighted PCA) and exact spans
* ``clustering`` - exact partition-enumeration solver and k-subspaces heuristic
* ``cover``      - exact line / hyperplane cover search with the d=2 kernel
* ``reductions`` - executable hardness-reduction generators on exact integers
* ``cli``        - the ``flatcover`` command-line tool
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    AffineFlat,
    ClusteringSolution,
    CoverSolution,
    Hyperplane,
    PointRecord,
    WeightedPointCloud,
    total_cost,
)
from .fitting import FitResult, best_fit_flat, fit_hyperplane_exact  # noqa: F401
