"""Per-point local geometry features over k-nearest spatial neighborhoods.

For each point the neighborhood is the point itself plus its k-1 nearest
neighbors.  Four statistics are computed from it:

* ``dz_max`` - max minus min of the neighborhood z values
* ``z_var``  - population variance of the z values
* ``s2d``    - sum of the two eigenvalues of the 2x2 population covariance
  of the (x, y) projection (equals var(x) + var(y))
* ``l2d``    - eigenvalue ratio lam2 / lam1 with lam1 >= lam2, in [0, 1]

Feature rows align with submap point rows; column order is
(dz_max, z_var, s2d, l2d).
"""

import numpy as np

from . import kernels
from .cloud import SpatialIndex, Submap
from .errors import InvalidParams

DEFAULT_K = 20

FEATURE_DIM = 4


def local_features(submap: Submap, k: int = DEFAULT_K) -> np.ndarray:
    """(n, 4) feature matrix over k-nearest neighborhoods of every submap point."""
    if k < 2:
        raise InvalidParams("k must be >= 2")
    index = SpatialIndex(submap.points)
    nbr = index.knn_all(k)
    return kernels.local_stats(submap.points, nbr)
