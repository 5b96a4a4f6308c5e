"""seqlpd: LiDAR place recognition and loop closure with sequence matching.

Point-cloud submaps are normalized, enriched with local geometric features,
and summarized into 256-d unit descriptors (learned-weight network forward
pass or a weight-free histogram baseline).  Descriptors accumulate in a
place map, are clustered into typical places (K-means++ / Elbow / distance
constraint), and loop closures are found coarse-to-fine: super-keyframe
lookup, then velocity-bounded sequence matching over a difference matrix.

Hot kernels are vectorized numpy with exact tie rules; the one worker pool
has a thread per CPU in the process's affinity mask.
"""

from .cloud import (PointCloud, Pose, SpatialIndex, Submap, accumulate_submap,
                    load_csv, load_kitti_bin, normalize_submap)
from .cluster import (ClusterParams, Clustering, ElbowResult, SuperKeyframes,
                      elbow_select, kmeanspp, load_clusters, save_clusters,
                      super_keyframes)
from .config import Config
from .errors import (DimensionError, EmptyDatabase, EmptyIndex, EmptyInput,
                     EmptySuperKeyframes, FormatError, InsufficientHistory,
                     InvalidCluster, InvalidK, InvalidParams, IoError,
                     LengthMismatch, NoValidTrajectory, NormError, OrderError,
                     OutOfBounds, OutOfMemory, RunLengthError, SeqLPDError,
                     ShapeError, WindowTooLarge)
from .features import local_features
from .metrics import (RecallResult, recall_at_n, recall_at_one_percent, recall_curve,
                      seq_protocol)
from .net import (NetConfig, WeightSet, baseline_descriptor, describe,
                  feature_transform, graph_aggregate, input_transform,
                  lazy_quadruplet_loss, load_weights, netvlad, random_weights,
                  save_weights)
from .placemap import PlaceEntry, PlaceMap
from .seqmatch import (MatchParams, MatchResult, coarse_match, detect_loop,
                       difference_matrix, sequence_search, trajectory_score)

__version__ = "1.0.0"
