"""Descriptor network: forward inference and loss evaluation.

The network maps a normalized submap plus its per-point features to a
256-d unit-norm global descriptor:

    coords -> input transform (3x3) -> [x', y', z', dz_max, z_var, s2d, l2d]
    -> shared per-point MLP -> graph aggregation over feature-space kNN
    -> shared MLP -> NetVLAD pooling -> projection -> L2 normalize

``vlad_vector`` is the per-frame part, up to the flat pooled vector, and
``project`` maps a batch of those to descriptors with one GEMM, so callers
that describe many frames project them together; ``describe`` is the two
for one frame.  Inference runs in float32; the NetVLAD accumulation and
projection run in float64 so that permutations of the input rows perturb
the output far below test tolerances.  There is no training here: weights
come from a file or from a seeded random initializer, and a weight-free
histogram baseline covers pipeline tests.  Each tensor is held once, in the
form the forward pass reads: the NetVLAD projection (``vlad.proj.w``,
65,536 x 256 at the default widths) in float64 alone, the rest in float32.
Descriptors are plain float32 numpy vectors.
"""

import math
import struct
import threading
from dataclasses import dataclass, replace

import numpy as np

from . import fileio, kernels
from .cloud import Submap
from .errors import EmptyInput, FormatError, InvalidParams, NormError, ShapeError
from .features import FEATURE_DIM

DESCRIPTOR_DIM = 256
INPUT_DIM = 3 + FEATURE_DIM

_LPDW_MAGIC = b"LPDW"
_LPDW_VERSION = 1
# points per row block of graph_aggregate's edge MLP (about 64 each: the
# blocks split the rows evenly).  A block's edge rows are one GEMM, and a GEMM
# of two or more rows gives each row the bits of the whole product; a
# single-row product goes through GEMV and may not, and even splitting leaves
# every block at least two rows whenever the whole has.
_EDGE_BLOCK_ROWS = 64
# tensors the forward pass reads in float64: load_weights widens them as it
# reads, so their float32 form is never held whole
_FLOAT64_TENSORS = ("vlad.proj.w",)


@dataclass(frozen=True)
class NetConfig:
    """Layer widths and aggregation sizes of the descriptor network."""

    k_graph: int = 20
    vlad_clusters: int = 64
    point_mlp: tuple = (64, 64)
    edge_mlp: tuple = (64, 128)
    post_mlp: tuple = (1024,)
    tnet_mlp: tuple = (64, 128, 256)
    tnet_fc: tuple = (128, 64)
    descriptor_dim: int = DESCRIPTOR_DIM

    def __post_init__(self):
        if self.k_graph < 1:
            raise InvalidParams("k_graph must be >= 1")
        if self.vlad_clusters < 1:
            raise InvalidParams("vlad_clusters must be >= 1")

    @property
    def feature_width(self) -> int:
        return self.point_mlp[-1]

    @property
    def vlad_width(self) -> int:
        return self.post_mlp[-1]

    @property
    def flat_width(self) -> int:
        """Length of the flat VLAD vector that ``project`` takes."""
        return self.vlad_clusters * self.vlad_width


def _chain(shapes: dict, prefix: str, d_in: int, widths) -> int:
    for i, w in enumerate(widths):
        shapes[f"{prefix}.{i}.w"] = (d_in, w)
        shapes[f"{prefix}.{i}.b"] = (w,)
        d_in = w
    return d_in


def expected_shapes(config: NetConfig) -> dict:
    """Tensor name -> shape map required by ``config``, in canonical order."""
    shapes = {}
    for prefix, d in (("tin", 3), ("tfeat", config.feature_width)):
        last = _chain(shapes, f"{prefix}.mlp", d, config.tnet_mlp)
        last = _chain(shapes, f"{prefix}.fc", last, config.tnet_fc)
        shapes[f"{prefix}.out.w"] = (last, d * d)
        shapes[f"{prefix}.out.b"] = (d * d,)
    _chain(shapes, "point", INPUT_DIM, config.point_mlp)
    _chain(shapes, "edge", 2 * config.feature_width, config.edge_mlp)
    _chain(shapes, "post", config.edge_mlp[-1], config.post_mlp)
    d = config.vlad_width
    c = config.vlad_clusters
    shapes["vlad.assign.w"] = (d, c)
    shapes["vlad.assign.b"] = (c,)
    shapes["vlad.centers"] = (c, d)
    shapes["vlad.proj.w"] = (config.flat_width, config.descriptor_dim)
    shapes["vlad.proj.b"] = (config.descriptor_dim,)
    return shapes


class WeightSet:
    """Named tensors, each held once; immutable once constructed and safe to share.

    A tensor is held in float32 until ``float64`` first asks for it; from
    then on it is held in float64 alone.  ``load_weights`` hands the
    tensors the forward pass reads in float64 (the NetVLAD projection) over
    already widened, so a loaded set widens nothing.  ``ws[name]`` is float32
    either way: for a tensor held in float64 it is an exact narrowed copy.
    """

    def __init__(self, tensors: dict):
        self._held = {name: np.asarray(t, dtype=np.float32, order="C")
                      for name, t in tensors.items()}
        self._f64_lock = threading.Lock()

    @classmethod
    def _of_held(cls, held: dict) -> "WeightSet":
        """A set over ``held`` as it is: float32 arrays, and read-only float64
        arrays whose values are float32 values."""
        ws = cls({})
        ws._held = held
        return ws

    def _get(self, name: str) -> np.ndarray:
        try:
            return self._held[name]
        except KeyError:
            raise ShapeError(f"missing tensor '{name}'") from None

    def float64(self, name: str) -> np.ndarray:
        """The read-only float64 form of one tensor, widened on first use and then shared."""
        out = self._get(name)
        if out.dtype != np.float64:
            # the lock keeps concurrent describe threads from each widening
            # the same (possibly 134 MB) tensor
            with self._f64_lock:
                out = self._held[name]
                if out.dtype != np.float64:
                    out = out.astype(np.float64)
                    out.flags.writeable = False
                    self._held[name] = out
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        t = self._get(name)
        return t.astype(np.float32) if t.dtype == np.float64 else t

    def names(self):
        return list(self._held)

    def items(self):
        """(name, float32 tensor) pairs in canonical order, each narrowed only when reached."""
        return ((name, self[name]) for name in self.names())

    def validate(self, config: NetConfig) -> None:
        """Raise ShapeError unless the tensor names and shapes match ``config`` exactly."""
        want = expected_shapes(config)
        for name, shape in want.items():
            got = self._get(name).shape
            if tuple(got) != tuple(shape):
                raise ShapeError(f"tensor '{name}' has shape {tuple(got)}, expected {tuple(shape)}")
        for name in self._held:
            if name not in want:
                raise ShapeError(f"unexpected tensor '{name}'")


def save_weights(ws: WeightSet, path) -> None:
    """Write the LPDW container (magic, version, count, then name/rank/dims/float32 payload)."""
    with fileio.writing(path) as fh:
        fh.write(struct.pack("<4sII", _LPDW_MAGIC, _LPDW_VERSION, len(ws.names())))
        for name, tensor in ws.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack(f"<H{len(raw)}sB{tensor.ndim}I", len(raw), raw,
                                 tensor.ndim, *tensor.shape))
            fh.write(np.ascontiguousarray(tensor, dtype="<f4"))


def load_weights(path, config: NetConfig = None) -> WeightSet:
    """Read an LPDW file; validates shapes against ``config`` when given.

    The tensors the forward pass reads in float64 are widened from the file
    a chunk at a time, so the set holds each tensor once and no whole float32
    copy of the projection exists at any point.
    """
    with fileio.Reader(path, _LPDW_MAGIC, _LPDW_VERSION) as r:
        (count,) = r.unpack("<I")
        tensors = {}
        for _ in range(count):
            (name_len,) = r.unpack("<H")
            name = r.text(name_len)
            if name in tensors:
                raise FormatError(f"{path}: duplicate tensor '{name}'")
            (rank,) = r.unpack("<B")
            dims = r.unpack(f"<{rank}I")
            wide = np.float64 if name in _FLOAT64_TENSORS else None
            try:
                tensors[name] = r.array("<f4", math.prod(dims), wide).reshape(dims)
            except ValueError:  # an empty tensor whose other dims numpy cannot hold
                raise FormatError(f"{path}: tensor '{name}' has unsupported shape {dims}") from None
            if wide:
                tensors[name].flags.writeable = False
        r.end()
    ws = WeightSet._of_held(tensors)
    if config is not None:
        ws.validate(config)
    return ws


def fit_widths(ws: WeightSet, config: NetConfig) -> NetConfig:
    """``config`` with the NetVLAD cluster count and descriptor width of ``ws``
    (the first dims of ``vlad.centers`` and ``vlad.proj.b``), validated against ``ws``."""
    c, d = ws["vlad.centers"].shape, ws["vlad.proj.b"].shape
    if len(c) == 0 or len(d) == 0 or min(c[0], d[0]) < 1:
        raise ShapeError(f"tensors 'vlad.centers' {c} and 'vlad.proj.b' {d} need a first dim >= 1")
    fitted = replace(config, vlad_clusters=c[0], descriptor_dim=d[0])
    ws.validate(fitted)
    return fitted


def random_weights(config: NetConfig, seed: int) -> WeightSet:
    """Seeded uniform [-0.05, 0.05] tensors; transform-net output biases start at identity."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in expected_shapes(config).items():
        tensors[name] = rng.uniform(-0.05, 0.05, size=shape).astype(np.float32)
    tensors["tin.out.b"] = np.eye(3, dtype=np.float32).ravel()
    f = config.feature_width
    tensors["tfeat.out.b"] = np.eye(f, dtype=np.float32).ravel()
    return WeightSet(tensors)


def _dense(x: np.ndarray, ws: WeightSet, name: str, relu: bool = True,
           out: np.ndarray = None) -> np.ndarray:
    """One layer, x @ w + b then ReLU, written in place into ``out`` when given.

    The product is ``np.dot``: it releases the GIL for the pooled 1-D
    vector of a transform net's FC head as for row blocks, where
    ``np.matmul`` would hold it (see ``_accel``).
    """
    w = ws[f"{name}.w"]
    b = ws[f"{name}.b"]
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"tensor '{name}.w' expects input width {w.shape[0]}, got {x.shape[-1]}")
    out = np.dot(x, w, out=out)
    out += b
    if relu:
        np.maximum(out, np.float32(0.0), out=out)
    return out


def _mlp(x: np.ndarray, ws: WeightSet, prefix: str, n_layers: int, outs=None) -> np.ndarray:
    """``n_layers`` dense layers; layer i writes into ``outs[i]`` when given."""
    for i in range(n_layers):
        x = _dense(x, ws, f"{prefix}.{i}", out=None if outs is None else outs[i])
    return x


def _transform(x: np.ndarray, ws: WeightSet, prefix: str, n_mlp: int, n_fc: int) -> np.ndarray:
    """Shared transform net: per-point MLP, max-pool, FC head, square matrix out."""
    if x.shape[0] < 1:
        raise EmptyInput("transform net needs at least one row")
    h = _mlp(x.astype(np.float32, copy=False), ws, f"{prefix}.mlp", n_mlp)
    pooled = h.max(axis=0)
    g = _mlp(pooled, ws, f"{prefix}.fc", n_fc)
    out = _dense(g, ws, f"{prefix}.out", relu=False)
    d = x.shape[1]
    if out.shape[0] != d * d:
        raise ShapeError(f"tensor '{prefix}.out.w' produces {out.shape[0]} values, expected {d * d}")
    return out.reshape(d, d)


def input_transform(points: np.ndarray, ws: WeightSet, config: NetConfig = NetConfig()) -> np.ndarray:
    """3x3 coordinate alignment matrix (applied by right-multiplication)."""
    pts = np.asarray(points, dtype=np.float32).reshape(-1, 3)
    return _transform(pts, ws, "tin", len(config.tnet_mlp), len(config.tnet_fc))


def feature_transform(feats: np.ndarray, ws: WeightSet, config: NetConfig = NetConfig()) -> np.ndarray:
    """FxF feature-space alignment matrix (applied by right-multiplication)."""
    x = np.asarray(feats, dtype=np.float32)
    return _transform(x, ws, "tfeat", len(config.tnet_mlp), len(config.tnet_fc))


def graph_aggregate(feats: np.ndarray, k_graph: int, ws: WeightSet,
                    config: NetConfig = NetConfig()) -> np.ndarray:
    """Neighborhood aggregation over the feature-space kNN graph.

    Neighbors are found in the transformed feature space (a point is never
    its own neighbor; saturates at n-1), edges are built in the original
    space as concat(p_i, p_i - p_j), passed through the shared edge MLP and
    max-pooled per point, one row block at a time, so no (n, k, 2F) edge
    tensor is built.  A single row degenerates to one self-edge with a zero
    difference part.
    """
    x = np.asarray(feats, dtype=np.float32)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError("feature matrix must be (n, F) with n >= 1")
    n, f = x.shape
    t = feature_transform(x, ws, config)
    transformed = x @ t
    kk = min(k_graph, n - 1)
    nbr = kernels.feature_knn(transformed, kk) if kk else None
    # edges are built, passed through the MLP and pooled one row block at a
    # time, in one reused buffer; without neighbors its difference part stays 0
    n_blocks = -(-n // _EDGE_BLOCK_ROWS)
    cuts = [i * n // n_blocks for i in range(n_blocks + 1)]
    k = max(kk, 1)
    edges = np.zeros((-(-n // n_blocks), k, 2 * f), dtype=np.float32)
    # each layer writes into one buffer reused by every block
    n_layers = len(config.edge_mlp)
    acts = [np.empty((edges.shape[0] * k, ws[f"edge.{i}.w"].shape[1]), dtype=np.float32)
            for i in range(n_layers)]
    pooled = np.empty((n, acts[-1].shape[1]), dtype=np.float32)
    for s, e in zip(cuts[:-1], cuts[1:]):
        blk = edges[:e - s]
        blk[:, :, :f] = x[s:e, None, :]
        if kk:
            np.subtract(x[s:e, None, :], x[nbr[s:e]], out=blk[:, :, f:])
        rows = (e - s) * k
        h = _mlp(blk.reshape(rows, 2 * f), ws, "edge", n_layers, [a[:rows] for a in acts])
        h.reshape(e - s, k, -1).max(axis=1, out=pooled[s:e])
    return pooled


def _pool_vlad(feats: np.ndarray, ws: WeightSet, out: np.ndarray = None) -> np.ndarray:
    """Soft-assign rows to cluster centers and pool their residuals: the flat,
    intra-normalized float64 VLAD vector, written into ``out`` when given.

    Residual accumulation runs in float64 so the result is invariant to row
    permutations well below 1e-6.
    """
    x = np.asarray(feats, dtype=np.float32)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError("feature matrix must be (n, F') with n >= 1")
    centers = ws["vlad.centers"]
    if x.shape[1] != centers.shape[1]:
        raise ShapeError(f"tensor 'vlad.centers' expects width {centers.shape[1]}, got {x.shape[1]}")
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == np.float64
                                and out.flags.c_contiguous and out.size == centers.size):
        raise ShapeError(f"out must be a C-contiguous float64 array of {centers.size} values")
    logits = _dense(x, ws, "vlad.assign", relu=False).astype(np.float64)
    logits -= logits.max(axis=1, keepdims=True)
    a = np.exp(logits)
    a /= a.sum(axis=1, keepdims=True)
    x64 = x.astype(np.float64)
    vlad = np.matmul(a.T, x64, out=None if out is None else out.reshape(centers.shape))
    vlad -= a.sum(axis=0)[:, None] * centers.astype(np.float64)
    norms = np.linalg.norm(vlad, axis=1)
    nonzero = norms > 0.0
    vlad[nonzero] /= norms[nonzero, None]
    return vlad.ravel()


def project(flats: np.ndarray, ws: WeightSet) -> np.ndarray:
    """Project a batch of flat VLAD vectors, one a row, to unit float32 descriptors.

    The product, (B x 65,536) x (65,536 x 256) float64 at the default widths,
    is one ``np.dot`` GEMM, which releases the GIL.  It always has at least
    two rows: numpy sends a one-row product to GEMV, whose bits may differ,
    so a lone vector is padded with a zero row.  A GEMM row's bytes do not
    depend on the other rows, so a descriptor does not depend on its batch.
    Rows are normalized in order; the first zero row raises NormError.
    """
    proj_w = ws.float64("vlad.proj.w")
    if flats.ndim != 2 or flats.shape[1] != proj_w.shape[0]:
        raise ShapeError(f"tensor 'vlad.proj.w' expects input width {proj_w.shape[0]}, "
                         f"got {flats.shape[1:]}")
    n = flats.shape[0]
    if n == 1:
        flats = np.concatenate([flats, np.zeros_like(flats)])
    out = np.dot(flats, proj_w)
    out += ws["vlad.proj.b"].astype(np.float64)
    for i in range(n):
        norm = float(np.linalg.norm(out[i]))
        if norm == 0.0:
            raise NormError("projection produced a zero vector")
        out[i] /= norm
    return out[:n].astype(np.float32)


def netvlad(feats: np.ndarray, ws: WeightSet, config: NetConfig = NetConfig()) -> np.ndarray:
    """Pool residuals to the flat VLAD vector, then ``project`` it to the unit descriptor."""
    return project(_pool_vlad(feats, ws)[None], ws)[0]


def vlad_vector(submap: Submap, lf: np.ndarray, ws: WeightSet,
                config: NetConfig = NetConfig(), out: np.ndarray = None) -> np.ndarray:
    """The per-frame part of ``describe``: the forward pass from a normalized
    submap to its flat VLAD vector (``config.flat_width`` float64 values),
    written into ``out`` when given, which must be a C-contiguous float64
    array of that many values."""
    lf = np.asarray(lf, dtype=np.float32)
    if lf.ndim != 2 or lf.shape[1] != FEATURE_DIM:
        raise ShapeError(f"feature matrix must be (n, {FEATURE_DIM})")
    if lf.shape[0] != len(submap):
        raise ShapeError(f"{len(submap)} points vs {lf.shape[0]} feature rows")
    ws.validate(config)
    coords = submap.points.astype(np.float32)
    t_in = input_transform(coords, ws, config)
    aligned = coords @ t_in
    inp = np.concatenate([aligned, lf], axis=1)
    h = _mlp(inp, ws, "point", len(config.point_mlp))
    g = graph_aggregate(h, config.k_graph, ws, config)
    h2 = _mlp(g, ws, "post", len(config.post_mlp))
    return _pool_vlad(h2, ws, out)


def describe(submap: Submap, lf: np.ndarray, ws: WeightSet,
             config: NetConfig = NetConfig()) -> np.ndarray:
    """Full forward pass from a normalized submap to its global descriptor:
    ``vlad_vector``, then ``project`` of that one row."""
    return project(vlad_vector(submap, lf, ws, config)[None], ws)[0]


# histogram layout of the weight-free baseline: value range and bin count per channel
_BASELINE_BINS = (
    ((-1.0, 1.0), 64),  # z coordinate
    ((0.0, 2.0), 48),   # dz_max
    ((0.0, 1.0), 48),   # z_var
    ((0.0, 2.0), 48),   # s2d
    ((0.0, 1.0), 48),   # l2d
)


def baseline_descriptor(submap: Submap, lf: np.ndarray) -> np.ndarray:
    """Weight-free 256-d descriptor: concatenated fixed-bin histograms, L2-normalized.

    Bins cover z plus the four local features; counts are square-root damped
    before normalization so no single crowded bin dominates the vector.
    Deterministic and invariant to point order.
    """
    lf = np.asarray(lf, dtype=np.float64)
    if lf.shape[0] != len(submap):
        raise ShapeError(f"{len(submap)} points vs {lf.shape[0]} feature rows")
    channels = [submap.points[:, 2], lf[:, 0], lf[:, 1], lf[:, 2], lf[:, 3]]
    parts = []
    for (values, ((lo, hi), bins)) in zip(channels, _BASELINE_BINS):
        clipped = np.clip(values, lo, hi)
        counts, _ = np.histogram(clipped, bins=bins, range=(lo, hi))
        parts.append(counts.astype(np.float64))
    vec = np.sqrt(np.concatenate(parts))
    vec /= np.linalg.norm(vec)
    return vec.astype(np.float32)


def lazy_quadruplet_loss(d_anchor, positives, negatives, neg_star,
                         alpha: float = 0.5, beta: float = 0.2) -> float:
    """Hinge loss over an anchor, positives, negatives and an extra negative.

    With squared L2 distances d, the value is
    max_j [alpha + min_pos - d(anchor, neg_j)]+  +
    max_k [beta + min_pos - d(neg*, neg_k)]+ .
    """
    anchor = np.asarray(d_anchor, dtype=np.float64)
    pos = np.asarray(positives, dtype=np.float64)
    neg = np.asarray(negatives, dtype=np.float64)
    star = np.asarray(neg_star, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[0] < 1:
        raise EmptyInput("need at least one positive")
    if neg.ndim != 2 or neg.shape[0] < 1:
        raise EmptyInput("need at least one negative")
    min_pos = float(kernels.sum_d2(pos, anchor).min())
    d_neg = kernels.sum_d2(neg, anchor)
    d_star = kernels.sum_d2(neg, star)
    first = float(np.maximum(alpha + min_pos - d_neg, 0.0).max())
    second = float(np.maximum(beta + min_pos - d_star, 0.0).max())
    return first + second
