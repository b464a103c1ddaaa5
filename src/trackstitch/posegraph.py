"""Pose graph over all frames with relative-motion edges, and its optimizer.

The graph state is one similarity transform per video frame (a single node
per global frame id, even where chunks overlap).  Edges assert the expected
transform of one frame in another frame's coordinates:

- intra edges come from chunk-local odometry (consecutive frames plus short
  skip pairs) and are exact at the stitched initialization by construction;
- cross edges are measured between keyframes of different chunks by
  registering their point clouds, re-sampled every refinement round;
- loop edges are cross-chunk closures proposed geometrically and validated
  by the same point registration.

Node states live on Sim(3) so per-chunk scale error can be corrected; the
scale component of every residual is softly pinned, which keeps the extra
degree of freedom well conditioned.  Optimization is Levenberg-Marquardt on
the 7-vector residual log(M^-1 X_i^-1 X_j) with a Huber kernel, solved over
a sparse normal system.  A keyframes-only level optimizes a reduced graph
and re-anchors the remaining frames by their chunk-local offset from the
nearest preceding keyframe.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix, diags
from scipy.sparse.linalg import spsolve
from scipy.spatial import cKDTree

from .chunkio import ChunkReconstruction, Trajectory
from .errors import DegenerateAlignmentError, OptimizerDiverged
from .geometry import (
    Pose,
    Rotation,
    Sim3Transform,
    sim3_adjoint,
    sim3_compose,
    sim3_exp,
    sim3_inverse,
    sim3_log,
)
from .stitch import StitchResult, umeyama

_INTRA_SIGMA_R = 0.005  # rad, odometry edge rotation stiffness
_INTRA_SIGMA_T = 0.05  # m, odometry edge translation stiffness
_SCALE_SIGMA = 0.01  # log-scale residual stiffness
_HUBER_SCALE = 1.0  # m
_SKIP_STRIDE = 5  # intra skip edges every N frames
_CROSS_DISTANCE_SIGMA = 25.0  # m, cross-edge sampling falloff
_MATCH_RADIUS = 0.5  # m, mutual nearest-neighbor gate
_MIN_MATCHES = 50
_MIN_OVERLAP = 0.3
_MEASURE_ITERATIONS = 5
_WEIGHT_CAP = 300  # matches at which cross-edge weight saturates
_LAMBDA_INIT = 1e-4
_LAMBDA_GROW = 10.0
_LAMBDA_SHRINK = 3.0
_LAMBDA_MAX = 1e10
_REL_DECREASE = 1e-9


def _info_diag(scalar: float = 1.0) -> np.ndarray:
    """Diagonal information for one edge: [rot x3, trans x3, scale]."""
    return scalar * np.array(
        [1.0 / _INTRA_SIGMA_R**2] * 3
        + [1.0 / _INTRA_SIGMA_T**2] * 3
        + [1.0 / _SCALE_SIGMA**2]
    )


@dataclass
class FrameNode:
    frame: int
    chunk_id: int  # owning chunk (earliest that contains the frame)
    timestamp: float
    pose: Sim3Transform  # current global estimate
    keyframe: bool = False
    fixed: bool = False
    build_scale: float = 1.0  # owner gauge scale at graph construction


@dataclass
class GraphEdge:
    i: int  # frame id
    j: int  # frame id, != i
    measurement: Sim3Transform  # expected pose of j in i's coordinates
    weight: np.ndarray  # 7-vector diagonal information
    kind: str  # intra | cross | loop
    kernel_scale: float = _HUBER_SCALE  # Huber width, meters
    active: bool = True


@dataclass
class Schedule:
    rounds: int = 5
    local_iterations: int = 10
    global_iterations: int = 20
    cross_edges_per_chunk: int = 20
    keyframe_stride: int = 10
    seed: int = 0

    def __post_init__(self):
        counts = (
            self.rounds,
            self.local_iterations,
            self.global_iterations,
            self.cross_edges_per_chunk,
        )
        if any(c < 0 for c in counts):
            raise ValueError("schedule counts must be non-negative")
        if self.keyframe_stride < 1:
            raise ValueError("keyframe stride must be at least 1")


@dataclass
class OptimizeResult:
    cost_initial: float
    cost_final: float
    iterations: int
    num_edges: int
    trace: list = field(default_factory=list)


@dataclass
class StageDiagnostics:
    round: int
    stage: str  # local | global
    num_edges: int
    cost_initial: float
    cost_final: float
    iterations: int
    ate_proxy: float  # RMS translation residual over active edges


@dataclass
class RelativeMeasurement:
    transform: Sim3Transform | None
    num_matches: int
    overlap_ratio: float
    weight: float
    reason: str | None = None  # too-few-matches | low-overlap

    @property
    def ok(self) -> bool:
        return self.reason is None


class PoseGraph:
    def __init__(self):
        self.nodes: dict[int, FrameNode] = {}
        self.edges: list[GraphEdge] = []
        self.local_poses: dict[int, dict[int, Pose]] = {}
        self.chunk_scales: dict[int, float] = {}
        self._edge_keys: set[tuple[int, int, str]] = set()

    def add_node(self, node: FrameNode):
        if node.frame in self.nodes:
            raise ValueError(f"duplicate node for frame {node.frame}")
        self.nodes[node.frame] = node

    def add_edge(self, edge: GraphEdge):
        if edge.i == edge.j:
            raise ValueError("self edges are not allowed")
        if edge.i not in self.nodes or edge.j not in self.nodes:
            raise ValueError(f"edge ({edge.i}, {edge.j}) references unknown frames")
        w = np.asarray(edge.weight, dtype=float)
        if not (np.all(np.isfinite(w)) and np.all(w > 0.0)):
            raise ValueError("edge weights must be finite and positive")
        key = (min(edge.i, edge.j), max(edge.i, edge.j), edge.kind)
        if key in self._edge_keys:
            raise ValueError(f"duplicate {edge.kind} edge between {edge.i} and {edge.j}")
        self._edge_keys.add(key)
        self.edges.append(edge)

    def remove_edges(self, kind: str):
        self.edges = [e for e in self.edges if e.kind != kind]
        self._edge_keys = {k for k in self._edge_keys if k[2] != kind}

    def has_edge(self, i: int, j: int, kind: str) -> bool:
        return (min(i, j), max(i, j), kind) in self._edge_keys

    def frames(self) -> list[int]:
        return sorted(self.nodes)

    def keyframes(self) -> list[int]:
        return sorted(f for f, n in self.nodes.items() if n.keyframe)

    def positions(self) -> np.ndarray:
        return np.array([self.nodes[f].pose.translation for f in self.frames()])

    def validate(self):
        """Check the one-fixed-anchor-per-connected-component invariant."""
        parent = {f: f for f in self.nodes}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in self.edges:
            ra, rb = find(e.i), find(e.j)
            if ra != rb:
                parent[ra] = rb
        fixed_per_root: dict[int, int] = {}
        for f, n in self.nodes.items():
            r = find(f)
            fixed_per_root.setdefault(r, 0)
            if n.fixed:
                fixed_per_root[r] += 1
        bad = {r: c for r, c in fixed_per_root.items() if c != 1}
        if bad:
            raise ValueError(f"components with fixed-node count != 1: {bad}")


def _intra_measurement(
    local_a: Pose, local_b: Pose, scale_a: float, scale_b: float, scale_chunk: float
) -> Sim3Transform:
    """Expected Sim(3) of node b in node a from chunk-local odometry.

    Node states inherit their owner gauge's scale, so an edge whose
    endpoints were initialized by different gauges (a seam frame owned by
    the previous chunk) must carry the scale ratio; with equal scales this
    reduces to the plain relative pose.
    """
    rel = local_a.inverse().compose(local_b)
    return Sim3Transform(scale_b / scale_a, rel.rotation, (scale_chunk / scale_a) * rel.translation)


def build_graph(stitch: StitchResult, chunks: list[ChunkReconstruction]) -> PoseGraph:
    """Pose graph from stitched chunks: nodes at stitched poses, odometry edges.

    Intra edges connect consecutive frames and stride-5 skip pairs within
    each chunk; at the stitched initialization every intra residual is zero
    because the initialization is the integral of the same odometry.  The
    first frame of chunk 0 is fixed.
    """
    if len(stitch.gauges) != len(chunks):
        raise ValueError("one gauge per chunk required")
    graph = PoseGraph()
    for chunk, gauge in zip(chunks, stitch.gauges):
        k = chunk.chunk_id
        graph.chunk_scales[k] = gauge.scale
        graph.local_poses[k] = {rec.frame: rec.pose for rec in chunk.frames}
        for rec in chunk.frames:
            if rec.frame in graph.nodes:
                continue  # seam frame already owned by an earlier chunk
            graph.add_node(
                FrameNode(
                    frame=rec.frame,
                    chunk_id=k,
                    timestamp=rec.timestamp,
                    pose=gauge.compose(Sim3Transform.from_pose(rec.pose)),
                    build_scale=gauge.scale,
                )
            )
    for chunk in chunks:
        k = chunk.chunk_id
        fs = [rec.frame for rec in chunk.frames]
        pairs = [(fs[m], fs[m + 1]) for m in range(len(fs) - 1)]
        pairs += [
            (fs[m], fs[m + _SKIP_STRIDE])
            for m in range(0, len(fs) - _SKIP_STRIDE, _SKIP_STRIDE)
        ]
        for fa, fb in pairs:
            if graph.has_edge(fa, fb, "intra"):
                continue  # shared seam pair already added by the earlier chunk
            graph.add_edge(
                GraphEdge(
                    fa,
                    fb,
                    _intra_measurement(
                        graph.local_poses[k][fa],
                        graph.local_poses[k][fb],
                        graph.nodes[fa].build_scale,
                        graph.nodes[fb].build_scale,
                        graph.chunk_scales[k],
                    ),
                    weight=_info_diag(),
                    kind="intra",
                )
            )
    first = min(graph.local_poses[chunks[0].chunk_id])
    graph.nodes[first].fixed = True
    return graph


def select_keyframes(
    graph: PoseGraph,
    stride: int = 10,
    curvature: np.ndarray | None = None,
    curvature_threshold: float = 0.002,
) -> list[int]:
    """Mark keyframes: every stride-th frame, |curvature| peaks, chunk ends.

    The fixed node and the first and last frame of every chunk are always
    keyframes.  ``curvature`` is indexed by global frame id (radians per
    frame, sign ignored).  Returns the sorted keyframe ids.
    """
    if stride < 1:
        raise ValueError("stride must be at least 1")
    frames = graph.frames()
    chosen = set(frames[::stride])
    chosen.add(frames[-1])
    for k, poses in graph.local_poses.items():
        chosen.add(min(poses))
        chosen.add(max(poses))
    if curvature is not None:
        c = np.abs(np.asarray(curvature, dtype=float))
        for f in frames:
            if f <= 0 or f >= len(c) - 1:
                continue
            if c[f] > curvature_threshold and c[f] >= c[f - 1] and c[f] >= c[f + 1]:
                chosen.add(f)
    for f, node in graph.nodes.items():
        node.keyframe = f in chosen or node.fixed
    return graph.keyframes()


def _mutual_matches(tree_a, ga, gb, radius):
    """Indices (into b, into a) of mutual nearest neighbors within radius."""
    d_ab, idx_ab = tree_a.query(gb, distance_upper_bound=radius)
    tree_b = cKDTree(gb)
    _, idx_ba = tree_b.query(ga, distance_upper_bound=radius)
    bi = np.flatnonzero(np.isfinite(d_ab))
    bi = bi[idx_ba[idx_ab[bi]] == bi]
    return bi, idx_ab[bi]


_COARSE_RADII = (12.0, 6.0, 3.0, 1.5, 0.75)


def _coarse_initial(a, a_inv, tree_a, ga, pts_b, lift_b_inv, seeds):
    """Pre-align b against a so the strict matcher has a fighting chance.

    Mutual matching at 0.5 m cannot absorb multi-meter misalignment, so
    every seed (a candidate relative of b in a) is polished coarse to fine
    first: mutual nearest neighbors at a shrinking radius, refit by a
    similarity at each level.  Returns the polished relative with the most
    matches at the strict radius together with b's points lifted by it, or
    None if every seed loses the point clouds.
    """
    best: tuple[int, Sim3Transform, np.ndarray] | None = None
    for seed in seeds:
        cur = seed
        lost = False
        for radius in _COARSE_RADII:
            gb = a.pose.compose(cur).compose(lift_b_inv).apply(pts_b)
            bi, ai = _mutual_matches(tree_a, ga, gb, radius)
            if len(bi) < 4:
                lost = True
                break
            try:
                fit = umeyama(gb[bi], ga[ai])
            except DegenerateAlignmentError:
                lost = True
                break
            cur = a_inv.compose(fit).compose(a.pose).compose(cur)
        if lost:
            continue
        gb = a.pose.compose(cur).compose(lift_b_inv).apply(pts_b)
        bi, _ = _mutual_matches(tree_a, ga, gb, _MATCH_RADIUS)
        if best is None or len(bi) > best[0]:
            best = (len(bi), cur, gb)
    return None if best is None else best[1:]


def measure_relative(
    a: FrameNode,
    b: FrameNode,
    chunks: list[ChunkReconstruction],
    offsets: "np.ndarray | tuple" = (),
) -> RelativeMeasurement:
    """Register b's points against a's to measure the relative Sim(3).

    A coarse-to-fine mutual-nearest-neighbor similarity ICP.  a's points
    are carried into the global frame by its current estimate.  Seeds for
    b's placement are the current relative estimate plus collocation
    hypotheses at the given along-view offsets (a revisit on a track
    differs mostly in where along the lane it sits); the coarse stage
    polishes each and keeps the best.  The strict stage then fits mutual
    nearest neighbors within 0.5 m by a similarity, re-associating five
    times.  Needs at least 50 matches and 30% overlap; the edge weight
    grows with match count and saturates.
    """
    rec_a = chunks[a.chunk_id].frame_map()[a.frame]
    rec_b = chunks[b.chunk_id].frame_map()[b.frame]
    pts_a, pts_b = rec_a.points, rec_b.points
    if min(len(pts_a), len(pts_b)) < 4:
        return RelativeMeasurement(None, 0, 0.0, 0.0, "too-few-matches")
    ga = a.pose.compose(Sim3Transform.from_pose(rec_a.pose).inverse()).apply(pts_a)
    tree_a = cKDTree(ga)
    lift_b_inv = Sim3Transform.from_pose(rec_b.pose).inverse()
    a_inv = a.pose.inverse()
    seeds = [a_inv.compose(b.pose)]
    seeds.extend(
        Sim3Transform(1.0, Rotation.identity(), np.array([0.0, 0.0, float(d)]))
        for d in offsets
    )
    coarse = _coarse_initial(a, a_inv, tree_a, ga, pts_b, lift_b_inv, seeds)
    if coarse is None:
        return RelativeMeasurement(None, 0, 0.0, 0.0, "too-few-matches")
    initial, gb = coarse
    fit = Sim3Transform.identity()
    matches = 0
    for _ in range(_MEASURE_ITERATIONS):
        bi, ai = _mutual_matches(tree_a, ga, fit.apply(gb), _MATCH_RADIUS)
        matches = len(bi)
        if matches < 3:
            return RelativeMeasurement(None, matches, 0.0, 0.0, "too-few-matches")
        try:
            fit = umeyama(gb[bi], ga[ai], with_scale=True)
        except DegenerateAlignmentError:
            return RelativeMeasurement(None, matches, 0.0, 0.0, "too-few-matches")
    overlap = matches / min(len(pts_a), len(pts_b))
    if matches < _MIN_MATCHES:
        return RelativeMeasurement(None, matches, overlap, 0.0, "too-few-matches")
    if overlap < _MIN_OVERLAP:
        return RelativeMeasurement(None, matches, overlap, 0.0, "low-overlap")
    # corrected placement of b implies the measured relative transform
    corrected_b = fit.compose(a.pose.compose(initial))
    transform = a_inv.compose(corrected_b)
    weight = min(matches, _WEIGHT_CAP) / _WEIGHT_CAP
    return RelativeMeasurement(transform, matches, overlap, weight)


def sample_cross_edges(
    graph: PoseGraph,
    chunk_id: int,
    count: int,
    seed: int,
    chunks: list[ChunkReconstruction],
) -> list[GraphEdge]:
    """Add up to ``count`` validated cross edges anchored in ``chunk_id``.

    Keyframe pairs (one endpoint in the chunk, one elsewhere) are drawn
    with probability proportional to exp(-d / 25 m) of their current
    distance; rejected measurements are re-drawn up to 10x count attempts.
    Zero accepted edges is reported as a warning, not a failure.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(chunk_id)]))
    own = [graph.nodes[f] for f in graph.keyframes() if graph.nodes[f].chunk_id == chunk_id]
    other = [graph.nodes[f] for f in graph.keyframes() if graph.nodes[f].chunk_id != chunk_id]
    pairs = [(x, y) for x in own for y in other]
    added: list[GraphEdge] = []
    if pairs:
        d = np.array([np.linalg.norm(x.pose.translation - y.pose.translation) for x, y in pairs])
        p = np.exp(-d / _CROSS_DISTANCE_SIGMA)
        p /= p.sum()
        tried: set[tuple[int, int]] = set()
        for _ in range(10 * count):
            if len(added) >= count:
                break
            x, y = pairs[int(rng.choice(len(pairs), p=p))]
            key = (min(x.frame, y.frame), max(x.frame, y.frame))
            if key in tried or graph.has_edge(x.frame, y.frame, "cross"):
                continue
            tried.add(key)
            meas = measure_relative(x, y, chunks)
            if not meas.ok:
                continue
            edge = GraphEdge(
                x.frame,
                y.frame,
                meas.transform,
                weight=_info_diag(meas.weight),
                kind="cross",
            )
            graph.add_edge(edge)
            added.append(edge)
    if not added:
        warnings.warn(f"no cross edges accepted for chunk {chunk_id}", stacklevel=2)
    return added


def detect_loop_closures(
    graph: PoseGraph, radius: float, min_gap: float
) -> list[tuple[int, int]]:
    """Geometric loop candidates: keyframe pairs near in space, far in time.

    Pairs whose current distance is below ``radius`` with timestamps more
    than ``min_gap`` seconds apart, deduplicated so only the locally
    nearest pair of each revisit region survives.
    """
    kf = [graph.nodes[f] for f in graph.keyframes()]
    pos = np.array([n.pose.translation for n in kf])
    times = np.array([n.timestamp for n in kf])
    cands = []
    for ia in range(len(kf)):
        d = np.linalg.norm(pos[ia + 1 :] - pos[ia], axis=1)
        dt = np.abs(times[ia + 1 :] - times[ia])
        for off in np.flatnonzero((d < radius) & (dt > min_gap)):
            ib = ia + 1 + int(off)
            cands.append((float(d[off]), kf[ia].frame, kf[ib].frame))
    cands.sort()
    accepted: list[tuple[int, int]] = []
    for _, fa, fb in cands:
        ta, tb = graph.nodes[fa].timestamp, graph.nodes[fb].timestamp
        crowded = False
        for fa2, fb2 in accepted:
            if (
                abs(ta - graph.nodes[fa2].timestamp) < min_gap / 2.0
                and abs(tb - graph.nodes[fb2].timestamp) < min_gap / 2.0
            ):
                crowded = True
                break
        if not crowded:
            accepted.append((fa, fb))
    return accepted


def apply_loop_closures(
    graph: PoseGraph,
    candidates: list[tuple[int, int]],
    chunks: list[ChunkReconstruction],
    scan_range: float = 25.0,
    scan_step: float = 2.5,
    min_overlap: float = 0.5,
) -> list[GraphEdge]:
    """Validate candidates by point registration and add the surviving edges.

    A candidate's current relative estimate is poisoned by exactly the
    drift the closure should fix, and the detector pairs drifted positions,
    so the true revisit partner can sit several keyframes away from the
    proposed one.  Validation therefore slides the second endpoint across
    its keyframe neighborhood, seeds a coarse-to-fine registration with
    collocation hypotheses over a grid of along-view offsets, and hands
    each winner to the strict matcher, which keeps its usual match-count
    and overlap gates.

    Loop evidence gets an elevated overlap bar (``min_overlap``): two
    congruent but distinct stretches of surface (think parallel straights
    with identical wall spacing) can chance-match a third of their points,
    sneaking past the standard gate, while a genuine revisit of the same
    ground re-matches well over half.  A closure edge is load-bearing for
    the whole trajectory, so only the latter is accepted.
    """
    added = []
    shifts = np.arange(-scan_range, scan_range + 1e-9, scan_step)
    kfs = sorted(graph.keyframes())
    index = {f: i for i, f in enumerate(kfs)}
    for fa, fb in candidates:
        a = graph.nodes[fa]
        ib = index.get(fb)
        if ib is None:
            trials = [fb]
        else:
            trials = kfs[max(0, ib - 6) : ib + 7]
        best: tuple[RelativeMeasurement, int] | None = None
        for fb2 in trials:
            if fb2 == fa or graph.has_edge(fa, fb2, "loop"):
                continue
            meas = measure_relative(a, graph.nodes[fb2], chunks, offsets=shifts)
            if meas.ok and (best is None or meas.num_matches > best[0].num_matches):
                best = (meas, fb2)
        if best is None or best[0].overlap_ratio < min_overlap:
            continue
        meas, fb2 = best
        edge = GraphEdge(
            fa,
            fb2,
            meas.transform,
            weight=_info_diag(meas.weight),
            kind="loop",
        )
        graph.add_edge(edge)
        added.append(edge)
    return added


# ---------------------------------------------------------------------------
# optimizer

_FD_STEP = 1e-5
_FD_Q, _FD_T, _FD_S = sim3_exp(
    np.concatenate([_FD_STEP * np.eye(7), -_FD_STEP * np.eye(7)])
)


def _node_state(graph: PoseGraph, frames: list[int]):
    q = np.array([graph.nodes[f].pose.rotation.wxyz for f in frames])
    t = np.array([graph.nodes[f].pose.translation for f in frames])
    s = np.array([graph.nodes[f].pose.scale for f in frames])
    return q, t, s


def _residuals(q, t, s, ia, ja, mq, mt, ms):
    """Batch residual log(M^-1 X_i^-1 X_j): (rel, err, twist)."""
    rel = sim3_compose(*sim3_inverse(q[ia], t[ia], s[ia]), q[ja], t[ja], s[ja])
    err = sim3_compose(*sim3_inverse(mq, mt, ms), *rel)
    return rel, err, sim3_log(*err)


def _inv_right_jacobian(eq, et, es):
    """d log(E exp(delta)) / d delta at delta = 0, batched (E, 7, 7).

    Central differences along the 7 twist directions.  Keeping this factor
    exact (rather than the common small-residual identity approximation)
    matters here: loop and cross edges start with residuals of whole
    meters, and the inexact gradient would bias where the optimizer stops.
    """
    q2, t2, s2 = sim3_compose(
        eq[..., None, :], et[..., None, :], np.asarray(es)[..., None], _FD_Q, _FD_T, _FD_S
    )
    logs = sim3_log(q2, t2, s2)  # (E, 14, 7)
    return (logs[..., :7, :] - logs[..., 7:, :]).swapaxes(-1, -2) / (2.0 * _FD_STEP)


def _robust(r, weight, delta):
    """Huber-weighted cost terms: (cost per edge, IRLS weight per edge)."""
    e = np.sqrt(np.einsum("ek,ek,ek->e", r, weight, r).clip(min=0.0))
    small = e <= delta
    cost = np.where(small, e**2, 2.0 * delta * e - delta**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(small, 1.0, delta / np.where(e == 0.0, 1.0, e))
    return cost, w


def _backbone_edges(graph: PoseGraph) -> list[GraphEdge]:
    """Synthesized odometry edges between consecutive keyframes of a chunk.

    The keyframes-only level needs a connected reduced graph even though
    stored intra edges mostly touch non-keyframes; these composed edges
    carry the same chunk-local information with variance grown by the
    square of the composed step count (per-chunk drift is a coherent bias,
    so composed error grows linearly, not like a random walk).  They are
    ephemeral (never stored).
    """
    out = []
    for k in sorted(graph.local_poses):
        poses = graph.local_poses[k]
        kfs = sorted(f for f in poses if graph.nodes[f].keyframe)
        for fa, fb in zip(kfs[:-1], kfs[1:]):
            if graph.has_edge(fa, fb, "intra"):
                continue  # a stored edge already links these keyframes directly
            meas = _intra_measurement(
                poses[fa],
                poses[fb],
                graph.nodes[fa].build_scale,
                graph.nodes[fb].build_scale,
                graph.chunk_scales[k],
            )
            out.append(
                GraphEdge(
                    fa, fb, meas, weight=_info_diag(1.0 / (fb - fa) ** 2), kind="intra"
                )
            )
    return out


def _propagate_from_keyframes(graph: PoseGraph):
    """Re-anchor non-keyframes on the nearest preceding keyframe.

    Each non-keyframe's chunk-local relative pose to that keyframe is
    preserved exactly, so local shape survives a keyframes-only update.
    """
    for k in sorted(graph.local_poses):
        poses = graph.local_poses[k]
        fs = sorted(poses)
        last_kf = None
        for f in fs:
            node = graph.nodes[f]
            if node.keyframe:
                last_kf = f
                continue
            if node.chunk_id != k or last_kf is None:
                continue  # seam frames are re-anchored by their owner chunk
            meas = _intra_measurement(
                poses[last_kf],
                poses[f],
                graph.nodes[last_kf].build_scale,
                node.build_scale,
                graph.chunk_scales[k],
            )
            node.pose = graph.nodes[last_kf].pose.compose(meas)


def _edge_arrays(edges: list[GraphEdge], index: dict[int, int]):
    """Endpoint node indices and measurements: (ia, ja, mq, mt, ms)."""
    ia = np.array([index[e.i] for e in edges])
    ja = np.array([index[e.j] for e in edges])
    mq = np.array([e.measurement.rotation.wxyz for e in edges])
    mt = np.array([e.measurement.translation for e in edges])
    ms = np.array([e.measurement.scale for e in edges])
    return ia, ja, mq, mt, ms


def _edge_rms(graph: PoseGraph) -> float:
    """RMS translation residual over active edges (drift proxy, no reference)."""
    edges = [e for e in graph.edges if e.active]
    if not edges:
        return 0.0
    frames = graph.frames()
    index = {f: i for i, f in enumerate(frames)}
    q, t, s = _node_state(graph, frames)
    try:
        _, _, r = _residuals(q, t, s, *_edge_arrays(edges, index))
    except ValueError:
        return float("inf")
    return float(np.sqrt(np.mean(np.sum(r[:, 3:6] ** 2, axis=1))))


def optimize(
    graph: PoseGraph,
    iterations: int = 20,
    level: str = "all-frames",
    freeze: tuple[int, ...] = (),
) -> OptimizeResult:
    """Levenberg-Marquardt over the active edges of the requested level.

    "keyframes-only" reduces the graph to keyframe nodes (adding ephemeral
    composed odometry edges between consecutive keyframes) and afterwards
    re-anchors every other frame; "all-frames" optimizes everything.
    Robust cost never increases across accepted steps; a non-finite cost
    aborts with a diagnostic dump.
    """
    if level not in ("keyframes-only", "all-frames"):
        raise ValueError(f"unknown level {level!r}")
    reduced = level == "keyframes-only"
    if reduced:
        edges = [e for e in graph.edges if e.active and
                 graph.nodes[e.i].keyframe and graph.nodes[e.j].keyframe]
        edges += _backbone_edges(graph)
        movable = graph.keyframes()
    else:
        edges = [e for e in graph.edges if e.active]
        movable = graph.frames()
    frozen = set(freeze)
    free = [f for f in movable if not graph.nodes[f].fixed and f not in frozen]
    if not edges or not free:
        return OptimizeResult(0.0, 0.0, 0, len(edges))

    frames = graph.frames()
    index = {f: i for i, f in enumerate(frames)}
    q, t, s = _node_state(graph, frames)
    ia, ja, mq, mt, ms = _edge_arrays(edges, index)
    weight = np.array([e.weight for e in edges])
    delta = np.array([e.kernel_scale * math.sqrt(w[3]) for e, w in zip(edges, weight)])

    col = {index[f]: c for c, f in enumerate(free)}
    free_idx = np.array([index[f] for f in free])
    n_free = len(free)

    def eval_cost(qc, tc, sc):
        _, _, r = _residuals(qc, tc, sc, ia, ja, mq, mt, ms)
        cost, w_rob = _robust(r, weight, delta)
        return float(cost.sum()), r, w_rob

    def dump(extra):
        return {
            "level": level,
            "num_edges": len(edges),
            "num_free": n_free,
            **extra,
        }

    try:
        total, r, w_rob = eval_cost(q, t, s)
    except ValueError as exc:
        raise OptimizerDiverged("residual left the principal branch", dump({})) from exc
    if not np.isfinite(total):
        raise OptimizerDiverged("non-finite initial cost", dump({"cost": total}))

    cost_initial = total
    trace = [total]
    lam = _LAMBDA_INIT
    it_run = 0

    i_free = np.isin(ia, free_idx)
    j_free = np.isin(ja, free_idx)
    col_i = np.array([col.get(x, -1) for x in ia])
    col_j = np.array([col.get(x, -1) for x in ja])

    for _ in range(iterations):
        it_run += 1
        # linearize with right-multiplicative updates X <- X exp(delta):
        # J_j = Jr^-1(r), J_i = -Jr^-1(r) Ad((X_i^-1 X_j)^-1)
        rel, err, r = _residuals(q, t, s, ia, ja, mq, mt, ms)
        _, w_rob = _robust(r, weight, delta)
        jr = _inv_right_jacobian(*err)
        jj = jr
        ji = -(jr @ sim3_adjoint(*sim3_inverse(*rel)))
        wdiag = weight * w_rob[:, None]
        wr = wdiag * r

        rows, cols, vals = [], [], []
        g = np.zeros(7 * n_free)
        gm = g.reshape(n_free, 7)
        block = np.arange(7)

        def add_block(rcol, ccol, mat):
            rr = (7 * rcol[:, None, None] + block[None, :, None]).repeat(7, axis=2)
            cc = (7 * ccol[:, None, None] + block[None, None, :]).repeat(7, axis=1)
            rows.append(rr.ravel())
            cols.append(cc.ravel())
            vals.append(mat.ravel())

        for jmat, colv, sel in ((ji, col_i, i_free), (jj, col_j, j_free)):
            if not sel.any():
                continue
            wj = wdiag[sel, :, None] * jmat[sel]
            add_block(colv[sel], colv[sel], np.einsum("eki,ekj->eij", jmat[sel], wj))
            np.add.at(gm, colv[sel], -np.einsum("eki,ek->ei", jmat[sel], wr[sel]))
        both = i_free & j_free
        if both.any():
            cross = np.einsum(
                "eki,ekj->eij", ji[both], wdiag[both, :, None] * jj[both]
            )
            add_block(col_i[both], col_j[both], cross)
            add_block(col_j[both], col_i[both], cross.transpose(0, 2, 1))

        h = coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(7 * n_free, 7 * n_free),
        ).tocsr()

        accepted = False
        hdiag = h.diagonal()
        hdiag = np.where(hdiag > 0.0, hdiag, 1.0)
        while lam <= _LAMBDA_MAX:
            damped = h + diags(lam * hdiag, format="csr")
            step = spsolve(damped.tocsc(), g)
            if not np.all(np.isfinite(step)):
                lam *= _LAMBDA_GROW
                continue
            dq, dt, ds = sim3_exp(step.reshape(n_free, 7))
            q2, t2, s2 = q.copy(), t.copy(), s.copy()
            q2[free_idx], t2[free_idx], s2[free_idx] = sim3_compose(
                q[free_idx], t[free_idx], s[free_idx], dq, dt, ds
            )
            try:
                new_total, _, _ = eval_cost(q2, t2, s2)
            except ValueError:
                lam *= _LAMBDA_GROW
                continue
            if not np.isfinite(new_total):
                raise OptimizerDiverged(
                    "non-finite cost during line search",
                    dump({"iteration": it_run, "lambda": lam, "cost": new_total}),
                )
            if new_total < total:
                q, t, s = q2, t2, s2
                improvement = (total - new_total) / max(total, 1e-300)
                total = new_total
                lam = max(lam / _LAMBDA_SHRINK, 1e-15)
                accepted = True
                trace.append(total)
                break
            lam *= _LAMBDA_GROW
        if not accepted:
            break
        if improvement < _REL_DECREASE:
            break

    for f in free:
        i = index[f]
        graph.nodes[f].pose = Sim3Transform(float(s[i]), Rotation(q[i]), t[i])
    if reduced:
        _propagate_from_keyframes(graph)
    return OptimizeResult(cost_initial, total, it_run, len(edges), trace)


def alternating_refinement(
    graph: PoseGraph,
    schedule: Schedule,
    chunks: list[ChunkReconstruction],
) -> list[StageDiagnostics]:
    """Rounds of local odometry relaxation and keyframe-level global fusion.

    The two stages split the variables: the global stage places keyframes
    using cross and loop evidence, the local stage smooths the frames in
    between over intra edges with every keyframe held.  Per round:
    (1) local smoothing, (2) sample fresh cross edges and optimize the
    keyframe graph with them and any loop edges, (3) drop the round's
    cross edges.  Block coordinate descent over disjoint variable sets, so
    the rounds settle instead of undoing each other.
    """
    diagnostics: list[StageDiagnostics] = []
    if schedule.rounds == 0:
        return diagnostics
    if not any(n.keyframe for n in graph.nodes.values()):
        select_keyframes(graph, schedule.keyframe_stride)
    for rnd in range(schedule.rounds):
        saved = [(e, e.active) for e in graph.edges if e.kind != "intra"]
        for e, _ in saved:
            e.active = False
        res = optimize(
            graph, schedule.local_iterations, "all-frames", freeze=tuple(graph.keyframes())
        )
        for e, was in saved:
            e.active = was
        diagnostics.append(
            StageDiagnostics(
                rnd, "local", res.num_edges, res.cost_initial, res.cost_final,
                res.iterations, _edge_rms(graph),
            )
        )

        graph.remove_edges("cross")
        round_seed = int(np.random.SeedSequence([schedule.seed, 3, rnd]).generate_state(1)[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # per-chunk zero-acceptance is fine here
            for k in sorted(graph.local_poses):
                sample_cross_edges(
                    graph, k, schedule.cross_edges_per_chunk, round_seed, chunks
                )
        res = optimize(graph, schedule.global_iterations, "keyframes-only")
        diagnostics.append(
            StageDiagnostics(
                rnd, "global", res.num_edges, res.cost_initial, res.cost_final,
                res.iterations, _edge_rms(graph),
            )
        )
        graph.remove_edges("cross")
    return diagnostics


def graph_trajectory(graph: PoseGraph) -> Trajectory:
    """Current node estimates as a trajectory (scales dropped)."""
    frames = graph.frames()
    ts = np.array([graph.nodes[f].timestamp for f in frames])
    poses = [
        Pose(graph.nodes[f].pose.rotation, graph.nodes[f].pose.translation) for f in frames
    ]
    return Trajectory(ts, poses)
