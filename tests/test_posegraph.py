"""Frame graph assembly, cross-chunk measurement, and robust refinement."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from trackstitch.chunkio import ChunkReconstruction, FrameRecord, Intrinsics
from trackstitch.errors import OptimizerDiverged
from trackstitch.geometry import (
    Pose,
    Rotation,
    Sim3Transform,
    sim3_adjoint,
    sim3_compose,
    sim3_exp,
    sim3_inverse,
    sim3_log,
)
from trackstitch.posegraph import (
    FrameNode,
    GraphEdge,
    PoseGraph,
    Schedule,
    alternating_refinement,
    apply_loop_closures,
    build_graph,
    detect_loop_closures,
    graph_trajectory,
    measure_relative,
    optimize,
    sample_cross_edges,
    select_keyframes,
    _intra_measurement,
    _inv_right_jacobian,
    _residuals,
)
from trackstitch.preprocess import VideoMeta, plan_fixed_chunks
from trackstitch.sim import make_track, square, synth_chunks
from trackstitch.stitch import stitch_chunks


def _arc_sim(noise="none", seed=7, num_frames=19, chunk_seconds=5.0, points=150):
    """Open arc drive: 2 fps, 10-frame chunks with a one-frame seam."""
    track = make_track([("arc", 2.0 * math.pi, 120.0)])
    meta = VideoMeta(num_frames=num_frames, fps=2.0, width=256, height=144)
    plan = plan_fixed_chunks(meta, chunk_seconds=chunk_seconds, overlap_frames=1)
    return synth_chunks(track, meta, plan, speed=6.0, noise=noise, seed=seed, points_per_frame=points)


def _square_sim(noise="none", seed=3, laps=1.0, points=240):
    """Closed rounded-square circuit, 48 frames per lap."""
    track = square()
    frames_per_lap = 48
    speed = track.length * 2.0 / frames_per_lap
    meta = VideoMeta(
        num_frames=int(round(frames_per_lap * laps)) + 1, fps=2.0, width=256, height=144
    )
    plan = plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    return synth_chunks(track, meta, plan, speed=speed, noise=noise, seed=seed, points_per_frame=points)


def _graph_of(res, stride=None):
    g = build_graph(stitch_chunks(res.chunks), res.chunks)
    if stride is not None:
        select_keyframes(g, stride=stride)
    return g


def _edge_residual(graph, edge):
    rel = graph.nodes[edge.i].pose.inverse().compose(graph.nodes[edge.j].pose)
    err = edge.measurement.inverse().compose(rel)
    return sim3_log(err.rotation.wxyz, err.translation, err.scale)


def _pose_snapshot(graph):
    return {
        f: (n.pose.rotation.wxyz.copy(), n.pose.translation.copy(), n.pose.scale)
        for f, n in graph.nodes.items()
    }


def _max_pose_delta(graph, snap):
    worst = 0.0
    for f, (q, t, s) in snap.items():
        node = graph.nodes[f]
        worst = max(
            worst,
            float(np.linalg.norm(node.pose.translation - t)),
            node.pose.rotation.angle_to(Rotation(q)),
            abs(node.pose.scale - s),
        )
    return worst


# ---------------------------------------------------------------------------
# graph construction


def test_build_graph_two_chunk_topology():
    g = _graph_of(_arc_sim())
    assert len(g.nodes) == 19
    assert all(e.kind == "intra" for e in g.edges)
    consecutive = {(e.i, e.j) for e in g.edges if e.j - e.i == 1}
    assert consecutive == {(f, f + 1) for f in range(18)}
    skips = sorted((e.i, e.j) for e in g.edges if e.j - e.i > 1)
    assert skips == [(0, 5), (9, 14)]
    fixed = [f for f, n in g.nodes.items() if n.fixed]
    assert fixed == [0]


def test_build_graph_single_chunk():
    g = _graph_of(_arc_sim(num_frames=10))
    assert len(g.nodes) == 10
    assert sum(n.fixed for n in g.nodes.values()) == 1
    assert not [e for e in g.edges if e.kind != "intra"]
    g.validate()


@pytest.mark.parametrize("noise", ["none", "gauges"])
def test_build_graph_residuals_vanish_without_noise(noise):
    g = _graph_of(_arc_sim(noise=noise))
    for e in g.edges:
        assert np.linalg.norm(_edge_residual(g, e)) < 1e-10


def test_build_graph_seam_frame_owned_once():
    g = _graph_of(_arc_sim())
    assert g.nodes[9].chunk_id == 0
    assert 9 in g.local_poses[0] and 9 in g.local_poses[1]


# ---------------------------------------------------------------------------
# keyframe selection


def test_keyframes_stride_ten_hundred_frames():
    g = _graph_of(_arc_sim(num_frames=100, chunk_seconds=50.0))
    assert len(g.local_poses) == 1
    chosen = select_keyframes(g, stride=10)
    assert chosen == sorted({0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99})


def test_keyframes_stride_one_marks_all():
    g = _graph_of(_arc_sim())
    assert select_keyframes(g, stride=1) == list(range(19))


def test_keyframes_curvature_spike_included():
    g = _graph_of(_arc_sim(num_frames=100, chunk_seconds=50.0))
    curvature = np.zeros(100)
    curvature[37] = 0.01
    chosen = select_keyframes(g, stride=100, curvature=curvature)
    assert chosen == [0, 37, 99]


def test_keyframes_chunk_boundaries_always_kept():
    g = _graph_of(_arc_sim())
    chosen = select_keyframes(g, stride=7)
    for boundary in (0, 9, 18):
        assert boundary in chosen


def test_keyframes_invalid_stride():
    g = _graph_of(_arc_sim(num_frames=10))
    with pytest.raises(ValueError, match="stride"):
        select_keyframes(g, stride=0)


# ---------------------------------------------------------------------------
# relative measurement on hand-built clouds


_INTR = Intrinsics(fx=200.0, fy=200.0, cx=128.0, cy=72.0)


def _cloud_frame(frame, chunk_id, points):
    def rec(f, pts):
        pts = np.asarray(pts, dtype=float)
        return FrameRecord(
            frame=f,
            timestamp=float(f),
            pose=Pose.identity(),
            intrinsics=_INTR,
            points=pts,
            pixels=np.zeros((len(pts), 2)),
            confidence=np.ones(len(pts)),
        )

    # chunks need a second frame; park it far away so it never matches
    padding = rec(frame + 50, np.eye(3) * 4.0 + [0.0, 0.0, 9.0e5])
    return ChunkReconstruction(chunk_id=chunk_id, frames=[rec(frame, points), padding])


def _measure_fixture(true_rel, estimate_rel, pts=None):
    """Frame b sees the same world surface as a, displaced by true_rel."""
    rng = np.random.default_rng(17)
    if pts is None:
        pts = rng.uniform(-15.0, 15.0, size=(320, 3))
    chunks = [
        _cloud_frame(0, 0, pts),
        _cloud_frame(1, 1, true_rel.inverse().apply(pts)),
    ]
    a = FrameNode(frame=0, chunk_id=0, timestamp=0.0, pose=Sim3Transform.identity())
    b = FrameNode(frame=1, chunk_id=1, timestamp=1.0, pose=estimate_rel)
    return a, b, chunks


def test_measure_relative_identity_colocated():
    ident = Sim3Transform.identity()
    a, b, chunks = _measure_fixture(ident, ident)
    meas = measure_relative(a, b, chunks)
    assert meas.ok
    assert meas.num_matches == 320
    assert meas.overlap_ratio == 1.0
    assert meas.weight == 1.0
    assert np.linalg.norm(meas.transform.translation) < 1e-9
    assert meas.transform.rotation.angle < 1e-9
    assert abs(meas.transform.scale - 1.0) < 1e-9


def test_measure_relative_recovers_known_sim3():
    true_rel = Sim3Transform(1.13, Rotation.exp([0.2, 0.1, -0.3]), [4.0, -2.0, 1.0])
    guess = true_rel.compose(
        Sim3Transform(1.0, Rotation.exp([0.0, 0.0, 0.005]), [0.12, -0.08, 0.05])
    )
    a, b, chunks = _measure_fixture(true_rel, guess)
    meas = measure_relative(a, b, chunks)
    assert meas.ok
    err = true_rel.inverse().compose(meas.transform)
    assert np.linalg.norm(err.translation) < 1e-6
    assert err.rotation.angle < 1e-6
    assert abs(err.scale - 1.0) < 1e-6


def test_measure_relative_offset_seed_recovers_displaced_pair():
    # a flat slab of surface seen 20.6 m further along the view axis: no
    # point of b lies within the coarsest radius of a from the current
    # relative, so only a collocation seed on the along-view offset grid
    # brings the clouds into reach of the coarse stage
    rng = np.random.default_rng(23)
    slab = rng.uniform([-15.0, -15.0, -3.0], [15.0, 15.0, 3.0], size=(320, 3))
    true_rel = Sim3Transform(1.02, Rotation.exp([0.0, 0.01, 0.02]), [0.3, -0.2, 20.6])
    a, b, chunks = _measure_fixture(true_rel, Sim3Transform.identity(), pts=slab)
    offsets = np.arange(-25.0, 25.0 + 1e-9, 2.5)
    meas = measure_relative(a, b, chunks, offsets=offsets)
    assert meas.ok
    err = true_rel.inverse().compose(meas.transform)
    assert np.linalg.norm(err.translation) < 1e-6
    assert err.rotation.angle < 1e-6
    assert abs(err.scale - 1.0) < 1e-6
    unseeded = measure_relative(a, b, chunks)
    assert not unseeded.ok
    assert unseeded.reason == "too-few-matches"


def test_measure_relative_invariant_to_rigid_regauge():
    # the displaced slab of the offset-seed case: only a collocation seed
    # reaches it, so both seed kinds must move with the gauge
    rng = np.random.default_rng(23)
    slab = rng.uniform([-15.0, -15.0, -3.0], [15.0, 15.0, 3.0], size=(320, 3))
    true_rel = Sim3Transform(1.02, Rotation.exp([0.0, 0.01, 0.02]), [0.3, -0.2, 20.6])
    a, b, chunks = _measure_fixture(true_rel, Sim3Transform.identity(), pts=slab)
    offsets = np.arange(-25.0, 25.0 + 1e-9, 2.5)
    before = measure_relative(a, b, chunks, offsets=offsets)
    gauge = Sim3Transform(1.0, Rotation.exp([0.4, -0.7, 1.1]), [35.0, -12.0, 8.0])
    a.pose, b.pose = gauge.compose(a.pose), gauge.compose(b.pose)
    after = measure_relative(a, b, chunks, offsets=offsets)
    assert before.ok and after.ok
    assert after.num_matches == before.num_matches
    assert np.max(np.abs(after.transform.matrix - before.transform.matrix)) < 1e-9


def test_measure_relative_disjoint_rejected():
    rng = np.random.default_rng(4)
    pts = rng.uniform(-15.0, 15.0, size=(320, 3))
    chunks = [_cloud_frame(0, 0, pts), _cloud_frame(1, 1, pts + [1000.0, 0.0, 0.0])]
    a = FrameNode(frame=0, chunk_id=0, timestamp=0.0, pose=Sim3Transform.identity())
    b = FrameNode(frame=1, chunk_id=1, timestamp=1.0, pose=Sim3Transform.identity())
    meas = measure_relative(a, b, chunks)
    assert not meas.ok
    assert meas.reason == "too-few-matches"
    assert meas.transform is None


def test_measure_relative_low_overlap_rejected():
    rng = np.random.default_rng(5)
    shared = rng.uniform(-15.0, 15.0, size=(80, 3))
    only_a = rng.uniform(-15.0, 15.0, size=(240, 3)) + [-500.0, 0.0, 0.0]
    only_b = rng.uniform(-15.0, 15.0, size=(240, 3)) + [500.0, 0.0, 0.0]
    ident = Sim3Transform.identity()
    chunks = [
        _cloud_frame(0, 0, np.vstack([shared, only_a])),
        _cloud_frame(1, 1, np.vstack([shared, only_b])),
    ]
    a = FrameNode(frame=0, chunk_id=0, timestamp=0.0, pose=ident)
    b = FrameNode(frame=1, chunk_id=1, timestamp=1.0, pose=ident)
    meas = measure_relative(a, b, chunks)
    assert not meas.ok
    assert meas.reason == "low-overlap"
    assert meas.num_matches >= 50


# ---------------------------------------------------------------------------
# cross edges


def test_cross_edges_deterministic_for_seed():
    res = _square_sim(noise="gauges")
    picks = []
    for _ in range(2):
        g = _graph_of(res, stride=4)
        edges = sample_cross_edges(g, 1, 6, seed=9, chunks=res.chunks)
        picks.append([(e.i, e.j, e.measurement.translation.tobytes()) for e in edges])
    assert picks[0] == picks[1]
    assert picks[0]


def test_cross_edges_land_on_keyframes():
    res = _square_sim(noise="gauges")
    g = _graph_of(res, stride=4)
    for e in sample_cross_edges(g, 0, 5, seed=1, chunks=res.chunks):
        assert g.nodes[e.i].keyframe and g.nodes[e.j].keyframe
        assert (g.nodes[e.i].chunk_id == 0) != (g.nodes[e.j].chunk_id == 0)
        assert e.kind == "cross"


def test_cross_edges_warn_when_chunks_disjoint():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-10.0, 10.0, size=(120, 3))
    far = Sim3Transform(1.0, Rotation.identity(), [1.0e4, 0.0, 0.0])
    chunks = [_cloud_frame(0, 0, pts), _cloud_frame(1, 1, pts)]
    g = PoseGraph()
    g.add_node(FrameNode(0, 0, 0.0, Sim3Transform.identity(), keyframe=True, fixed=True))
    g.add_node(FrameNode(1, 1, 60.0, far, keyframe=True))
    g.local_poses = {0: {0: Pose.identity()}, 1: {1: Pose.identity()}}
    g.chunk_scales = {0: 1.0, 1: 1.0}
    with pytest.warns(UserWarning, match="no cross edges"):
        added = sample_cross_edges(g, 0, 3, seed=0, chunks=chunks)
    assert added == []


# ---------------------------------------------------------------------------
# loop closures


def _path_graph(positions, step_seconds=1.0):
    g = PoseGraph()
    for k, p in enumerate(positions):
        pose = Sim3Transform(1.0, Rotation.identity(), np.asarray(p, dtype=float))
        g.add_node(FrameNode(k, 0, k * step_seconds, pose, keyframe=True, fixed=k == 0))
    return g


def test_detect_open_u_shape_is_empty():
    down = [(0.0, y, 0.0) for y in range(10, -1, -1)]
    base = [(float(x), 0.0, 0.0) for x in range(1, 11)]
    up = [(10.0, float(y), 0.0) for y in range(1, 11)]
    g = _path_graph(down + base + up)
    assert detect_loop_closures(g, radius=5.0, min_gap=10.0) == []


def test_detect_closed_circuit_links_lap_ends():
    res = _square_sim()
    g = _graph_of(res, stride=2)
    cands = detect_loop_closures(g, radius=3.0, min_gap=10.0)
    assert cands
    assert any(fa <= 4 and fb >= 44 for fa, fb in cands)


def test_detect_two_laps_spread_along_lap():
    res = _square_sim(laps=2.0)
    g = _graph_of(res, stride=2)
    cands = detect_loop_closures(g, radius=3.0, min_gap=10.0)
    starts = sorted(fa for fa, _ in cands)
    assert len(cands) >= 3
    assert starts[-1] - starts[0] > 20  # revisit pairs all around the lap


def test_apply_loop_closures_validates_and_adds():
    # 1.6 laps so every revisit pair has confirmation partners down the road
    res = _square_sim(laps=1.6)
    g = _graph_of(res, stride=2)
    cands = detect_loop_closures(g, radius=3.0, min_gap=10.0)
    edges = apply_loop_closures(g, cands, res.chunks)
    assert edges
    for e in edges:
        assert e.kind == "loop"
        assert g.has_edge(e.i, e.j, "loop")
        assert abs((e.j - e.i) - 48) <= 4  # one lap apart
        # drift-free circuit: the validated closure is the identity relative
        assert np.linalg.norm(_edge_residual(g, e)) < 1e-6


# ---------------------------------------------------------------------------
# optimizer


def test_optimize_zero_residual_graph_is_fixed_point():
    g = _graph_of(_arc_sim())
    snap = _pose_snapshot(g)
    result = optimize(g, iterations=10, level="all-frames")
    assert _max_pose_delta(g, snap) < 1e-10
    assert all(c < 1e-16 for c in result.trace)


def test_optimize_returns_middle_node_to_midpoint():
    g = PoseGraph()
    ident = Rotation.identity()
    g.add_node(FrameNode(0, 0, 0.0, Sim3Transform(1.0, ident, [0.0, 0.0, 0.0]), fixed=True))
    g.add_node(FrameNode(1, 0, 1.0, Sim3Transform(1.0, ident, [1.0, 1.0, 0.0])))
    g.add_node(FrameNode(2, 0, 2.0, Sim3Transform(1.0, ident, [2.0, 0.0, 0.0]), fixed=True))
    w = np.full(7, 100.0)
    g.add_edge(GraphEdge(0, 1, Sim3Transform.identity(), w, "intra", kernel_scale=5.0))
    g.add_edge(GraphEdge(1, 2, Sim3Transform.identity(), w, "intra", kernel_scale=5.0))
    result = optimize(g, iterations=50, level="all-frames")
    mid = g.nodes[1].pose
    # symmetry pins the position; the scale component leans into the
    # similarity slack (shrinking both whitened residuals equally), so only
    # position and rotation have a unique optimum here
    assert np.linalg.norm(mid.translation - [1.0, 0.0, 0.0]) < 1e-8
    assert mid.rotation.angle < 1e-8
    assert result.cost_final < result.cost_initial


def test_optimize_accepted_costs_never_increase():
    g = _graph_of(_arc_sim(noise="mild", num_frames=39))
    result = optimize(g, iterations=15, level="all-frames")
    assert result.cost_final < result.cost_initial
    assert all(b <= a for a, b in zip(result.trace, result.trace[1:]))


def test_optimize_keyframes_level_preserves_anchored_relatives():
    res = _arc_sim(noise="mild", num_frames=39)
    g = _graph_of(res, stride=5)
    optimize(g, iterations=10, level="keyframes-only")
    for k, poses in g.local_poses.items():
        anchor = None
        for f in sorted(poses):
            if g.nodes[f].keyframe:
                anchor = f
                continue
            if anchor is None or g.nodes[f].chunk_id != k:
                continue
            expected = g.nodes[anchor].pose.compose(
                _intra_measurement(
                    poses[anchor],
                    poses[f],
                    g.nodes[anchor].build_scale,
                    g.nodes[f].build_scale,
                    g.chunk_scales[k],
                )
            )
            node = g.nodes[f]
            assert np.linalg.norm(node.pose.translation - expected.translation) < 1e-10
            assert node.pose.rotation.angle_to(expected.rotation) < 1e-10
            assert abs(node.pose.scale - expected.scale) < 1e-10


def test_optimize_step_matches_dense_reference():
    # one LM step against J^T W J built densely here: a fixed node (0), a
    # frozen node (1), edges with two, one and zero free endpoints, and a
    # loop edge measured 3 m off, beyond its Huber width
    rng = np.random.default_rng(41)
    truth = [
        Sim3Transform(1.0 + 0.05 * k, Rotation.exp([0.0, 0.0, 0.3 * k]), [4.0 * k, k**2, 0.0])
        for k in range(5)
    ]
    g = PoseGraph()
    for k, pose in enumerate(truth):
        if k >= 2:
            pose = pose.compose(Sim3Transform.exp(rng.normal(scale=0.02, size=7)))
        g.add_node(FrameNode(k, 0, float(k), pose, fixed=k == 0))
    info = np.array([4e4] * 3 + [400.0] * 3 + [1e4])
    for i, j, kind, off in [(0, 1, "intra", 0.0), (0, 2, "intra", 0.0), (1, 3, "cross", 0.0),
                            (2, 3, "intra", 0.0), (3, 4, "intra", 0.0), (2, 4, "loop", 3.0)]:
        meas = truth[i].inverse().compose(truth[j])
        meas = Sim3Transform(meas.scale, meas.rotation, meas.translation + [off, 0.0, 0.0])
        g.add_edge(GraphEdge(i, j, meas, info * (1.0 + 0.1 * j), kind))

    free = [2, 3, 4]
    q = np.array([g.nodes[f].pose.rotation.wxyz for f in range(5)])
    t = np.array([g.nodes[f].pose.translation for f in range(5)])
    s = np.array([g.nodes[f].pose.scale for f in range(5)])
    ia = np.array([e.i for e in g.edges])
    ja = np.array([e.j for e in g.edges])
    mq = np.array([e.measurement.rotation.wxyz for e in g.edges])
    mt = np.array([e.measurement.translation for e in g.edges])
    ms = np.array([e.measurement.scale for e in g.edges])
    weight = np.array([e.weight for e in g.edges])
    rel, err, r = _residuals(q, t, s, ia, ja, mq, mt, ms)
    e_norm = np.sqrt(np.einsum("ek,ek,ek->e", r, weight, r))
    width = np.sqrt(weight[:, 3])  # kernel_scale 1 m in whitened units
    assert e_norm[-1] > width[-1] and np.all(e_norm[:-1] < width[:-1])
    huber = width / np.maximum(e_norm, width)
    jj = _inv_right_jacobian(*err)
    ji = -(jj @ sim3_adjoint(*sim3_inverse(*rel)))
    jac = np.zeros((7 * len(g.edges), 7 * len(free)))
    for k in range(len(g.edges)):
        for node, block in ((ia[k], ji[k]), (ja[k], jj[k])):
            if node in free:
                c = free.index(node)
                jac[7 * k : 7 * k + 7, 7 * c : 7 * c + 7] = block
    w = (weight * huber[:, None]).ravel()
    h = jac.T @ (w[:, None] * jac)
    grad = -jac.T @ (w * r.ravel())
    d = np.where(np.diag(h) > 0.0, np.diag(h), 1.0)
    step = np.linalg.solve(h + 1e-4 * np.diag(d), grad)
    eq, et, es = sim3_compose(q[free], t[free], s[free], *sim3_exp(step.reshape(-1, 7)))

    result = optimize(g, iterations=1, level="all-frames", freeze=(1,))
    assert result.iterations == 1 and len(result.trace) == 2
    for k in (0, 1):
        assert g.nodes[k].pose.translation.tolist() == t[k].tolist()
    for n, f in enumerate(free):
        pose = g.nodes[f].pose
        assert np.max(np.abs(pose.translation - et[n])) < 1e-9
        assert np.max(np.abs(pose.rotation.wxyz - eq[n] / np.linalg.norm(eq[n]))) < 1e-9
        assert abs(pose.scale - es[n]) < 1e-9


def test_optimize_rejects_unknown_level():
    g = _graph_of(_arc_sim(num_frames=10))
    with pytest.raises(ValueError, match="unknown level"):
        optimize(g, iterations=1, level="everything")


def test_optimize_aborts_on_non_finite_measurement():
    g = PoseGraph()
    g.add_node(FrameNode(0, 0, 0.0, Sim3Transform.identity(), fixed=True))
    g.add_node(FrameNode(1, 0, 1.0, Sim3Transform.identity()))
    bad = Sim3Transform(1.0, Rotation.identity(), [float("nan"), 0.0, 0.0])
    g.add_edge(GraphEdge(0, 1, bad, np.ones(7), "intra"))
    with pytest.raises(OptimizerDiverged) as err:
        optimize(g, iterations=5, level="all-frames")
    assert err.value.dump["num_edges"] == 1


# ---------------------------------------------------------------------------
# alternating refinement


def test_refinement_zero_rounds_is_identity():
    res = _arc_sim(noise="mild")
    g = _graph_of(res, stride=5)
    snap = _pose_snapshot(g)
    diags = alternating_refinement(g, Schedule(rounds=0), res.chunks)
    assert diags == []
    for f, (q, t, s) in snap.items():
        node = g.nodes[f]
        assert np.array_equal(node.pose.rotation.wxyz, q)
        assert np.array_equal(node.pose.translation, t)
        assert node.pose.scale == s


def test_refinement_is_noop_without_noise():
    res = _square_sim()
    g = _graph_of(res)
    snap = _pose_snapshot(g)
    schedule = Schedule(rounds=2, local_iterations=4, global_iterations=6,
                        cross_edges_per_chunk=4, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diags = alternating_refinement(g, schedule, res.chunks)
    assert _max_pose_delta(g, snap) < 1e-8
    assert all(d.cost_final < 1e-8 for d in diags)
    assert [d.stage for d in diags] == ["local", "global"] * 2


def test_refinement_bit_identical_across_runs():
    res = _square_sim(noise="mild")
    finals = []
    for _ in range(2):
        g = _graph_of(res)
        schedule = Schedule(rounds=2, local_iterations=4, global_iterations=8,
                            cross_edges_per_chunk=6, keyframe_stride=4, seed=21)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alternating_refinement(g, schedule, res.chunks)
        finals.append(
            {
                f: (n.pose.rotation.wxyz.tobytes(), n.pose.translation.tobytes(), n.pose.scale)
                for f, n in g.nodes.items()
            }
        )
    assert finals[0] == finals[1]


def test_refinement_diagnostics_shape():
    res = _square_sim(noise="mild")
    g = _graph_of(res, stride=4)
    schedule = Schedule(rounds=3, local_iterations=3, global_iterations=5,
                        cross_edges_per_chunk=4, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diags = alternating_refinement(g, schedule, res.chunks)
    assert [(d.round, d.stage) for d in diags] == [
        (r, stage) for r in range(3) for stage in ("local", "global")
    ]
    for d in diags:
        assert d.num_edges > 0
        assert d.cost_final <= d.cost_initial + 1e-12
        assert np.isfinite(d.ate_proxy)
    # cross edges are dropped again after every round
    assert not [e for e in g.edges if e.kind == "cross"]


def test_gauge_invariance_of_residuals():
    res = _arc_sim(noise="mild")
    g = _graph_of(res)
    before = [_edge_residual(g, e) for e in g.edges]
    gauge = Sim3Transform(3.0, Rotation.exp([0.3, -0.2, 0.9]), [120.0, -40.0, 7.0])
    for node in g.nodes.values():
        node.pose = gauge.compose(node.pose)
    after = [_edge_residual(g, e) for e in g.edges]
    worst = max(np.max(np.abs(a - b)) for a, b in zip(before, after))
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# graph plumbing


def test_schedule_rejects_bad_counts():
    with pytest.raises(ValueError, match="non-negative"):
        Schedule(rounds=-1)
    with pytest.raises(ValueError, match="stride"):
        Schedule(keyframe_stride=0)


def test_add_edge_rejections():
    g = PoseGraph()
    g.add_node(FrameNode(0, 0, 0.0, Sim3Transform.identity(), fixed=True))
    g.add_node(FrameNode(1, 0, 1.0, Sim3Transform.identity()))
    ident = Sim3Transform.identity()
    with pytest.raises(ValueError, match="self edges"):
        g.add_edge(GraphEdge(0, 0, ident, np.ones(7), "intra"))
    with pytest.raises(ValueError, match="unknown frames"):
        g.add_edge(GraphEdge(0, 5, ident, np.ones(7), "intra"))
    with pytest.raises(ValueError, match="finite and positive"):
        g.add_edge(GraphEdge(0, 1, ident, np.zeros(7), "intra"))
    with pytest.raises(ValueError, match="finite and positive"):
        g.add_edge(GraphEdge(0, 1, ident, np.full(7, np.inf), "intra"))
    g.add_edge(GraphEdge(0, 1, ident, np.ones(7), "intra"))
    with pytest.raises(ValueError, match="duplicate intra edge"):
        g.add_edge(GraphEdge(1, 0, ident, np.ones(7), "intra"))
    g.add_edge(GraphEdge(0, 1, ident, np.ones(7), "cross"))  # other kind is fine


def test_duplicate_node_rejected():
    g = PoseGraph()
    g.add_node(FrameNode(0, 0, 0.0, Sim3Transform.identity()))
    with pytest.raises(ValueError, match="duplicate node"):
        g.add_node(FrameNode(0, 1, 0.5, Sim3Transform.identity()))


def test_validate_requires_one_anchor_per_component():
    ident = Sim3Transform.identity()
    g = PoseGraph()
    g.add_node(FrameNode(0, 0, 0.0, ident, fixed=True))
    g.add_node(FrameNode(1, 0, 1.0, ident))
    g.add_node(FrameNode(2, 1, 2.0, ident, fixed=True))
    g.add_node(FrameNode(3, 1, 3.0, ident))
    g.add_edge(GraphEdge(0, 1, ident, np.ones(7), "intra"))
    g.add_edge(GraphEdge(2, 3, ident, np.ones(7), "intra"))
    g.validate()  # two components, one anchor each
    g.add_edge(GraphEdge(1, 2, ident, np.ones(7), "cross"))
    with pytest.raises(ValueError, match="fixed-node count"):
        g.validate()  # merged into one component with two anchors


def test_validate_rejects_anchorless_component():
    ident = Sim3Transform.identity()
    g = PoseGraph()
    g.add_node(FrameNode(0, 0, 0.0, ident))
    g.add_node(FrameNode(1, 0, 1.0, ident))
    g.add_edge(GraphEdge(0, 1, ident, np.ones(7), "intra"))
    with pytest.raises(ValueError, match="fixed-node count"):
        g.validate()


def test_graph_trajectory_orders_frames():
    res = _arc_sim()
    g = _graph_of(res)
    traj = graph_trajectory(g)
    assert len(traj.timestamps) == 19
    assert np.all(np.diff(traj.timestamps) > 0)
    assert np.allclose(traj.positions()[0], g.nodes[0].pose.translation)
