"""Acceptance gate: one test per shipped guarantee.

Each test pins the tolerances it enforces; loosening one is a contract
change, not a test fix.  `pytest -v tests/test_acceptance.py` prints one
pass/fail line per criterion.
"""

import math
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from trackstitch.chunkio import (
    PointCloudData,
    Trajectory,
    read_gauges,
    read_manifest,
    read_pointcloud,
    read_trajectory,
    write_pointcloud,
    write_trajectory,
)
from trackstitch.errors import DataFormatError
from trackstitch.evaluation import ate, cloud_error, endpoint_gap
from trackstitch.fusion import fuse, to_global
from trackstitch.geometry import (
    Pose,
    Rotation,
    Sim3Transform,
    se3_exp,
    se3_log,
    sim3_apply,
    sim3_compose,
    sim3_exp,
    sim3_inverse,
    sim3_log,
)
from trackstitch.posegraph import (
    Schedule,
    alternating_refinement,
    apply_loop_closures,
    build_graph,
    detect_loop_closures,
    graph_trajectory,
    select_keyframes,
)
from trackstitch.preprocess import VideoMeta, plan_fixed_chunks, plan_turn_aware_chunks
from trackstitch.sim import NoiseModel, curvature_of, make_track, monaco_like, square, synth_chunks
from trackstitch.stitch import stitch_chunks, stitched_trajectory, umeyama
from trackstitch.svgplot import render_plot

GOLDEN = Path(__file__).parent / "golden"


def _quat_gap(qa, qb):
    """Max component difference between two unit quaternions, sign-aligned."""
    qa = np.asarray(qa, dtype=float)
    qb = np.asarray(qb, dtype=float)
    if float(qa @ qb) < 0.0:
        qb = -qb
    return float(np.max(np.abs(qa - qb)))


def _assert_sim3_batch_close(a, b, tol):
    (qa, ta, sa), (qb, tb, sb) = a, b
    sign = np.where((qa * qb).sum(axis=-1, keepdims=True) < 0.0, -1.0, 1.0)
    assert float(np.max(np.abs(qa - sign * qb))) < tol
    assert float(np.max(np.abs(ta - tb))) < tol
    assert float(np.max(np.abs(sa - sb))) < tol


def test_criterion_1_transform_algebra():
    """10^4 random similarity / rigid transforms: group laws and exp/log round trips within 1e-9."""
    start = time.monotonic()
    rng = np.random.default_rng(1202)
    n = 10_000

    axes = rng.normal(size=(n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.05, 0.95 * math.pi, size=n)
    rotvecs = axes * angles[:, None]
    trans = rng.uniform(-10.0, 10.0, size=(n, 3))
    log_scales = rng.uniform(-0.5, 0.5, size=n)

    xi = np.concatenate([rotvecs, trans, log_scales[:, None]], axis=1)
    q, t, s = sim3_exp(xi)
    assert float(np.max(np.abs(sim3_log(q, t, s) - xi))) < 1e-9

    xi6 = np.concatenate([rotvecs, trans], axis=1)
    qe, te = se3_exp(xi6)
    assert float(np.max(np.abs(se3_log(qe, te) - xi6))) < 1e-9

    # a o a^-1 == identity
    q_id, t_id, s_id = sim3_compose(q, t, s, *sim3_inverse(q, t, s))
    ident = np.zeros((n, 4))
    ident[:, 0] = 1.0
    _assert_sim3_batch_close((q_id, t_id, s_id), (ident, np.zeros((n, 3)), np.ones(n)), 1e-9)

    # associativity over rolled triples: (a o b) o c == a o (b o c)
    def rolled(k):
        return np.roll(q, k, axis=0), np.roll(t, k, axis=0), np.roll(s, k)

    a, b, c = (q, t, s), rolled(-1), rolled(-2)
    ab_c = sim3_compose(*sim3_compose(*a, *b), *c)
    a_bc = sim3_compose(*a, *sim3_compose(*b, *c))
    _assert_sim3_batch_close(ab_c, a_bc, 1e-9)

    # rigid transforms are the unit-scale subgroup: composing two must keep scale 1
    ones = np.ones(n)
    _, _, s_rigid = sim3_compose(q, t, ones, *rolled(-1)[:2], ones)
    assert float(np.max(np.abs(s_rigid - 1.0))) < 1e-9

    # the action agrees with composition: (a o b)(p) == a(b(p))
    probe = rng.uniform(-5.0, 5.0, size=(64, 3))
    sim_elems = [(q[k], t[k], float(s[k])) for k in range(201)]
    for ea, eb in zip(sim_elems, sim_elems[1:]):
        left = sim3_apply(*sim3_compose(*ea, *eb), probe)
        right = sim3_apply(*ea, sim3_apply(*eb, probe))
        assert float(np.max(np.abs(left - right))) < 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"transform algebra checks took {elapsed:.2f}s"


def test_criterion_2_alignment_exactness():
    """100 noiseless correspondence sets: recovered similarity exact to 1e-9."""
    start = time.monotonic()
    rng = np.random.default_rng(77)
    for _ in range(100):
        src = rng.uniform(-50.0, 50.0, size=(40, 3))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        true_rot = Rotation.exp(axis * rng.uniform(0.0, 0.95 * math.pi))
        true_scale = math.exp(rng.uniform(-0.7, 0.7))
        true_t = rng.uniform(-20.0, 20.0, size=3)
        dst = true_scale * true_rot.apply(src) + true_t

        got = umeyama(src, dst)
        assert got.rotation.angle_to(true_rot) < 1e-9
        assert abs(got.scale / true_scale - 1.0) < 1e-9
        assert float(np.linalg.norm(got.translation - true_t)) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"alignment checks took {elapsed:.2f}s"


def test_criterion_3_chunk_planning():
    """Fixed plan: 1920 frames at 24 fps, 5 s chunks, overlap 1 -> 17 chunks covering
    every frame, each seam sharing exactly one frame (brute-force tally).  Turn-aware
    plan: no boundary on a turning frame unless flagged as a violation, 20 random tracks.
    """
    meta = VideoMeta(num_frames=1920, fps=24.0, width=640, height=480)
    plan = plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    assert len(plan.chunks) == 17

    tally = np.zeros(meta.num_frames, dtype=int)
    for c in plan.chunks:
        tally[c.start_frame : c.end_frame + 1] += 1
    assert tally.min() >= 1, "plan leaves frames uncovered"
    assert int((tally == 2).sum()) == len(plan.chunks) - 1, "each seam shares exactly one frame"
    assert int((tally > 2).sum()) == 0
    assert plan.chunks[0].start_frame == 0
    assert plan.chunks[-1].end_frame == meta.num_frames - 1

    threshold = 0.002
    meta = VideoMeta(num_frames=480, fps=24.0, width=640, height=480)
    for trial in range(20):
        rng = np.random.default_rng(33 + trial)
        specs = [("straight", float(rng.uniform(30.0, 100.0)))]
        for _ in range(int(rng.integers(3, 6))):
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            specs.append(("arc", sign * float(rng.uniform(0.4, 1.3)), float(rng.uniform(12.0, 50.0))))
            specs.append(("straight", float(rng.uniform(20.0, 90.0))))
        track = make_track(specs, allow_open=True)
        speed = track.length * meta.fps / meta.num_frames
        curv = curvature_of(track, speed, meta.fps, meta.num_frames)

        turn_plan = plan_turn_aware_chunks(meta, curv, 5.0, 1, straight_threshold=threshold)
        tally = np.zeros(meta.num_frames, dtype=int)
        for c in turn_plan.chunks:
            tally[c.start_frame : c.end_frame + 1] += 1
        assert tally.min() >= 1
        for c in turn_plan.chunks[1:]:
            boundary = c.start_frame
            assert abs(curv[boundary]) <= threshold or boundary in turn_plan.boundary_violations, (
                f"trial {trial}: boundary at frame {boundary} sits on |curvature| "
                f"{abs(curv[boundary]):.4f} without being flagged"
            )


def test_criterion_4_noiseless_end_to_end():
    """Zero noise, random per-chunk gauges, ~20 chunks of a 3338 m circuit:
    stitching alone recovers the trajectory to ATE < 1e-6 m after similarity
    alignment, in under 60 s.
    """
    start = time.monotonic()
    track = monaco_like()
    meta = VideoMeta(num_frames=2381, fps=24.0, width=640, height=480)
    plan = plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    assert len(plan.chunks) == 20

    speed = track.length * meta.fps / meta.num_frames  # one full lap
    res = synth_chunks(track, meta, plan, speed=speed, noise="gauges", seed=11, points_per_frame=120)
    st = stitch_chunks(res.chunks)
    traj = stitched_trajectory(res.chunks, st.gauges)

    metrics = ate(traj, res.ground_truth, align="sim3")
    assert metrics.ate_rmse < 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"noiseless end-to-end took {elapsed:.1f}s"


@pytest.mark.slow
def test_criterion_5_drift_and_repair():
    """Two laps under the moderate noise preset: stitching alone leaves the circuit
    visibly open (endpoint gap > 5 m), loop closure plus five refinement rounds
    cut the aligned ATE at least in half and close the gap to <= 1% of track
    length, medians over five seeds, inside 10 minutes.
    """
    start = time.monotonic()
    track = monaco_like()
    speed = track.length * 24.0 / 2000.0  # 2000 frames per lap
    meta = VideoMeta(num_frames=4001, fps=24.0, width=640, height=480)
    plan = plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    assert len(plan.chunks) == 34

    gaps_before, gaps_after, ratios = [], [], []
    for seed in (1, 2, 3, 4, 5):
        res = synth_chunks(track, meta, plan, speed=speed, noise="moderate", seed=seed, points_per_frame=300)
        st = stitch_chunks(res.chunks)
        traj0 = stitched_trajectory(res.chunks, st.gauges)
        ate0 = ate(traj0, res.ground_truth, align="sim3").ate_rmse
        gaps_before.append(endpoint_gap(traj0))

        graph = build_graph(st, res.chunks)
        select_keyframes(graph, stride=10)
        candidates = detect_loop_closures(graph, radius=250.0, min_gap=20.0)
        loops = apply_loop_closures(graph, candidates, res.chunks)

        # every accepted closure must tie together frames that truly revisit
        true_pos = res.ground_truth.positions()
        false_loops = [
            (e.i, e.j) for e in loops if np.linalg.norm(true_pos[e.i] - true_pos[e.j]) > 30.0
        ]
        assert not false_loops, f"seed {seed}: spurious closures {false_loops}"
        assert loops, f"seed {seed}: no loop closures accepted"

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            diags = alternating_refinement(
                graph,
                Schedule(rounds=5, local_iterations=6, cross_edges_per_chunk=16, seed=seed),
                res.chunks,
            )
        for d in diags:
            assert d.cost_final <= d.cost_initial * (1.0 + 1e-9) + 1e-12, (
                f"seed {seed}: cost rose in round {d.round} stage {d.stage}"
            )

        traj1 = graph_trajectory(graph)
        ate1 = ate(traj1, res.ground_truth, align="sim3").ate_rmse
        gaps_after.append(endpoint_gap(traj1))
        ratios.append(ate1 / ate0)

    assert float(np.median(gaps_before)) > 5.0, f"stitched gaps {gaps_before}"
    assert float(np.median(ratios)) <= 0.5, f"ATE ratios {ratios}"
    assert float(np.median(gaps_after)) <= 0.01 * track.length, f"refined gaps {gaps_after}"
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"drift-and-repair took {elapsed:.0f}s"


def _drift_run(seed):
    """Two drifty laps of a rounded square, stitched then refined.

    Shared by the optimizer-contract and figure tests: 97 frames, 11 chunks,
    amplified rotational drift so the stitched circuit visibly fails to close.
    """
    track = square(side=120.0)
    meta = VideoMeta(num_frames=97, fps=2.0, width=640, height=480)
    plan = plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    speed = track.length / 24.0  # two laps over the 97 frames
    noise = NoiseModel(
        sigma_t=0.02,
        sigma_r=0.0003,
        rot_drift_per_frame=0.003,
        sigma_point=0.02,
        gauge_rot_max=math.pi,
        gauge_trans_max=30.0,
        gauge_log_scale_sigma=0.01,
    )
    res = synth_chunks(track, meta, plan, speed=speed, noise=noise, seed=seed, points_per_frame=200)
    st = stitch_chunks(res.chunks)
    stitched = stitched_trajectory(res.chunks, st.gauges)

    graph = build_graph(st, res.chunks)
    select_keyframes(graph, stride=10)
    candidates = detect_loop_closures(graph, radius=60.0, min_gap=20.0)
    apply_loop_closures(graph, candidates, res.chunks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        diags = alternating_refinement(
            graph,
            Schedule(rounds=3, local_iterations=6, cross_edges_per_chunk=12, seed=seed),
            res.chunks,
        )
    return SimpleNamespace(
        result=res,
        stitched=stitched,
        refined=graph_trajectory(graph),
        diagnostics=diags,
    )


def test_criterion_6_optimizer_contracts(tmp_path):
    """Zero-residual graphs are fixed points (< 1e-10 pose change), accepted
    costs never increase, and a repeated seed reproduces the refined
    trajectory bit for bit.
    """
    track = square(side=120.0)
    meta = VideoMeta(num_frames=48, fps=2.0, width=640, height=480)
    plan = plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    speed = track.length / 48.0 * 2.0
    res = synth_chunks(track, meta, plan, speed=speed, noise="none", seed=7, points_per_frame=150)
    st = stitch_chunks(res.chunks)
    graph = build_graph(st, res.chunks)
    select_keyframes(graph, stride=10)
    before = {
        f: (n.pose.scale, n.pose.rotation.wxyz, n.pose.translation.copy())
        for f, n in graph.nodes.items()
    }
    diags = alternating_refinement(
        graph,
        Schedule(rounds=2, local_iterations=5, cross_edges_per_chunk=8, seed=3),
        res.chunks,
    )
    moved = 0.0
    for f, n in graph.nodes.items():
        s0, q0, t0 = before[f]
        moved = max(
            moved,
            abs(n.pose.scale - s0),
            _quat_gap(n.pose.rotation.wxyz, q0),
            float(np.max(np.abs(n.pose.translation - t0))),
        )
    assert moved < 1e-10, f"noiseless graph moved by {moved:.3g}"
    for d in diags:
        assert d.cost_final <= d.cost_initial * (1.0 + 1e-9) + 1e-12

    first = _drift_run(5)
    second = _drift_run(5)
    for d in first.diagnostics:
        assert d.cost_final <= d.cost_initial * (1.0 + 1e-9) + 1e-12, (
            f"cost rose in round {d.round} stage {d.stage}"
        )
    # byte-level determinism, via the serialized form
    write_trajectory(tmp_path / "first.txt", first.refined)
    write_trajectory(tmp_path / "second.txt", second.refined)
    assert (tmp_path / "first.txt").read_bytes() == (tmp_path / "second.txt").read_bytes()


def test_criterion_7_fusion_quality():
    """Voxel dedup matches brute-force bucketing on 10^5 points; a noiseless
    run fuses to within 1e-6 m of the true surfaces; under moderate noise with
    reference poses the fused cloud stays within 3x the point-noise sigma.
    """
    rng = np.random.default_rng(314)
    n = 100_000
    pts = rng.uniform(-5.0, 5.0, size=(n, 3))
    conf = rng.uniform(0.0, 1.0, size=n)
    cid = rng.integers(0, 8, size=n, dtype=np.int64)
    fused = fuse([PointCloudData(points=pts, confidence=conf)], voxel=1.0, chunk_ids=[cid])

    best = {}
    for insert in range(n):
        key = tuple(int(v) for v in np.floor(pts[insert]))
        cand = (-conf[insert], cid[insert], insert)
        if key not in best or cand < best[key]:
            best[key] = cand
    assert len(fused) == len(best)
    for p, c, k in zip(fused.points, fused.confidence, fused.chunk_ids):
        key = tuple(int(v) for v in np.floor(p))
        neg_c, want_k, insert = best[key]
        assert c == -neg_c and k == want_k and np.array_equal(p, pts[insert])

    track = square(side=120.0)
    meta = VideoMeta(num_frames=48, fps=2.0, width=640, height=480)
    plan = plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    speed = track.length / 48.0 * 2.0
    res = synth_chunks(track, meta, plan, speed=speed, noise="none", seed=5, points_per_frame=200)
    st = stitch_chunks(res.chunks)
    clean = fuse([to_global(c, st.gauges[c.chunk_id]) for c in res.chunks], voxel=0.25)
    assert len(clean) > 1000
    assert cloud_error(clean, track) < 1e-6

    sigma_point = 0.05  # the moderate preset's per-axis point noise
    errors = []
    for seed in (1, 2, 3, 4, 5):
        res = synth_chunks(track, meta, plan, speed=speed, noise="moderate", seed=seed, points_per_frame=200)
        sets = []
        for chunk in res.chunks:
            gauge = res.gauges[chunk.chunk_id]
            reference = {
                rec.frame: Sim3Transform(
                    gauge.scale,
                    res.ground_truth.poses[rec.frame].rotation,
                    res.ground_truth.poses[rec.frame].translation,
                )
                for rec in chunk.frames
            }
            sets.append(to_global(chunk, gauge, refined=reference))
        errors.append(cloud_error(fuse(sets, voxel=0.25), track))
    assert float(np.median(errors)) <= 3.0 * sigma_point, f"cloud errors {errors}"


def test_criterion_8_io_round_trips_and_rejection(tmp_path):
    """Trajectory and PLY round trips are exact; a corpus of malformed files is
    rejected with typed errors instead of crashes.
    """
    rng = np.random.default_rng(99)
    stamps = np.cumsum(rng.uniform(0.01, 0.5, size=40))
    poses = [
        Pose(Rotation.exp(rng.normal(size=3)), rng.uniform(-100.0, 100.0, size=3))
        for _ in range(40)
    ]
    traj = Trajectory(stamps, poses)
    write_trajectory(tmp_path / "traj.txt", traj)
    back = read_trajectory(tmp_path / "traj.txt")
    assert np.array_equal(back.timestamps, traj.timestamps)
    for a, b in zip(traj.poses, back.poses):
        assert np.array_equal(a.translation, b.translation)
        # loading renormalizes the quaternion, which may flip the last bit
        assert _quat_gap(a.rotation.wxyz, b.rotation.wxyz) <= 2.0**-50

    cloud = PointCloudData(
        points=rng.uniform(-50.0, 50.0, size=(500, 3)),
        confidence=rng.uniform(0.0, 1.0, size=500),
    )
    write_pointcloud(tmp_path / "cloud_bin.ply", cloud, binary=True, dtype="double")
    back = read_pointcloud(tmp_path / "cloud_bin.ply")
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.confidence, cloud.confidence)
    write_pointcloud(tmp_path / "cloud_ascii.ply", cloud, binary=False, dtype="double")
    back = read_pointcloud(tmp_path / "cloud_ascii.ply")
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.confidence, cloud.confidence)

    # one malformed file per known failure mode; every reader must refuse with
    # a typed error rather than crash or silently accept
    write_pointcloud(tmp_path / "ok.ply", cloud, binary=True, dtype="double")
    truncated = (tmp_path / "ok.ply").read_bytes()[:-9]

    corpus = [
        ("three_fields.txt", read_trajectory, "0.0 1.0 2.0\n"),
        ("bad_number.txt", read_trajectory, "0.0 1.0 2.0 3.0 0.0 0.0 zero 1.0\n"),
        ("bad_quat_norm.txt", read_trajectory, "0.0 1.0 2.0 3.0 0.5 0.0 0.0 0.5\n"),
        (
            "backwards_time.txt",
            read_trajectory,
            "1.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n0.5 1.0 0.0 0.0 0.0 0.0 0.0 1.0\n",
        ),
        ("no_samples.txt", read_trajectory, "# just a comment\n"),
        ("bad_magic.ply", read_pointcloud, "plyx\nformat ascii 1.0\nend_header\n"),
        ("bad_format.ply", read_pointcloud, "ply\nformat binary_big_endian 1.0\nelement vertex 0\nend_header\n"),
        (
            "bad_count.ply",
            read_pointcloud,
            "ply\nformat ascii 1.0\nelement vertex banana\nproperty double x\nend_header\n",
        ),
        ("truncated.ply", read_pointcloud, truncated),
        (
            "short_row.ply",
            read_pointcloud,
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\nend_header\n1.0 2.0\n",
        ),
        ("not_json.json", read_manifest, "{this is not json"),
        ("top_level_array.json", read_manifest, "[1, 2, 3]"),
        ("missing_video.json", read_manifest, '{"version": 1, "plan": {}}'),
        ("eight_fields.gauges", read_gauges, "0 1.0 0.0 0.0 0.0 0.0 0.0 1.0\n"),
        (
            "duplicate_chunk.gauges",
            read_gauges,
            "0 1.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n0 1.0 0.0 0.0 0.0 0.0 0.0 0.0 1.0\n",
        ),
        ("bad_gauge_quat.gauges", read_gauges, "0 1.0 0.0 0.0 0.0 2.0 2.0 2.0 2.0\n"),
    ]
    assert len(corpus) >= 10
    for name, reader, content in corpus:
        target = tmp_path / name
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content)
        with pytest.raises(DataFormatError):
            reader(target)


def test_criterion_9_figure_reproduction():
    """The drift scenario renders to golden SVGs: an open circuit after
    stitching, a closed one after refinement.
    """
    run = _drift_run(5)
    assert endpoint_gap(run.stitched) > 5.0
    assert endpoint_gap(run.refined) < 1.0

    gt = run.result.ground_truth
    open_svg = render_plot([("stitched", run.stitched)], ground_truth=gt)
    closed_svg = render_plot([("refined", run.refined)], ground_truth=gt)
    assert open_svg == (GOLDEN / "drift_open.svg").read_text()
    assert closed_svg == (GOLDEN / "drift_closed.svg").read_text()
