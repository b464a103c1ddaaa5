"""I/O round trips and malformed-input handling."""

from __future__ import annotations

import json

import numpy as np
import pytest

from trackstitch.chunkio import (
    ChunkReconstruction,
    FrameRecord,
    Intrinsics,
    PointCloudData,
    Trajectory,
    read_chunk,
    read_gauges,
    read_manifest,
    read_pointcloud,
    read_trajectory,
    write_chunk,
    write_gauges,
    write_manifest,
    write_pointcloud,
    write_trajectory,
)
from trackstitch.errors import (
    DataFormatError,
    ManifestError,
    PointCloudFormatError,
    TrajectoryFormatError,
)
from trackstitch.geometry import Pose, Rotation, Sim3Transform
from trackstitch.preprocess import VideoMeta, build_mask, plan_fixed_chunks


def _random_trajectory(rng, n=20):
    ts = np.cumsum(rng.uniform(0.01, 0.5, size=n))
    poses = []
    for _ in range(n):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        poses.append(Pose(Rotation(q), rng.normal(size=3) * 10))
    return Trajectory(ts, poses)


def _small_chunk(rng, chunk_id=0, n_frames=3, pts_per_frame=(4, 0, 7)):
    frames = []
    intr = Intrinsics(200.0, 200.0, 64.0, 48.0)
    for i in range(n_frames):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        n = pts_per_frame[i % len(pts_per_frame)]
        frames.append(
            FrameRecord(
                frame=10 + 2 * i,
                timestamp=0.5 * i,
                pose=Pose(Rotation(q), rng.normal(size=3)),
                intrinsics=intr,
                points=rng.normal(size=(n, 3)),
                pixels=rng.uniform(0, 100, size=(n, 2)),
                confidence=rng.uniform(0, 1, size=n),
            )
        )
    return ChunkReconstruction(chunk_id, frames)


# ---------------------------------------------------------------------------
# trajectory text format


def test_trajectory_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    traj = _random_trajectory(rng)
    p = tmp_path / "traj.txt"
    write_trajectory(p, traj)
    back = read_trajectory(p)
    assert np.array_equal(back.timestamps, traj.timestamps)
    for a, b in zip(back.poses, traj.poses):
        assert np.array_equal(a.translation, b.translation)
        # written form is canonical (w >= 0); same rotation either way
        assert np.array_equal(a.rotation.wxyz, b.rotation.canonical_wxyz())
        assert a.rotation.angle_to(b.rotation) < 1e-12


def test_trajectory_writes_canonical_quaternion(tmp_path):
    pose = Pose(Rotation([-1.0, 0.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
    p = tmp_path / "t.txt"
    write_trajectory(p, Trajectory(np.array([0.0]), [pose]))
    line = [l for l in p.read_text().splitlines() if not l.startswith("#")][0]
    assert line.split()[7] == "1.0"  # qw last, flipped positive


def test_trajectory_comments_and_blanks_skipped(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("# header\n\n0.0 1 2 3 0 0 0 1\n   # indented comment\n1.0 4 5 6 0 0 0 1\n")
    traj = read_trajectory(p)
    assert len(traj) == 2
    assert traj.poses[1].translation[0] == 4.0


def test_trajectory_mild_norm_error_renormalized(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text(f"0.0 0 0 0 0 0 0 {1.0 + 5e-4}\n")
    traj = read_trajectory(p)
    assert abs(np.linalg.norm(traj.poses[0].rotation.wxyz) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "content, lineno, needle",
    [
        ("0.0 1 2 3 0 0 0\n", 1, "got 7"),
        ("0.0 1 2 3 0 0 0 1 9\n", 1, "got 9"),
        ("0.0 1 2 3 0 0 0 1\n1.0 x 2 3 0 0 0 1\n", 2, "non-numeric"),
        ("0.0 1 2 3 0 0 0 0.9\n", 1, "norm"),
        ("0.0 1 2 3 0 0 0 1\n0.0 1 2 3 0 0 0 1\n", 2, "not increasing"),
        ("2.0 1 2 3 0 0 0 1\n1.0 1 2 3 0 0 0 1\n", 2, "not increasing"),
    ],
)
def test_trajectory_malformed(tmp_path, content, lineno, needle):
    p = tmp_path / "bad.txt"
    p.write_text(content)
    with pytest.raises(TrajectoryFormatError) as ei:
        read_trajectory(p)
    assert ei.value.line == lineno
    assert needle in str(ei.value)
    assert str(p) in str(ei.value)


def test_trajectory_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# nothing here\n")
    with pytest.raises(TrajectoryFormatError, match="no samples"):
        read_trajectory(p)


# ---------------------------------------------------------------------------
# point clouds


def test_ply_ascii_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    cloud = PointCloudData(rng.normal(size=(17, 3)) * 100)
    p = tmp_path / "c.ply"
    write_pointcloud(p, cloud, binary=False)
    back = read_pointcloud(p)
    assert np.array_equal(back.points, cloud.points)
    assert back.confidence is None and back.pixels is None


def test_ply_binary_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(6)
    cloud = PointCloudData(
        rng.normal(size=(40, 3)),
        rng.uniform(0, 1, size=40),
        rng.uniform(0, 512, size=(40, 2)),
    )
    p1, p2 = tmp_path / "a.ply", tmp_path / "b.ply"
    write_pointcloud(p1, cloud, binary=True)
    back = read_pointcloud(p1)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.confidence, cloud.confidence)
    assert np.array_equal(back.pixels, cloud.pixels)
    write_pointcloud(p2, back, binary=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_ply_float32_supported(tmp_path):
    cloud = PointCloudData(np.array([[1.5, -2.0, 3.25]]))
    p = tmp_path / "f.ply"
    write_pointcloud(p, cloud, binary=True, dtype="float")
    back = read_pointcloud(p)
    assert np.array_equal(back.points[0], [1.5, -2.0, 3.25])


def test_ply_empty_cloud(tmp_path):
    for binary in (False, True):
        p = tmp_path / f"e{binary}.ply"
        write_pointcloud(p, PointCloudData(np.zeros((0, 3))), binary=binary)
        assert read_pointcloud(p).points.shape == (0, 3)


def _ply_ascii(props, rows):
    head = ["ply", "format ascii 1.0", f"element vertex {len(rows)}"]
    head += [f"property double {p}" for p in props]
    head.append("end_header")
    return "\n".join(head + rows) + "\n"


@pytest.mark.parametrize(
    "content, needle",
    [
        ("plyx\nformat ascii 1.0\nend_header\n", "bad header"),
        ("ply\nformat binary_big_endian 1.0\nelement vertex 0\nproperty double x\nproperty double y\nproperty double z\nend_header\n", "unsupported format"),
        (_ply_ascii(["x", "y"], ["0 0"]), "unknown element layout"),
        (_ply_ascii(["x", "y", "z", "nx"], ["0 0 0 0"]), "unknown element layout"),
        (_ply_ascii(["x", "y", "z", "u"], ["0 0 0 0"]), "unknown element layout"),
        (_ply_ascii(["x", "y", "z"], ["0 0 0", "1 1 1"]).replace("vertex 2", "vertex 3"), "expected 3 vertex rows"),
        (_ply_ascii(["x", "y", "z"], ["0 0 0"]).replace("vertex 1", "vertex -1"), "negative vertex count"),
        (_ply_ascii(["x", "y", "z"], ["0 0 oops"]), "non-numeric"),
        (_ply_ascii(["x", "y", "z"], ["0 0 0 7"]), "4 fields"),
        ("ply\nformat ascii 1.0\nelement face 2\nend_header\n", "unsupported element"),
        ("ply\nformat ascii 1.0\nelement vertex 1\nproperty int x\nproperty double y\nproperty double z\nend_header\n0 0 0\n", "unsupported property"),
        ("ply\nformat ascii 1.0\nproperty double x\nend_header\n", "missing format or element"),
    ],
)
def test_ply_malformed_text(tmp_path, content, needle):
    p = tmp_path / "bad.ply"
    p.write_text(content)
    with pytest.raises(PointCloudFormatError, match=needle):
        read_pointcloud(p)


def test_ply_truncated_binary(tmp_path):
    p = tmp_path / "trunc.ply"
    write_pointcloud(p, PointCloudData(np.zeros((10, 3))), binary=True)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(PointCloudFormatError, match="truncated"):
        read_pointcloud(p)


def test_ply_layout_error_lists_found_properties(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text(_ply_ascii(["x", "y", "z", "nx"], ["0 0 0 0"]))
    with pytest.raises(PointCloudFormatError) as ei:
        read_pointcloud(p)
    assert "'nx'" in str(ei.value) and "'x'" in str(ei.value)


# ---------------------------------------------------------------------------
# chunk payloads


def test_chunk_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    chunk = _small_chunk(rng, chunk_id=4)
    poses_p, pts_p = tmp_path / "chunk_0004.json", tmp_path / "chunk_0004.ply"
    write_chunk(chunk, poses_p, pts_p)
    back = read_chunk(poses_p, pts_p)
    assert back.chunk_id == 4
    assert [f.frame for f in back.frames] == [f.frame for f in chunk.frames]
    for a, b in zip(back.frames, chunk.frames):
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.confidence, b.confidence)
        assert a.pose.rotation.angle_to(b.pose.rotation) < 1e-15
        assert np.array_equal(a.pose.translation, b.pose.translation)
        assert a.intrinsics == b.intrinsics
        assert a.timestamp == b.timestamp


def test_chunk_missing_confidence_defaults_to_one(tmp_path):
    rng = np.random.default_rng(12)
    chunk = _small_chunk(rng)
    poses_p, pts_p = tmp_path / "c.json", tmp_path / "c.ply"
    write_chunk(chunk, poses_p, pts_p)
    # rewrite the cloud without confidence or pixels
    cloud = read_pointcloud(pts_p)
    write_pointcloud(pts_p, PointCloudData(cloud.points), binary=True)
    back = read_chunk(poses_p, pts_p)
    assert all(np.all(f.confidence == 1.0) for f in back.frames)


def test_chunk_point_count_mismatch(tmp_path):
    rng = np.random.default_rng(13)
    chunk = _small_chunk(rng)
    poses_p, pts_p = tmp_path / "c.json", tmp_path / "c.ply"
    write_chunk(chunk, poses_p, pts_p)
    doc = json.loads(poses_p.read_text())
    doc["frames"][0]["num_points"] += 1
    poses_p.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="counts"):
        read_chunk(poses_p, pts_p)


def test_chunk_missing_field(tmp_path):
    rng = np.random.default_rng(14)
    chunk = _small_chunk(rng)
    poses_p, pts_p = tmp_path / "c.json", tmp_path / "c.ply"
    write_chunk(chunk, poses_p, pts_p)
    doc = json.loads(poses_p.read_text())
    del doc["frames"][1]["quaternion_wxyz"]
    poses_p.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="missing field 'quaternion_wxyz' in frames\\[1\\]"):
        read_chunk(poses_p, pts_p)


def test_chunk_invalid_json(tmp_path):
    poses_p = tmp_path / "c.json"
    poses_p.write_text('{"chunk_id": 0,\n "frames": [}\n')
    pts_p = tmp_path / "c.ply"
    write_pointcloud(pts_p, PointCloudData(np.zeros((0, 3))))
    with pytest.raises(ManifestError) as ei:
        read_chunk(poses_p, pts_p)
    assert "invalid JSON" in str(ei.value) and ei.value.line == 2


def test_chunk_single_frame_rejected(tmp_path):
    rng = np.random.default_rng(15)
    chunk = _small_chunk(rng)
    poses_p, pts_p = tmp_path / "c.json", tmp_path / "c.ply"
    write_chunk(chunk, poses_p, pts_p)
    doc = json.loads(poses_p.read_text())
    kept = doc["frames"][0]
    doc["frames"] = [kept]
    poses_p.write_text(json.dumps(doc))
    cloud = read_pointcloud(pts_p)
    write_pointcloud(pts_p, PointCloudData(cloud.points[: kept["num_points"]]), binary=True)
    with pytest.raises(ManifestError, match="need >= 2"):
        read_chunk(poses_p, pts_p)


def test_chunk_bad_quaternion_rejected(tmp_path):
    rng = np.random.default_rng(16)
    chunk = _small_chunk(rng)
    poses_p, pts_p = tmp_path / "c.json", tmp_path / "c.ply"
    write_chunk(chunk, poses_p, pts_p)
    doc = json.loads(poses_p.read_text())
    doc["frames"][0]["quaternion_wxyz"] = [0.5, 0.0, 0.0, 0.0]
    poses_p.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="quaternion norm"):
        read_chunk(poses_p, pts_p)


def test_confidence_out_of_range_rejected():
    rng = np.random.default_rng(17)
    frames = _small_chunk(rng).frames
    frames[0].confidence = frames[0].confidence + 2.0
    with pytest.raises(ValueError, match="confidence outside"):
        ChunkReconstruction(0, frames)


# ---------------------------------------------------------------------------
# manifests


def _write_full_manifest(tmp_path, rng):
    meta = VideoMeta(num_frames=30, fps=10.0, width=64, height=48)
    plan = plan_fixed_chunks(meta, chunk_seconds=2.0, overlap_frames=1)
    chunks = []
    payload_rel = []
    for c in plan.chunks:
        frames = []
        intr = Intrinsics(100.0, 100.0, 32.0, 24.0)
        for fi in range(c.start_frame, c.end_frame + 1):
            n = int(rng.integers(0, 5))
            frames.append(
                FrameRecord(fi, fi / meta.fps, Pose.identity(), intr,
                            rng.normal(size=(n, 3)), rng.uniform(0, 64, size=(n, 2)),
                            rng.uniform(0, 1, size=n))
            )
        chunk = ChunkReconstruction(c.chunk_id, frames)
        pj, pp = f"chunk_{c.chunk_id:04d}.json", f"chunk_{c.chunk_id:04d}.ply"
        write_chunk(chunk, tmp_path / pj, tmp_path / pp)
        chunks.append(chunk)
        payload_rel.append((pj, pp))
    gt = _random_trajectory(rng, n=5)
    write_trajectory(tmp_path / "gt.txt", gt)
    mask = build_mask("bottom", 0.25)
    mpath = tmp_path / "manifest.json"
    write_manifest(mpath, meta, plan, mask, payload_rel, "gt.txt")
    return mpath, meta, plan, chunks


def test_manifest_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    mpath, meta, plan, chunks = _write_full_manifest(tmp_path, rng)
    m = read_manifest(mpath)
    assert m.meta == meta
    assert m.plan.chunks == plan.chunks
    assert m.plan.overlap_frames == plan.overlap_frames
    assert m.mask is not None and m.mask.mode == "bottom" and m.mask.fraction == 0.25
    loaded = m.load_chunks()
    assert [c.chunk_id for c in loaded] == [c.chunk_id for c in chunks]
    assert m.ground_truth is not None and m.ground_truth.exists()


def test_manifest_minimal(tmp_path):
    meta = VideoMeta(10, 5.0, 8, 8)
    plan = plan_fixed_chunks(meta, 1.0, 1)
    mpath = tmp_path / "m.json"
    write_manifest(mpath, meta, plan)
    m = read_manifest(mpath)
    assert m.mask is None and m.payload_paths == [] and m.ground_truth is None


def test_manifest_coverage_gap_rejected(tmp_path):
    meta = VideoMeta(10, 5.0, 8, 8)
    plan = plan_fixed_chunks(meta, 1.0, 1)
    mpath = tmp_path / "m.json"
    write_manifest(mpath, meta, plan)
    doc = json.loads(mpath.read_text())
    doc["plan"]["chunks"][1]["start_frame"] += 1  # break the shared frame
    mpath.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="plan:"):
        read_manifest(mpath)


def test_manifest_missing_payload(tmp_path):
    rng = np.random.default_rng(22)
    mpath, *_ = _write_full_manifest(tmp_path, rng)
    (tmp_path / "chunk_0001.ply").unlink()
    with pytest.raises(ManifestError, match="missing chunk payload"):
        read_manifest(mpath)


def test_manifest_missing_ground_truth(tmp_path):
    rng = np.random.default_rng(23)
    mpath, *_ = _write_full_manifest(tmp_path, rng)
    (tmp_path / "gt.txt").unlink()
    with pytest.raises(ManifestError, match="missing ground_truth"):
        read_manifest(mpath)


def test_manifest_bad_mask_fraction(tmp_path):
    rng = np.random.default_rng(24)
    mpath, *_ = _write_full_manifest(tmp_path, rng)
    doc = json.loads(mpath.read_text())
    doc["mask"]["fraction"] = 1.5
    mpath.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="mask:"):
        read_manifest(mpath)


def test_manifest_invalid_json(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text("{\n  broken\n}")
    with pytest.raises(ManifestError) as ei:
        read_manifest(mpath)
    assert "invalid JSON" in str(ei.value) and ei.value.line == 2


def test_manifest_missing_video_field(tmp_path):
    meta = VideoMeta(10, 5.0, 8, 8)
    plan = plan_fixed_chunks(meta, 1.0, 1)
    mpath = tmp_path / "m.json"
    write_manifest(mpath, meta, plan)
    doc = json.loads(mpath.read_text())
    del doc["video"]["fps"]
    mpath.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="missing field 'fps' in video"):
        read_manifest(mpath)


def test_manifest_payload_count_mismatch(tmp_path):
    rng = np.random.default_rng(25)
    mpath, *_ = _write_full_manifest(tmp_path, rng)
    doc = json.loads(mpath.read_text())
    doc["chunk_payloads"] = doc["chunk_payloads"][:-1]
    mpath.write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="chunk payloads for"):
        read_manifest(mpath)


def _text_reader(name, reader, text):
    def make(tmp_path):
        p = tmp_path / name
        p.write_text(text)
        return lambda: reader(p)

    return make


def _nan_binary_ply(tmp_path):
    p = tmp_path / "nan.ply"
    write_pointcloud(p, PointCloudData(np.array([[0.0, 0.0, 0.0], [1.0, np.nan, 2.0]])))
    return lambda: read_pointcloud(p)


def _edited_binary_ply(edit):
    def make(tmp_path):
        p = tmp_path / "p.ply"
        write_pointcloud(p, PointCloudData(np.arange(30.0).reshape(10, 3)), binary=True)
        p.write_bytes(edit(p.read_bytes()))
        return lambda: read_pointcloud(p)

    return make


def _edited_chunk_cloud(edit):
    def make(tmp_path):
        poses_p, pts_p = tmp_path / "c.json", tmp_path / "c.ply"
        write_chunk(_small_chunk(np.random.default_rng(18)), poses_p, pts_p)
        pts_p.write_bytes(edit(pts_p.read_bytes()))
        return lambda: read_chunk(poses_p, pts_p)

    return make


def _edited_manifest(edit):
    def make(tmp_path):
        mpath, *_ = _write_full_manifest(tmp_path, np.random.default_rng(26))
        doc = json.loads(mpath.read_text())
        edit(doc)
        mpath.write_text(json.dumps(doc))
        return lambda: read_manifest(mpath)

    return make


def _edited_chunk(edit):
    def make(tmp_path):
        poses_p, pts_p = tmp_path / "c.json", tmp_path / "c.ply"
        write_chunk(_small_chunk(np.random.default_rng(18)), poses_p, pts_p)
        doc = json.loads(poses_p.read_text())
        edit(doc)
        poses_p.write_text(json.dumps(doc))
        return lambda: read_chunk(poses_p, pts_p)

    return make


@pytest.mark.parametrize(
    "make, error, needle",
    [
        pytest.param(
            _text_reader("t.txt", read_trajectory, "nan 0 0 0 0 0 0 1\n"), TrajectoryFormatError, "non-finite",
            id="trajectory-nan-timestamp",
        ),
        pytest.param(
            _text_reader("t.txt", read_trajectory, "0.0 nan 0 0 0 0 0 1\n"), TrajectoryFormatError, "non-finite",
            id="trajectory-nan-translation",
        ),
        pytest.param(
            _text_reader("t.txt", read_trajectory, "0.0 1 -inf 0 0 0 0 1\n"), TrajectoryFormatError, "non-finite",
            id="trajectory-inf-translation",
        ),
        pytest.param(
            _text_reader("g.txt", read_gauges, "0 nan 0 0 0 0 0 0 1\n"), ManifestError, "non-finite",
            id="gauges-nan-scale",
        ),
        pytest.param(
            _text_reader("g.txt", read_gauges, "0 1.0 inf 0 0 0 0 0 1\n"), ManifestError, "non-finite",
            id="gauges-inf-translation",
        ),
        pytest.param(
            _text_reader("p.ply", read_pointcloud, _ply_ascii(["x", "y", "z"], ["nan 0 0"])),
            PointCloudFormatError, "non-finite x", id="ply-ascii-nan",
        ),
        pytest.param(_nan_binary_ply, PointCloudFormatError, "non-finite y", id="ply-binary-nan"),
        pytest.param(
            _edited_binary_ply(lambda b: b.replace(b"vertex 10\n", b"vertex -1\n")),
            PointCloudFormatError, "negative vertex count", id="ply-binary-count-minus-one",
        ),
        pytest.param(
            _edited_binary_ply(lambda b: b.replace(b"vertex 10\n", b"vertex -10\n")),
            PointCloudFormatError, "negative vertex count", id="ply-binary-count-minus-ten",
        ),
        pytest.param(
            _edited_binary_ply(lambda b: b + bytes(8)), PointCloudFormatError, "overlong payload",
            id="ply-binary-trailing-bytes",
        ),
        pytest.param(
            _edited_chunk_cloud(lambda b: b + bytes(24)), PointCloudFormatError, "overlong payload",
            id="chunk-cloud-trailing-bytes",
        ),
        pytest.param(
            _edited_chunk(lambda d: d.update(frames=5)), ManifestError, "frames must be a list",
            id="chunk-frames-number",
        ),
        pytest.param(
            _edited_chunk(lambda d: d.update(frames={"0": d["frames"][0]})),
            ManifestError, "frames must be a list", id="chunk-frames-object",
        ),
        pytest.param(
            _edited_chunk(lambda d: d.update(chunk_id="zero")), ManifestError, "chunk_id must be",
            id="chunk-id-string",
        ),
        pytest.param(
            _edited_chunk(lambda d: d.update(chunk_id=1.5)), ManifestError, "chunk_id must be",
            id="chunk-id-fraction",
        ),
        pytest.param(
            _edited_chunk(lambda d: d.update(chunk_id=None)), ManifestError, "chunk_id must be",
            id="chunk-id-null",
        ),
        pytest.param(
            _edited_chunk(lambda d: d["frames"][1].update(num_points="four")),
            ManifestError, r"frames\[1\]\.num_points must be", id="chunk-num-points-string",
        ),
        pytest.param(
            _edited_chunk(lambda d: d["frames"][1].update(num_points=None)),
            ManifestError, r"frames\[1\]\.num_points must be", id="chunk-num-points-null",
        ),
        pytest.param(
            _edited_chunk(lambda d: d["frames"][0].update(translation=[0.0, float("nan"), 0.0])),
            ManifestError, "non-finite", id="chunk-nan-translation",
        ),
        pytest.param(
            _edited_chunk(lambda d: d["frames"][2].update(timestamp="noon")),
            ManifestError, r"frames\[2\]", id="chunk-timestamp-string",
        ),
        pytest.param(
            _edited_manifest(lambda d: d["plan"].update(chunks=5)),
            ManifestError, "plan.chunks must be a list", id="manifest-plan-chunks-number",
        ),
        pytest.param(
            _edited_manifest(lambda d: d["plan"].update(chunks=[5])),
            ManifestError, r"plan\.chunks\[0\] must be an object", id="manifest-plan-chunk-number",
        ),
        pytest.param(
            _edited_manifest(lambda d: d["plan"]["chunks"][1].update(chunk_id="x")),
            ManifestError, r"plan\.chunks\[1\]\.chunk_id must be", id="manifest-plan-chunk-id-string",
        ),
        pytest.param(
            _edited_manifest(lambda d: d.update(chunk_payloads=5)),
            ManifestError, "chunk_payloads must be a list", id="manifest-payloads-number",
        ),
        pytest.param(
            _edited_manifest(lambda d: d.update(chunk_payloads=[5] * len(d["chunk_payloads"]))),
            ManifestError, r"chunk_payloads\[0\] must be an object", id="manifest-payload-number",
        ),
        pytest.param(
            _edited_manifest(lambda d: d.update(mask=5)), ManifestError, "mask must be an object",
            id="manifest-mask-number",
        ),
        pytest.param(
            _edited_manifest(lambda d: d.update(ground_truth=5)),
            ManifestError, "ground_truth must be a string", id="manifest-ground-truth-number",
        ),
        pytest.param(
            _edited_manifest(lambda d: d["video"].update(num_frames=1.5)),
            ManifestError, r"video\.num_frames must be", id="manifest-num-frames-fraction",
        ),
    ],
)
def test_readers_reject_non_finite_and_mistyped_fields(tmp_path, make, error, needle):
    read = make(tmp_path)
    with pytest.raises(error, match=needle):
        read()


def test_all_reader_errors_are_data_format_errors():
    assert issubclass(ManifestError, DataFormatError)
    assert issubclass(TrajectoryFormatError, DataFormatError)
    assert issubclass(PointCloudFormatError, DataFormatError)


# ---------------------------------------------------------------------------
# gauge files


def test_gauges_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    gauges = []
    for _ in range(4):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        gauges.append(Sim3Transform(float(rng.uniform(0.5, 2.0)), Rotation(q), rng.normal(size=3)))
    p = tmp_path / "gauges.txt"
    write_gauges(p, gauges)
    back = read_gauges(p)
    assert len(back) == 4
    for a, b in zip(back, gauges):
        assert a.scale == b.scale
        assert np.array_equal(a.translation, b.translation)
        assert a.rotation.angle_to(b.rotation) < 1e-15


@pytest.mark.parametrize(
    "content, needle",
    [
        ("0 1.0 0 0 0 0 0 0\n", "got 8"),
        ("0 1.0 0 0 0 0 0 oops 1\n", "non-numeric"),
        ("0 1.0 0 0 0 0 0 0 1\n0 1.0 0 0 0 0 0 0 1\n", "duplicate chunk id"),
        ("1 1.0 0 0 0 0 0 0 1\n", "contiguous"),
        ("0 -2.0 0 0 0 0 0 0 1\n", "scale"),
        ("0 1.0 0 0 0 0 0 0 0.5\n", "quaternion norm"),
    ],
)
def test_gauges_malformed(tmp_path, content, needle):
    p = tmp_path / "g.txt"
    p.write_text(content)
    with pytest.raises(ManifestError, match=needle):
        read_gauges(p)
