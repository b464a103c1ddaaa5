"""On-disk formats: manifests, chunk payloads, trajectories, point clouds.

Formats
-------
Manifest: JSON.  Keys: ``version``, ``video`` (num_frames, fps, width,
height), ``plan`` (overlap_frames, chunks as inclusive frame ranges,
boundary_violations), optional ``mask``, optional ``chunk_payloads``
(per-chunk pose-index and point-cloud paths, relative to the manifest),
optional ``ground_truth`` trajectory path.

Chunk payload: a JSON pose index (per frame: index, timestamp,
camera-to-world pose, pinhole intrinsics, point count) plus one PLY
holding every frame's points concatenated in frame order; the per-frame
counts in the index delimit them.

Trajectory: text, one sample per line, ``timestamp tx ty tz qx qy qz qw``
(quaternion is x, y, z, w on disk; w >= 0 canonical form is written).
``#`` starts a comment.  Floats are written with repr so values
round-trip exactly.

Point cloud: PLY, ascii or binary little-endian, properties
``x y z [confidence] [u v]`` as float or double.

All readers raise typed errors carrying file path and, where it makes
sense, a 1-based line number; they never crash on malformed input.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ManifestError, PointCloudFormatError, TrajectoryFormatError
from .geometry import Pose, Rotation, Sim3Transform
from .preprocess import ChunkPlan, ChunkSpec, MaskSpec, VideoMeta, build_mask

_QUAT_NORM_TOL = 1e-3


@dataclass(frozen=True)
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")


@dataclass
class FrameRecord:
    frame: int
    timestamp: float
    pose: Pose  # camera-to-world, chunk-local coordinates
    intrinsics: Intrinsics
    points: np.ndarray  # (N, 3) chunk-local
    pixels: np.ndarray  # (N, 2) pixel coordinates (u, v)
    confidence: np.ndarray  # (N,) in [0, 1]


@dataclass
class ChunkReconstruction:
    chunk_id: int
    frames: list[FrameRecord]

    def __post_init__(self):
        if len(self.frames) < 2:
            raise ValueError(f"chunk {self.chunk_id} has {len(self.frames)} frames, need >= 2")
        idx = [f.frame for f in self.frames]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError(f"chunk {self.chunk_id} frame indices are not strictly increasing")
        for f in self.frames:
            if f.points.shape[0] != f.confidence.shape[0] or f.points.shape[0] != f.pixels.shape[0]:
                raise ValueError(f"chunk {self.chunk_id} frame {f.frame}: array lengths disagree")
            if f.confidence.size and (f.confidence.min() < 0.0 or f.confidence.max() > 1.0):
                raise ValueError(f"chunk {self.chunk_id} frame {f.frame}: confidence outside [0, 1]")

    @property
    def start_frame(self) -> int:
        return self.frames[0].frame

    @property
    def end_frame(self) -> int:
        return self.frames[-1].frame

    def frame_map(self) -> dict[int, FrameRecord]:
        return {f.frame: f for f in self.frames}


@dataclass
class Trajectory:
    timestamps: np.ndarray  # (N,) strictly increasing
    poses: list[Pose]

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float).reshape(-1)
        if len(self.poses) != self.timestamps.shape[0]:
            raise ValueError("timestamps and poses disagree in length")
        if np.any(np.diff(self.timestamps) <= 0.0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    def positions(self) -> np.ndarray:
        return np.array([p.translation for p in self.poses])


# ---------------------------------------------------------------------------
# trajectories (TUM-style text)


def write_trajectory(path, traj: Trajectory) -> None:
    lines = ["# timestamp tx ty tz qx qy qz qw"]
    for t, pose in zip(traj.timestamps, traj.poses):
        q = pose.rotation.canonical_wxyz()
        vals = [t, *pose.translation, q[1], q[2], q[3], q[0]]
        lines.append(" ".join(repr(float(v)) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path) -> Trajectory:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise TrajectoryFormatError(str(e), path=str(path)) from e
    timestamps: list[float] = []
    poses: list[Pose] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 8:
            raise TrajectoryFormatError(
                f"expected 8 fields, got {len(fields)}", path=str(path), line=lineno
            )
        try:
            vals = [float(f) for f in fields]
        except ValueError as e:
            raise TrajectoryFormatError(f"non-numeric field: {e}", path=str(path), line=lineno)
        if not np.all(np.isfinite(vals)):
            raise TrajectoryFormatError("non-finite field", path=str(path), line=lineno)
        t, tx, ty, tz, qx, qy, qz, qw = vals
        norm = float(np.linalg.norm([qw, qx, qy, qz]))
        if abs(norm - 1.0) > _QUAT_NORM_TOL:
            raise TrajectoryFormatError(
                f"quaternion norm {norm:.6g} outside 1 +- {_QUAT_NORM_TOL:g}",
                path=str(path),
                line=lineno,
            )
        if timestamps and t <= timestamps[-1]:
            raise TrajectoryFormatError(
                f"timestamp {t!r} not increasing", path=str(path), line=lineno
            )
        timestamps.append(t)
        poses.append(Pose(Rotation([qw, qx, qy, qz], atol=_QUAT_NORM_TOL), [tx, ty, tz]))
    if not timestamps:
        raise TrajectoryFormatError("no samples", path=str(path))
    return Trajectory(np.array(timestamps), poses)


# ---------------------------------------------------------------------------
# point clouds (PLY)


@dataclass
class PointCloudData:
    points: np.ndarray  # (N, 3)
    confidence: np.ndarray | None = None  # (N,) or None when absent from file
    pixels: np.ndarray | None = None  # (N, 2) or None

    def confidence_or_default(self) -> np.ndarray:
        if self.confidence is None:
            return np.ones(self.points.shape[0])
        return self.confidence


_PLY_TYPES = {"float": ("<f4", "f"), "float32": ("<f4", "f"), "double": ("<f8", "d"), "float64": ("<f8", "d")}


def write_pointcloud(path, cloud: PointCloudData, *, binary: bool = True, dtype: str = "double") -> None:
    if dtype not in ("float", "double"):
        raise ValueError("dtype must be 'float' or 'double'")
    np_dtype = _PLY_TYPES[dtype][0]
    pts = np.asarray(cloud.points, dtype=np_dtype)
    n = pts.shape[0]
    props = ["x", "y", "z"]
    cols = [pts[:, 0], pts[:, 1], pts[:, 2]]
    if cloud.confidence is not None:
        props.append("confidence")
        cols.append(np.asarray(cloud.confidence, dtype=np_dtype))
    if cloud.pixels is not None:
        props += ["u", "v"]
        pix = np.asarray(cloud.pixels, dtype=np_dtype)
        cols += [pix[:, 0], pix[:, 1]]
    fmt = "binary_little_endian" if binary else "ascii"
    header = ["ply", f"format {fmt} 1.0", f"element vertex {n}"]
    header += [f"property {dtype} {p}" for p in props]
    header.append("end_header")
    path = Path(path)
    if binary:
        rec = np.rec.fromarrays(cols, names=props)
        with path.open("wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("ascii"))
            fh.write(rec.tobytes())
    else:
        body = []
        table = np.column_stack(cols)
        for row in table:
            body.append(" ".join(repr(float(v)) for v in row))
        path.write_text("\n".join(header + body) + "\n")


def read_pointcloud(path) -> PointCloudData:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise PointCloudFormatError(str(e), path=str(path)) from e
    end = blob.find(b"end_header\n")
    if not blob.startswith(b"ply\n") or end < 0:
        raise PointCloudFormatError("not a PLY file (bad header)", path=str(path))
    header_lines = blob[:end].decode("ascii", errors="replace").splitlines()
    body = blob[end + len(b"end_header\n") :]

    fmt = None
    count = None
    props: list[tuple[str, str]] = []  # (type, name)
    for lineno, line in enumerate(header_lines[1:], start=2):
        tok = line.split()
        if not tok or tok[0] == "comment":
            continue
        if tok[0] == "format":
            if len(tok) < 2 or tok[1] not in ("ascii", "binary_little_endian"):
                raise PointCloudFormatError(
                    f"unsupported format {' '.join(tok[1:])!r}", path=str(path), line=lineno
                )
            fmt = tok[1]
        elif tok[0] == "element":
            if len(tok) != 3 or tok[1] != "vertex":
                raise PointCloudFormatError(
                    f"unsupported element {' '.join(tok[1:])!r}", path=str(path), line=lineno
                )
            try:
                count = int(tok[2])
            except ValueError:
                raise PointCloudFormatError("bad vertex count", path=str(path), line=lineno)
        elif tok[0] == "property":
            if len(tok) != 3 or tok[1] not in _PLY_TYPES:
                raise PointCloudFormatError(
                    f"unsupported property {' '.join(tok[1:])!r}", path=str(path), line=lineno
                )
            props.append((tok[1], tok[2]))
    if fmt is None or count is None:
        raise PointCloudFormatError("header missing format or element line", path=str(path))

    names = [p[1] for p in props]
    allowed = ({"x", "y", "z"}, {"x", "y", "z", "confidence"}, {"x", "y", "z", "u", "v"},
               {"x", "y", "z", "confidence", "u", "v"})
    if set(names) not in allowed or len(set(names)) != len(names):
        raise PointCloudFormatError(
            f"unknown element layout, found properties {names}", path=str(path)
        )

    if fmt == "ascii":
        rows = body.decode("ascii", errors="replace").splitlines()
        data_rows = [r.split("#", 1)[0].split() for r in rows]
        data_rows = [r for r in data_rows if r]
        if len(data_rows) != count:
            raise PointCloudFormatError(
                f"expected {count} vertex rows, found {len(data_rows)}", path=str(path)
            )
        parsed = []
        for r in data_rows:
            if len(r) != len(names):
                raise PointCloudFormatError(
                    f"vertex row has {len(r)} fields for {len(names)} properties",
                    path=str(path),
                )
            try:
                parsed.append([float(v) for v in r])
            except ValueError as e:
                raise PointCloudFormatError(f"non-numeric vertex data: {e}", path=str(path))
        table = np.array(parsed, dtype=float) if parsed else np.zeros((0, len(names)))
        columns = {name: table[:, i] for i, name in enumerate(names)}
    else:
        np_dtype = np.dtype([(name, _PLY_TYPES[t][0]) for t, name in props])
        need = np_dtype.itemsize * count
        if len(body) < need:
            raise PointCloudFormatError(
                f"truncated payload: {len(body)} bytes for {count} vertices "
                f"({need} required)",
                path=str(path),
            )
        rec = np.frombuffer(body[:need], dtype=np_dtype)
        columns = {name: rec[name].astype(rec[name].dtype) for name in names}

    points = np.column_stack([columns["x"], columns["y"], columns["z"]])
    confidence = columns.get("confidence")
    pixels = None
    if "u" in columns:
        pixels = np.column_stack([columns["u"], columns["v"]])
    for name, column in columns.items():
        if not np.all(np.isfinite(column)):
            raise PointCloudFormatError(f"non-finite {name} value", path=str(path))
    return PointCloudData(points, confidence, pixels)


# ---------------------------------------------------------------------------
# chunk payloads


def write_chunk(chunk: ChunkReconstruction, poses_path, points_path) -> None:
    frames = []
    all_pts, all_pix, all_conf = [], [], []
    for f in chunk.frames:
        q = f.pose.rotation.canonical_wxyz()
        frames.append(
            {
                "frame": f.frame,
                "timestamp": f.timestamp,
                "translation": [float(v) for v in f.pose.translation],
                "quaternion_wxyz": [float(v) for v in q],
                "intrinsics": [f.intrinsics.fx, f.intrinsics.fy, f.intrinsics.cx, f.intrinsics.cy],
                "num_points": int(f.points.shape[0]),
            }
        )
        all_pts.append(f.points)
        all_pix.append(f.pixels)
        all_conf.append(f.confidence)
    doc = {"chunk_id": chunk.chunk_id, "frames": frames}
    Path(poses_path).write_text(json.dumps(doc, indent=1))
    cloud = PointCloudData(
        np.concatenate(all_pts) if all_pts else np.zeros((0, 3)),
        np.concatenate(all_conf) if all_conf else np.zeros(0),
        np.concatenate(all_pix) if all_pix else np.zeros((0, 2)),
    )
    write_pointcloud(points_path, cloud, binary=True, dtype="double")


def _require(doc: dict, key: str, path: str, context: str = ""):
    if key not in doc:
        where = f" in {context}" if context else ""
        raise ManifestError(f"missing field {key!r}{where}", path=path)
    return doc[key]


def _typed(doc: dict, key: str, path: str, context: str, kind: str, ok):
    value = _require(doc, key, path, context)
    if not ok(value):
        where = f"{context}.{key}" if context else key
        raise ManifestError(f"{where} must be {kind}, got {value!r}", path=path)
    return value


def _count(doc: dict, key: str, path: str, context: str = "") -> int:
    """A required field that must be a non-negative integer (an id or a count)."""
    return _typed(
        doc, key, path, context, "a non-negative integer",
        lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    )


def _string(doc: dict, key: str, path: str, context: str = "") -> str:
    return _typed(doc, key, path, context, "a string", lambda v: isinstance(v, str))


def _object(value, where: str, path: str) -> dict:
    if not isinstance(value, dict):
        raise ManifestError(f"{where} must be an object", path=path)
    return value


def _list(value, where: str, path: str) -> list:
    if not isinstance(value, list):
        raise ManifestError(f"{where} must be a list", path=path)
    return value


def read_chunk(poses_path, points_path) -> ChunkReconstruction:
    poses_path = Path(poses_path)
    try:
        doc = json.loads(poses_path.read_text())
    except OSError as e:
        raise ManifestError(str(e), path=str(poses_path)) from e
    except json.JSONDecodeError as e:
        raise ManifestError(f"invalid JSON: {e.msg}", path=str(poses_path), line=e.lineno)
    cloud = read_pointcloud(points_path)
    conf = cloud.confidence_or_default()
    pixels = cloud.pixels
    if pixels is None:
        pixels = np.zeros((cloud.points.shape[0], 2))

    doc = _object(doc, "top level", str(poses_path))
    chunk_id = _count(doc, "chunk_id", str(poses_path))
    frame_docs = _list(_require(doc, "frames", str(poses_path)), "frames", str(poses_path))
    frames = []
    offset = 0
    for i, fd in enumerate(frame_docs):
        ctx = f"frames[{i}]"
        fd = _object(fd, ctx, str(poses_path))
        n = _count(fd, "num_points", str(poses_path), ctx)
        t = _require(fd, "translation", str(poses_path), ctx)
        q = _require(fd, "quaternion_wxyz", str(poses_path), ctx)
        intr = _require(fd, "intrinsics", str(poses_path), ctx)
        if offset + n > cloud.points.shape[0]:
            raise ManifestError(
                f"{ctx}: point counts exceed cloud size {cloud.points.shape[0]}",
                path=str(poses_path),
            )
        try:
            timestamp = float(_require(fd, "timestamp", str(poses_path), ctx))
            t = np.asarray(t, dtype=float).reshape(3)
            q = np.asarray(q, dtype=float).reshape(4)
            intr = [float(v) for v in intr]
        except (TypeError, ValueError) as e:
            raise ManifestError(f"{ctx}: {e}", path=str(poses_path))
        if not np.all(np.isfinite([timestamp, *t, *q, *intr])):
            raise ManifestError(f"{ctx}: non-finite pose or intrinsics", path=str(poses_path))
        norm = float(np.linalg.norm(q))
        if abs(norm - 1.0) > _QUAT_NORM_TOL:
            raise ManifestError(
                f"{ctx}: quaternion norm {norm:.6g} outside tolerance", path=str(poses_path)
            )
        try:
            intrinsics = Intrinsics(*intr)
            pose = Pose(Rotation(q, atol=_QUAT_NORM_TOL), t)
        except (TypeError, ValueError) as e:
            raise ManifestError(f"{ctx}: {e}", path=str(poses_path))
        frames.append(
            FrameRecord(
                frame=_count(fd, "frame", str(poses_path), ctx),
                timestamp=timestamp,
                pose=pose,
                intrinsics=intrinsics,
                points=cloud.points[offset : offset + n],
                pixels=pixels[offset : offset + n],
                confidence=conf[offset : offset + n],
            )
        )
        offset += n
    if offset != cloud.points.shape[0]:
        raise ManifestError(
            f"cloud has {cloud.points.shape[0]} points but frame counts sum to {offset}",
            path=str(poses_path),
        )
    try:
        return ChunkReconstruction(chunk_id, frames)
    except ValueError as e:
        raise ManifestError(str(e), path=str(poses_path))


# ---------------------------------------------------------------------------
# manifests


@dataclass
class Manifest:
    meta: VideoMeta
    plan: ChunkPlan
    mask: MaskSpec | None
    payload_paths: list[tuple[Path, Path]] = field(default_factory=list)
    ground_truth: Path | None = None
    root: Path = Path(".")

    def load_chunks(self) -> list[ChunkReconstruction]:
        chunks = []
        for spec, (poses, points) in zip(self.plan.chunks, self.payload_paths):
            chunk = read_chunk(poses, points)
            if chunk.chunk_id != spec.chunk_id:
                raise ManifestError(
                    f"chunk_id {chunk.chunk_id} where the plan has chunk {spec.chunk_id}",
                    path=str(poses),
                )
            chunks.append(chunk)
        return chunks


def write_manifest(
    path,
    meta: VideoMeta,
    plan: ChunkPlan,
    mask: MaskSpec | None = None,
    payload_paths: list[tuple[str, str]] | None = None,
    ground_truth: str | None = None,
) -> None:
    doc: dict = {
        "version": 1,
        "video": {
            "num_frames": meta.num_frames,
            "fps": meta.fps,
            "width": meta.width,
            "height": meta.height,
        },
        "plan": {
            "overlap_frames": plan.overlap_frames,
            "boundary_violations": list(plan.boundary_violations),
            "chunks": [
                {"chunk_id": c.chunk_id, "start_frame": c.start_frame, "end_frame": c.end_frame}
                for c in plan.chunks
            ],
        },
    }
    if mask is not None:
        if mask.mode == "polygon":
            doc["mask"] = {"mode": "polygon", "vertices": [list(v) for v in mask.vertices]}
        else:
            doc["mask"] = {"mode": mask.mode, "fraction": mask.fraction}
    if payload_paths:
        doc["chunk_payloads"] = [
            {"chunk_id": k, "poses": str(p), "points": str(c)}
            for k, (p, c) in enumerate(payload_paths)
        ]
    if ground_truth is not None:
        doc["ground_truth"] = str(ground_truth)
    Path(path).write_text(json.dumps(doc, indent=1))


def read_manifest(path) -> Manifest:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise ManifestError(str(e), path=str(path)) from e
    except json.JSONDecodeError as e:
        raise ManifestError(f"invalid JSON: {e.msg}", path=str(path), line=e.lineno)
    src = str(path)
    doc = _object(doc, "top level", src)

    video = _object(_require(doc, "video", src), "video", src)
    try:
        meta = VideoMeta(
            _count(video, "num_frames", src, "video"),
            float(_require(video, "fps", src, "video")),
            _count(video, "width", src, "video"),
            _count(video, "height", src, "video"),
        )
        if not np.isfinite(meta.fps):
            raise ValueError("fps must be finite")
    except (TypeError, ValueError) as e:
        raise ManifestError(f"video: {e}", path=src)

    plan_doc = _object(_require(doc, "plan", src), "plan", src)
    chunks = []
    for i, cd in enumerate(_list(_require(plan_doc, "chunks", src, "plan"), "plan.chunks", src)):
        ctx = f"plan.chunks[{i}]"
        cd = _object(cd, ctx, src)
        keys = ("chunk_id", "start_frame", "end_frame")
        chunks.append(ChunkSpec(*(_count(cd, k, src, ctx) for k in keys)))
    violations = _list(plan_doc.get("boundary_violations", []), "plan.boundary_violations", src)
    try:
        overlap = _count(plan_doc, "overlap_frames", src, "plan")
        plan = ChunkPlan(tuple(chunks), overlap, meta.num_frames, tuple(violations))
    except ValueError as e:
        raise ManifestError(f"plan: {e}", path=src)

    mask = None
    if doc.get("mask") is not None:
        md = _object(doc["mask"], "mask", src)
        mode = _require(md, "mode", src, "mask")
        try:
            if mode == "polygon":
                mask = build_mask("polygon", vertices=_require(md, "vertices", src, "mask"))
            else:
                mask = build_mask(mode, float(_require(md, "fraction", src, "mask")))
        except (TypeError, ValueError) as e:
            raise ManifestError(f"mask: {e}", path=src)

    payloads: list[tuple[Path, Path]] = []
    root = path.parent
    if "chunk_payloads" in doc:
        entries = _list(doc["chunk_payloads"], "chunk_payloads", src)
        if len(entries) != len(plan.chunks):
            raise ManifestError(
                f"{len(entries)} chunk payloads for {len(plan.chunks)} chunks", path=src
            )
        for i, pd in enumerate(entries):
            ctx = f"chunk_payloads[{i}]"
            pd = _object(pd, ctx, src)
            poses, points = (root / _string(pd, k, src, ctx) for k in ("poses", "points"))
            for p in (poses, points):
                if not p.exists():
                    raise ManifestError(f"missing chunk payload {p.name!r} for chunk {i}", path=src)
            payloads.append((poses, points))

    gt = None
    if "ground_truth" in doc:
        gt = root / _string(doc, "ground_truth", src)
        if not gt.exists():
            raise ManifestError(f"missing ground_truth file {doc['ground_truth']!r}", path=src)

    return Manifest(meta, plan, mask, payloads, gt, root)


# ---------------------------------------------------------------------------
# per-chunk gauge files


def write_gauges(path, gauges: list[Sim3Transform]) -> None:
    lines = ["# chunk_id s tx ty tz qx qy qz qw"]
    for k, g in enumerate(gauges):
        q = g.rotation.canonical_wxyz()
        vals = [g.scale, *g.translation, q[1], q[2], q[3], q[0]]
        lines.append(str(k) + " " + " ".join(repr(float(v)) for v in vals))
    Path(path).write_text("\n".join(lines) + "\n")


def read_gauges(path) -> list[Sim3Transform]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ManifestError(str(e), path=str(path)) from e
    out: dict[int, Sim3Transform] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 9:
            raise ManifestError(f"expected 9 fields, got {len(fields)}", path=str(path), line=lineno)
        try:
            k = int(fields[0])
            s, tx, ty, tz, qx, qy, qz, qw = (float(v) for v in fields[1:])
        except ValueError as e:
            raise ManifestError(f"non-numeric field: {e}", path=str(path), line=lineno)
        if not np.all(np.isfinite([s, tx, ty, tz, qx, qy, qz, qw])):
            raise ManifestError("non-finite field", path=str(path), line=lineno)
        if k in out:
            raise ManifestError(f"duplicate chunk id {k}", path=str(path), line=lineno)
        try:
            out[k] = Sim3Transform(s, Rotation([qw, qx, qy, qz], atol=_QUAT_NORM_TOL), [tx, ty, tz])
        except ValueError as e:
            raise ManifestError(str(e), path=str(path), line=lineno)
    if sorted(out) != list(range(len(out))) or not out:
        raise ManifestError("chunk ids must be contiguous from 0", path=str(path))
    return [out[k] for k in range(len(out))]
