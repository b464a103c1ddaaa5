"""Output checks computed apart from trackstitch.

Plain numpy and scipy only: this file has its own quaternion algebra, its
own closed-form Umeyama fit and its own readers for the TUM trajectory,
gauge, diagnostics and binary PLY files the program writes.  Nothing here
imports trackstitch, so a fault in the program's geometry or I/O cannot
hide itself by also breaking the check.

Every ``check_*`` function returns a list of failure messages; an empty
list means the check passed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

# ---------------------------------------------------------------------------
# quaternion and similarity algebra, quaternions stored (w, x, y, z)


def qmul(a, b):
    """Hamilton product of (..., 4) quaternion arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w1, v1 = a[..., :1], a[..., 1:]
    w2, v2 = b[..., :1], b[..., 1:]
    w = w1 * w2 - np.sum(v1 * v2, axis=-1, keepdims=True)
    v = w1 * v2 + w2 * v1 + np.cross(v1, v2)
    return np.concatenate([w, v], axis=-1)


def qconj(q):
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def qmatrix(q):
    """Rotation matrices (..., 3, 3) of (..., 4) unit quaternions."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = (q[..., i] for i in range(4))
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )


def qrotate(q, v):
    """Rotate (N, 3) vectors by one quaternion (4,) or by one each (N, 4)."""
    return np.einsum("...ij,...j->...i", qmatrix(q), np.asarray(v, dtype=float))


def qfromrotvec(w):
    w = np.asarray(w, dtype=float)
    angle = float(np.linalg.norm(w))
    if angle == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * w / angle])


def pose_inverse_apply(q, t, p):
    """Points in a rigid pose's own frame: R(q)^T (p - t), for one pose or
    one per row."""
    return qrotate(qconj(q), np.asarray(p, dtype=float) - np.asarray(t, dtype=float))


def umeyama(src, dst):
    """Closed-form least-squares similarity (s, R, t) with dst ~ s R src + t."""
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s, mu_d = src.mean(axis=0), dst.mean(axis=0)
    cs, cd = src - mu_s, dst - mu_d
    cov = cd.T @ cs / len(src)
    u, d, vt = np.linalg.svd(cov)
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2] = -1.0
    rot = (u * sign) @ vt
    scale = float((d * sign).sum() / ((cs**2).sum() / len(src)))
    return scale, rot, mu_d - scale * rot @ mu_s


# ---------------------------------------------------------------------------
# readers for the files the program writes


def read_tum(path):
    """(timestamps, positions, wxyz quaternions) of a TUM trajectory file."""
    rows = [
        line.split()
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    data = np.array(rows, dtype=float).reshape(-1, 8)
    quats = data[:, [7, 4, 5, 6]]  # file order is qx qy qz qw
    return data[:, 0], data[:, 1:4], quats


def read_gauges(path):
    """List of (s, wxyz, t) per chunk from a ``k s tx ty tz qx qy qz qw`` file."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        f = line.split()
        v = [float(x) for x in f[1:]]
        out[int(f[0])] = (v[0], np.array([v[7], v[4], v[5], v[6]]), np.array(v[1:4]))
    return [out[k] for k in sorted(out)]


def read_diagnostics(path):
    """(round, stage, initial cost, final cost) rows of a refine cost table."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        f = line.split()
        rows.append((int(f[0]), f[1], float(f[3]), float(f[4])))
    return rows


_PLY_DTYPES = {"float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8"}


def read_ply(path):
    """Columns of a binary little-endian PLY vertex element, by property name."""
    blob = Path(path).read_bytes()
    end = blob.index(b"end_header\n") + len(b"end_header\n")
    header = blob[:end].decode("ascii").splitlines()
    if "format binary_little_endian 1.0" not in header:
        raise ValueError(f"{path}: not a binary little-endian PLY")
    count = 0
    fields = []
    for line in header:
        tok = line.split()
        if tok[:2] == ["element", "vertex"]:
            count = int(tok[2])
        elif tok and tok[0] == "property":
            fields.append((tok[2], _PLY_DTYPES[tok[1]]))
    rec = np.frombuffer(blob, dtype=np.dtype(fields), count=count, offset=end)
    return {name: rec[name].astype(float) for name, _ in fields}


def ply_points(path):
    cols = read_ply(path)
    return np.column_stack([cols["x"], cols["y"], cols["z"]])


def read_chunk_files(poses_path, points_path):
    """Per-frame (frame, timestamp, wxyz, t, local points) of one chunk payload."""
    doc = json.loads(Path(poses_path).read_text())
    pts = ply_points(points_path)
    out, offset = [], 0
    for fd in doc["frames"]:
        n = fd["num_points"]
        out.append(
            (
                fd["frame"],
                fd["timestamp"],
                np.array(fd["quaternion_wxyz"], dtype=float),
                np.array(fd["translation"], dtype=float),
                pts[offset : offset + n],
            )
        )
        offset += n
    if offset != len(pts):
        raise ValueError(f"{points_path}: frame point counts do not cover the cloud")
    return doc["chunk_id"], out


# ---------------------------------------------------------------------------
# metrics


def associate(t_est, t_gt, max_dt=0.02):
    """Indices pairing each estimate sample with the reference at the same time."""
    t_est = np.asarray(t_est, dtype=float)
    t_gt = np.asarray(t_gt, dtype=float)
    j = np.clip(np.searchsorted(t_gt, t_est), 1, len(t_gt) - 1)
    j = np.where(np.abs(t_gt[j - 1] - t_est) <= np.abs(t_gt[j] - t_est), j - 1, j)
    ok = np.abs(t_gt[j] - t_est) <= max_dt
    return np.flatnonzero(ok), j[ok]


def ate(t_est, p_est, t_gt, p_gt):
    """Sim(3)-aligned ATE RMSE and the alignment (s, R, t) mapping estimate to reference."""
    ie, ig = associate(t_est, t_gt)
    s, rot, t = umeyama(p_est[ie], p_gt[ig])
    mapped = s * p_est[ie] @ rot.T + t
    return float(np.sqrt(np.mean(np.sum((mapped - p_gt[ig]) ** 2, axis=1)))), (s, rot, t)


def lift(scale, q, t, cam):
    """Row-wise s_i R(q_i) cam_i + t_i: observations in their cameras' frames
    carried into the world by one similarity each."""
    return np.asarray(scale, dtype=float)[:, None] * qrotate(q, cam) + np.asarray(t, dtype=float)


def cloud_rms(points, q, t, align_scale, true_cam):
    """RMS error, in metres, of fused points in the frame of the camera that
    observed them.

    Row i: fused point ``points[i]`` was taken from an observation of a
    frame whose refined pose is (``q[i]``, ``t[i]``); ``true_cam[i]`` is the
    observation's offset from that camera in metres, as the simulator drew
    it.  The point is carried into the camera's frame by the refined pose
    and into metres by the trajectory's Sim(3) alignment scale, so pose
    drift, which the ATE already scores, cancels and what remains is the
    scale the fused cloud gave each frame's points.
    """
    est = align_scale * pose_inverse_apply(q, t, points)
    return float(np.sqrt(np.mean(np.sum((est - np.asarray(true_cam)) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# checks


def check_trajectory(name, timestamps, positions, quats):
    """Finite values, unit quaternions and strictly increasing timestamps."""
    bad = []
    if len(timestamps) == 0:
        return [f"{name}: empty trajectory"]
    if not (np.all(np.isfinite(timestamps)) and np.all(np.isfinite(positions))
            and np.all(np.isfinite(quats))):
        bad.append(f"{name}: non-finite values")
    norm_err = float(np.max(np.abs(np.linalg.norm(quats, axis=1) - 1.0)))
    if norm_err > 1e-9:
        bad.append(f"{name}: quaternion norm off by {norm_err:.3g}")
    if np.any(np.diff(timestamps) <= 0.0):
        bad.append(f"{name}: timestamps not strictly increasing")
    return bad


def check_gauges(gauges):
    bad = []
    for k, (s, q, t) in enumerate(gauges):
        if not (np.isfinite(s) and s > 0 and np.all(np.isfinite(q)) and np.all(np.isfinite(t))):
            bad.append(f"gauge {k}: non-finite or non-positive values")
        elif abs(float(np.linalg.norm(q)) - 1.0) > 1e-9:
            bad.append(f"gauge {k}: quaternion not unit")
    return bad


def check_ate_agrees(own, program, rtol=1e-6):
    """The benchmark's own ATE matches the program's ``evaluation.ate``."""
    if not abs(own - program) <= rtol * max(abs(own), abs(program)):
        return [f"own ATE {own!r} disagrees with the program's {program!r}"]
    return []


def check_loop_edges(edges, gt_positions, max_distance=30.0):
    """Every accepted loop edge (i, j) joins frames that truly revisit."""
    bad = []
    for i, j in edges:
        d = float(np.linalg.norm(gt_positions[i] - gt_positions[j]))
        if d > max_distance:
            bad.append(f"loop edge {i}-{j} joins frames {d:.1f} m apart in ground truth")
    return bad


def check_costs(stages):
    """No optimizer stage ends above its starting cost; rows are
    (round, stage, initial, final)."""
    return [
        f"round {r} {stage}: cost rose {c0!r} -> {c1!r}"
        for r, stage, c0, c1 in stages
        if not c1 <= c0 * (1.0 + 1e-9) + 1e-12
    ]


def check_refined_not_worse(ate_stitched, ate_refined):
    if not ate_refined <= ate_stitched:
        return [f"refined ATE {ate_refined:.4f} m above stitched {ate_stitched:.4f} m"]
    return []


def check_voxels(points, voxel):
    """At most one fused point per voxel."""
    keys = np.floor(np.asarray(points) / voxel).astype(np.int64)
    dup = len(keys) - len(np.unique(keys, axis=0))
    return [f"{dup} fused points share a voxel"] if dup else []


def check_on_lifted(points, lifted, tol=1e-6):
    """Every fused point lies on a lifted input point.  Returns the failures
    and the row of ``lifted`` each fused point lies nearest to."""
    d, idx = cKDTree(lifted).query(points)
    far = int(np.sum(d > tol))
    bad = [f"{far} fused points lie off every lifted input point (max {d.max():.3g} m)"] if far else []
    return bad, idx


def check_identical(name, blobs):
    """Repeated operations wrote byte-identical files."""
    differ = [k for k, b in enumerate(blobs) if b != blobs[0]]
    return [f"{name}: repetitions {differ} differ from the first"] if differ else []
