"""The benchmark's workloads: inputs, the timed pipeline, the checks.

A workload has ``setup(seed, workdir, ts)``, which makes its input, and
``run(inp, ts, stages)``, which runs one timed operation on that input and
times each pipeline stage through ``stages``.  ``verify(inp, out, ts)`` runs
the independent checks on an operation's outputs and returns
``(ate_m, cloud_rms_m, failures)``.

Inputs: the simulator draws the scene, the drift and the point noise from
fixed simulator seeds, so every run reconstructs the same physical
problem.  ``--seed`` only redraws the rotation and translation of each
chunk's unknown gauge, from the noise model's own gauge law
(``regauge``): the program sees other numbers on every seed while the
quality figures stay put.  The scale is kept, because the first chunk's
scale becomes the stitched world's and the program's thresholds are in
metres, so another scale would pose another problem.

trackstitch is reached through module attributes (``ts.posegraph.optimize``,
never ``from ... import``) so that the tracer's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks

VOXEL = 0.25
RPE_DELTA = 24  # the pipeline's default RPE window


@dataclass
class Input:
    sim_seed: int
    chunks: list  # trackstitch ChunkReconstruction, in the redrawn gauges
    gt: object  # trackstitch Trajectory
    true_scales: list[float]  # chunk-local to world scale, per chunk
    dir: Path
    input_bytes: int = 0  # size of the input files, when the input is on disk
    gt_t: np.ndarray = field(init=False)
    gt_p: np.ndarray = field(init=False)
    gt_q: np.ndarray = field(init=False)

    def __post_init__(self):
        self.gt_t = np.asarray(self.gt.timestamps, dtype=float)
        self.gt_p = np.array([p.translation for p in self.gt.poses])
        self.gt_q = np.array([p.rotation.wxyz for p in self.gt.poses])
        self.dir.mkdir(parents=True, exist_ok=True)


# ---------------------------------------------------------------------------
# inputs


def regauge(ts, result, noise, seed: int):
    """Move every chunk into a fresh gauge drawn like the simulator's.

    Chunk-local poses and points are re-expressed by the rigid H = G'^-1 G,
    where G is the simulator's gauge and G' the new draw with G's scale;
    odometry drift, point noise and seam samples are unchanged.
    """
    chunks = []
    for chunk, gauge in zip(result.chunks, result.gauges):
        rng = np.random.default_rng([seed, chunk.chunk_id])
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        q_new = checks.qfromrotvec(axis * rng.uniform(0.0, noise.gauge_rot_max))
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        t_new = direction * rng.uniform(0.0, noise.gauge_trans_max)
        q_h = checks.qmul(checks.qconj(q_new), gauge.rotation.wxyz)
        t_h = checks.qrotate(checks.qconj(q_new), gauge.translation - t_new) / gauge.scale
        frames = []
        for rec in chunk.frames:
            q = checks.qmul(q_h, rec.pose.rotation.wxyz)
            t = checks.qrotate(q_h, rec.pose.translation) + t_h
            pose = ts.geometry.Pose(ts.geometry.Rotation(q / np.linalg.norm(q)), t)
            frames.append(replace(rec, pose=pose, points=checks.qrotate(q_h, rec.points) + t_h))
        chunks.append(ts.chunkio.ChunkReconstruction(chunk.chunk_id, frames))
    return chunks


def _simulate(ts, track, frames, fps, speed, noise, sim_seed, points, seed):
    meta = ts.preprocess.VideoMeta(num_frames=frames, fps=fps, width=640, height=480)
    plan = ts.preprocess.plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    res = ts.sim.synth_chunks(
        track, meta, plan, speed=speed, noise=noise, seed=sim_seed, points_per_frame=points
    )
    if noise.scale_drift_per_frame != 0.0:
        raise ValueError("truth points assume no per-frame scale creep")
    return meta, plan, res, regauge(ts, res, noise, seed)


# ---------------------------------------------------------------------------
# the fused cloud: how the program makes it, and how it is checked


def refined_scale(graph, chunk_id, frame):
    """Refined chunk-local-to-world scale of ``frame`` as chunk ``chunk_id``
    observed it.

    A seam frame's node carries its owner chunk's scale; the other chunk's
    copy of the frame is in its own chunk scale, so the ratio of the two
    build scales carries the refined scale over."""
    node = graph.nodes[frame]
    return node.pose.scale * graph.chunk_scales[chunk_id] / node.build_scale


def fuse_like_cli(ts, chunks, gauges, refined, scale=None):
    """Fuse the way ``trackstitch fuse`` does: each frame's points lifted by
    the frame's refined rotation and translation (``refined``: frame ->
    Pose) and by its chunk's gauge scale, since the refined trajectory
    carries no scale; or by ``scale(chunk_id, frame)`` when given."""
    clouds = []
    for chunk, gauge in zip(chunks, gauges):
        poses = {
            rec.frame: ts.geometry.Sim3Transform(
                gauge.scale if scale is None else scale(chunk.chunk_id, rec.frame),
                refined[rec.frame].rotation, refined[rec.frame].translation,
            )
            for rec in chunk.frames
        }
        clouds.append(ts.fusion.to_global(chunk, gauge, poses))
    return ts.fusion.fuse(clouds, voxel=VOXEL, chunk_ids=[c.chunk_id for c in chunks])


@dataclass
class Observations:
    """Every input observation, one row each, in chunk and frame order."""

    stamp: np.ndarray  # timestamp of the observing frame
    cam: np.ndarray  # offset from the observing camera, in chunk units
    true_cam: np.ndarray  # the same offset in metres, as the simulator drew it
    scales: list  # one column of per-row lift scales per accepted lift


def observations(chunks, true_scales, scale_laws):
    """Observations of ``chunks``, given as (chunk_id, [(frame, timestamp,
    wxyz, t, points)]) with chunk-local poses and points.  ``scale_laws``
    are functions (chunk_id, frame) -> scale, one per lift a fused point
    may lie on."""
    stamp, cam, true_cam = [], [], []
    scales = [[] for _ in scale_laws]
    for k, frames in chunks:
        for frame, t, q_l, t_l, pts in frames:
            c = checks.pose_inverse_apply(q_l, t_l, pts)
            stamp.append(np.full(len(c), t))
            cam.append(c)
            true_cam.append(c * true_scales[k])
            for col, law in zip(scales, scale_laws):
                col.append(np.full(len(c), law(k, frame)))
    return Observations(
        np.concatenate(stamp), np.concatenate(cam), np.concatenate(true_cam),
        [np.concatenate(col) for col in scales],
    )


def frame_poses(obs, t_r, p_r, q_r):
    """The refined pose (wxyz, t) of each observation's frame, row for row,
    and the failures: observations whose frame has no refined pose."""
    ie, ig = checks.associate(obs.stamp, t_r, max_dt=1e-6)
    if len(ie) != len(obs.stamp):
        return None, None, [f"{len(obs.stamp) - len(ie)} observations' frames have no refined pose"]
    return q_r[ig], p_r[ig], []


def check_cloud(fused, obs, t_r, p_r, q_r, align_scale):
    """Checks of the fused cloud and its ``cloud_rms_m``.

    Every observation is lifted by its frame's refined rotation and
    translation with each of its lift scales; a fused point passes if it
    lies on one of these lifts, and its error is measured in the frame of
    the camera whose observation it is (``checks.cloud_rms``).
    """
    bad = checks.check_voxels(fused, VOXEL)
    q, t, missing = frame_poses(obs, t_r, p_r, q_r)
    if missing:
        return math.nan, bad + missing
    lifted = np.concatenate([checks.lift(s, q, t, obs.cam) for s in obs.scales])
    off, idx = checks.check_on_lifted(fused, lifted)
    idx %= len(obs.cam)
    return checks.cloud_rms(fused, q[idx], t[idx], align_scale, obs.true_cam[idx]), bad + off


# ---------------------------------------------------------------------------
# the in-process pipeline: everything `trackstitch pipeline` does after simulate


@dataclass
class InProcess:
    """Stitch, loop closure, alternating refinement, fuse, eval and plot, in
    process, on chunks simulated from fixed simulator seeds."""

    name: str
    sim_seed: int
    make_scene: object  # ts -> (track, frames, fps, speed, noise, points)
    loop_radius: float
    rounds: int
    cross_edges: int

    def setup(self, seed, workdir, ts):
        track, frames, fps, speed, noise, points = self.make_scene(ts)
        _, _, res, chunks = _simulate(
            ts, track, frames, fps, speed, noise, self.sim_seed, points, seed
        )
        return Input(self.sim_seed, chunks, res.ground_truth, [g.scale for g in res.gauges], workdir)

    def run(self, inp, ts, stages):
        pg = ts.posegraph
        chunks = inp.chunks
        with stages("stitch"):
            st = ts.stitch.stitch_chunks(chunks)
        with stages("graph"):
            graph = pg.build_graph(st, chunks)
            pg.select_keyframes(graph, stride=10)
        with stages("loops"):
            cands = pg.detect_loop_closures(graph, radius=self.loop_radius, min_gap=20.0)
            loops = pg.apply_loop_closures(graph, cands, chunks)
        with stages("refine"):
            schedule = pg.Schedule(
                rounds=self.rounds, local_iterations=6,
                cross_edges_per_chunk=self.cross_edges, seed=inp.sim_seed,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                diags = pg.alternating_refinement(graph, schedule, chunks)
            refined = pg.graph_trajectory(graph)
        with stages("fuse"):
            fused = fuse_like_cli(ts, chunks, st.gauges, dict(zip(graph.frames(), refined.poses)))
        with stages("eval"):
            metrics = ts.evaluation.ate(refined, inp.gt, align="sim3", rpe_delta=RPE_DELTA)
        with stages("plot"):
            ts.svgplot.render_plot(
                [("stitched", st.trajectory), ("refined", refined)], inp.gt, fused.points
            )
            ts.chunkio.write_trajectory(inp.dir / "refined.tum", refined)
        return dict(
            stitched=st.trajectory, gauge_scales=[g.scale for g in st.gauges], graph=graph,
            loops=[(e.i, e.j) for e in loops],
            diags=[(d.round, d.stage, d.cost_initial, d.cost_final) for d in diags],
            fused=fused.points, program_ate=metrics.ate_rmse,
        )

    def verify(self, inp, out, ts):
        bad = []
        t_r, p_r, q_r = checks.read_tum(inp.dir / "refined.tum")
        st = out["stitched"]
        t_s = np.asarray(st.timestamps)
        p_s = np.array([p.translation for p in st.poses])
        q_s = np.array([p.rotation.wxyz for p in st.poses])
        bad += checks.check_trajectory("refined.tum", t_r, p_r, q_r)
        bad += checks.check_trajectory("stitched", t_s, p_s, q_s)
        if bad:
            return math.nan, math.nan, bad
        ate_r, align = checks.ate(t_r, p_r, inp.gt_t, inp.gt_p)
        ate_s, _ = checks.ate(t_s, p_s, inp.gt_t, inp.gt_p)
        bad += checks.check_ate_agrees(ate_r, out["program_ate"])
        bad += checks.check_refined_not_worse(ate_s, ate_r)
        bad += checks.check_loop_edges(out["loops"], inp.gt_p)
        bad += checks.check_costs(out["diags"])

        frames = [
            (c.chunk_id, [(r.frame, r.timestamp, r.pose.rotation.wxyz, r.pose.translation, r.points)
                          for r in c.frames])
            for c in inp.chunks
        ]
        gauge_scales = out["gauge_scales"]
        obs = observations(frames, inp.true_scales, [
            lambda k, f: gauge_scales[k], functools.partial(refined_scale, out["graph"])
        ])
        cloud, more = check_cloud(out["fused"], obs, t_r, p_r, q_r, align[0])
        return ate_r, cloud, bad + more


def _drift_square_scene(ts):
    track = ts.sim.square(side=120.0)
    noise = ts.sim.NoiseModel(
        sigma_t=0.02, sigma_r=0.0003, rot_drift_per_frame=0.003, sigma_point=0.02,
        gauge_rot_max=math.pi, gauge_trans_max=30.0, gauge_log_scale_sigma=0.01,
    )
    return track, 97, 2.0, track.length / 24.0, noise, 200


CIRCUIT_FRAMES_PER_LAP = 300


def _circuit_scene(ts):
    track = ts.sim.monaco_like()
    speed = track.length * 24.0 / CIRCUIT_FRAMES_PER_LAP
    noise = ts.sim.NOISE_PRESETS["moderate"]
    return track, 2 * CIRCUIT_FRAMES_PER_LAP + 1, 24.0, speed, noise, 300


# ---------------------------------------------------------------------------
# the file pipeline through the CLI subcommands


@dataclass
class LapFiles:
    """One lap written as a manifest plus chunk files, then run through
    ``stitch`` -> ``refine`` -> ``fuse`` -> ``eval`` -> ``plot``."""

    name: str = "lap_files"
    sim_seed: int = 11
    frames: int = 2381
    points: int = 120
    cross_edges: int = 4
    rounds: int = 1
    refine_seed: int = 1
    keyframe_stride: int = 10  # refine's default

    def setup(self, seed, workdir, ts):
        track = ts.sim.monaco_like()
        noise = ts.sim.NOISE_PRESETS["moderate"]
        speed = track.length * 24.0 / self.frames  # one lap
        meta, plan, res, chunks = _simulate(
            ts, track, self.frames, 24.0, speed, noise, self.sim_seed, self.points, seed
        )
        inp = Input(self.sim_seed, chunks, res.ground_truth, [g.scale for g in res.gauges], workdir)
        payloads = []
        for chunk in chunks:
            names = (f"chunk_{chunk.chunk_id:03d}.poses.json", f"chunk_{chunk.chunk_id:03d}.points.ply")
            ts.chunkio.write_chunk(chunk, inp.dir / names[0], inp.dir / names[1])
            payloads.append(names)
        ts.chunkio.write_trajectory(inp.dir / "gt.tum", res.ground_truth)
        ts.chunkio.write_manifest(
            inp.dir / "manifest.json", meta, plan, payload_paths=payloads, ground_truth="gt.tum"
        )
        inp.input_bytes = sum(p.stat().st_size for p in inp.dir.iterdir())
        return inp

    def run(self, inp, ts, stages):
        d = inp.dir
        m = str(d / "manifest.json")
        steps = [
            ("stitch", ["--manifest", m, "--out", str(d / "stitched.tum"),
                        "--gauges", str(d / "gauges.txt")]),
            ("refine", ["--manifest", m, "--traj", str(d / "stitched.tum"),
                        "--rounds", str(self.rounds), "--cross-edges", str(self.cross_edges),
                        "--loop-radius", "0", "--seed", str(self.refine_seed),
                        "--out", str(d / "refined.tum"),
                        "--diagnostics", str(d / "diagnostics.txt")]),
            ("fuse", ["--manifest", m, "--gauges", str(d / "gauges.txt"),
                      "--traj", str(d / "refined.tum"), "--voxel", str(VOXEL),
                      "--out", str(d / "track.ply")]),
            ("eval", ["--est", str(d / "refined.tum"), "--gt", str(d / "gt.tum"),
                      "--delta", str(RPE_DELTA), "--out", str(d / "metrics.txt")]),
            ("plot", ["--traj", str(d / "stitched.tum"), "--traj", str(d / "refined.tum"),
                      "--gt", str(d / "gt.tum"), "--cloud", str(d / "track.ply"),
                      "--out", str(d / "plot.svg")]),
        ]
        for sub, argv in steps:
            with stages(f"cli.{sub}"), contextlib.redirect_stdout(io.StringIO()):
                code = ts.cli.main([sub, *argv])
            if code != 0:
                raise RuntimeError(f"trackstitch {sub} exited with {code}")
        return {}

    def verify(self, inp, out, ts):
        d = inp.dir
        bad = []
        t_r, p_r, q_r = checks.read_tum(d / "refined.tum")
        t_s, p_s, q_s = checks.read_tum(d / "stitched.tum")
        bad += checks.check_trajectory("refined.tum", t_r, p_r, q_r)
        bad += checks.check_trajectory("stitched.tum", t_s, p_s, q_s)
        gauges = checks.read_gauges(d / "gauges.txt")
        bad += checks.check_gauges(gauges)
        if bad:
            return math.nan, math.nan, bad
        ate_r, align = checks.ate(t_r, p_r, inp.gt_t, inp.gt_p)
        program = re.search(r"ate_rmse=(\S+)", (d / "metrics.txt").read_text())
        bad += checks.check_ate_agrees(ate_r, float(program.group(1)))
        bad += checks.check_costs(checks.read_diagnostics(d / "diagnostics.txt"))
        fused = checks.ply_points(d / "track.ply")
        cloud, more = check_cloud(fused, self.observations(inp, gauges, None), t_r, p_r, q_r, align[0])
        if more:  # off the lift `fuse` makes today: the refined Sim(3) scales may be in use
            obs = self.observations(inp, gauges, self.rebuild_graph(ts, d))
            cloud, more = check_cloud(fused, obs, t_r, p_r, q_r, align[0])
        return ate_r, cloud, bad + more

    def observations(self, inp, gauges, graph):
        """The input observations, read from the chunk files, with the lift
        ``fuse`` makes today (stitch-time gauge scale) and, when ``graph``
        is given, the lift with each frame's refined Sim(3) scale."""
        laws = [lambda k, f: gauges[k][0]]
        if graph is not None:
            laws.append(functools.partial(refined_scale, graph))
        chunks = [checks.read_chunk_files(*paths) for paths in _payloads(inp.dir / "manifest.json")]
        return observations(chunks, inp.true_scales, laws)

    def rebuild_graph(self, ts, d):
        """The pose graph ``refine`` optimised, rebuilt in process from the
        same files and arguments, or None when it does not reproduce
        ``refined.tum`` byte for byte."""
        pg = ts.posegraph
        try:
            chunks = ts.chunkio.read_manifest(d / "manifest.json").load_chunks()
            stitched = ts.chunkio.read_trajectory(d / "stitched.tum")
            gauges = ts.cli._gauges_from_trajectory(chunks, stitched)
            graph = pg.build_graph(ts.stitch.StitchResult(gauges, stitched, []), chunks)
            pg.select_keyframes(graph, stride=self.keyframe_stride)
            schedule = pg.Schedule(
                rounds=self.rounds, cross_edges_per_chunk=self.cross_edges,
                keyframe_stride=self.keyframe_stride, seed=self.refine_seed,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pg.alternating_refinement(graph, schedule, chunks)
            ts.chunkio.write_trajectory(d / "rebuilt.tum", pg.graph_trajectory(graph))
        except Exception as exc:  # a changed private helper must not end the run
            reason = f"{type(exc).__name__}: {exc}"
        else:
            if (d / "rebuilt.tum").read_bytes() == (d / "refined.tum").read_bytes():
                return graph
            reason = "its trajectory differs from refined.tum"
        print(f"trackbench: refine's graph not rebuilt ({reason}); fused points are "
              "checked against the gauge-scale lift only", file=sys.stderr)
        return None


def _payloads(manifest):
    doc = json.loads(Path(manifest).read_text())
    root = Path(manifest).parent
    return [(root / e["poses"], root / e["points"]) for e in doc["chunk_payloads"]]


WORKLOADS = {
    w.name: w
    for w in (
        InProcess("drift_square", 1, _drift_square_scene, 60.0, rounds=3, cross_edges=12),
        InProcess("circuit_two_lap", 1, _circuit_scene, 250.0, rounds=5, cross_edges=16),
        LapFiles(),
    )
}
