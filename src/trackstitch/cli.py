"""Command-line pipeline driver.

One binary, subcommand per stage: simulate, plan, stitch, refine, fuse,
eval, plot, plus pipeline to run every stage in order.  Exit codes: 0 on
success, 1 for usage problems, 2 for bad data files, 3 for numerical
failures.  Flags beat config-file values, which beat built-in defaults;
each file-producing run echoes its resolved settings into a run manifest
(``<output>.run``) from which the run can be repeated.  The environment
variable TRACKSTITCH_THREADS caps BLAS parallelism; compute modules are
imported lazily so the cap lands before the first numpy import.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import DataFormatError, NumericalError

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; this binary uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _apply_thread_cap():
    cap = os.environ.get("TRACKSTITCH_THREADS")
    if cap is None:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise _UsageError(f"TRACKSTITCH_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


# ---------------------------------------------------------------------------
# config files and run manifests


def _key_values(text: str, where: str):
    """Yield ``(where:line, key, value)`` per ``key = value`` line; ``#`` starts a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{where}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise _UsageError(f"{where}:{lineno}: empty key or value")
        yield f"{where}:{lineno}", key, value


def _read_config(path: str) -> list[str]:
    """Turn ``key = value`` lines into flag tokens injected before user flags."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _UsageError(f"--config: {e}")
    tokens: list[str] = []
    for _, key, value in _key_values(text, path):
        tokens += [f"--{key.replace('_', '-')}", value]
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file flags in after the subcommand so real flags win."""
    config = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            config = argv[i + 1]
        elif tok.startswith("--config="):
            config = tok.split("=", 1)[1]
    if config is None or not argv:
        return argv
    return argv[:1] + _read_config(config) + argv[1:]


def _write_run_manifest(path, subcommand: str, args: argparse.Namespace) -> None:
    lines = [f"subcommand = {subcommand}"]
    for key in sorted(vars(args)):
        if key in ("func", "subcommand", "config"):
            continue
        value = getattr(args, key)
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        lines.append(f"{key.replace('_', '-')} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# input loaders shared by subcommands


def _load_track(spec: str):
    from .sim import TRACK_PRESETS, make_track

    if spec in TRACK_PRESETS:
        return TRACK_PRESETS[spec]()
    if not spec.startswith("file:"):
        known = "|".join(sorted(TRACK_PRESETS))
        raise _UsageError(f"--track: unknown preset {spec!r} (expected {known} or file:<path>)")
    path = spec[len("file:") :]
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _UsageError(f"--track: {e}")
    segments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "straight" and len(fields) == 2:
                segments.append(("straight", float(fields[1])))
            elif fields[0] == "arc" and len(fields) == 3:
                segments.append(("arc", float(fields[1]), float(fields[2])))
            else:
                raise ValueError
        except ValueError:
            raise _UsageError(
                f"--track: {path}:{lineno}: expected 'straight <m>' or 'arc <rad> <m>'"
            )
    if not segments:
        raise _UsageError(f"--track: {path}: no segments")
    return make_track(segments)


def _load_noise(spec: str):
    import dataclasses

    from .sim import NOISE_PRESETS, NoiseModel

    if spec in NOISE_PRESETS:
        return NOISE_PRESETS[spec]
    try:
        text = Path(spec).read_text()
    except OSError:
        known = "|".join(sorted(NOISE_PRESETS))
        raise _UsageError(f"--noise: unknown profile {spec!r} (expected {known} or a file)")
    fields = {f.name for f in dataclasses.fields(NoiseModel)}
    values = {}
    for where, key, value in _key_values(text, f"--noise: {spec}"):
        if key not in fields:
            raise _UsageError(f"{where}: unknown field {key!r}")
        try:
            values[key] = float(value)
        except ValueError:
            raise _UsageError(f"{where}: non-numeric value {value!r}")
    return NoiseModel(**values)


def _pose_at_timestamps(traj, timestamps):
    """Nearest-timestamp pose lookup, or None where nothing is close."""
    import numpy as np

    ts = traj.timestamps
    out = []
    for t in timestamps:
        i = int(np.searchsorted(ts, t))
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(ts) and (best is None or abs(ts[j] - t) < abs(ts[best] - t)):
                best = j
        out.append(traj.poses[best] if best is not None and abs(ts[best] - t) < 1e-6 else None)
    return out


def _gauges_from_trajectory(chunks, traj):
    """Recover one chunk-local-to-world Sim(3) per chunk from a trajectory.

    Positions alone cannot pin rotation on straight chunks, so the rotation
    comes from averaging per-frame pose discrepancies; the scale comes from
    the path-length ratio, which stays well-posed on any moving chunk.
    """
    import numpy as np

    from .geometry import Rotation, Sim3Transform

    gauges = []
    for chunk in chunks:
        world = _pose_at_timestamps(traj, [rec.timestamp for rec in chunk.frames])
        pairs = [(rec, w) for rec, w in zip(chunk.frames, world) if w is not None]
        if len(pairs) < 2:
            raise ValueError(
                f"trajectory covers {len(pairs)} frames of chunk {chunk.chunk_id}, need >= 2"
            )
        quats = []
        for rec, w in pairs:
            q = w.rotation.compose(rec.pose.rotation.inverse()).canonical_wxyz()
            if quats and float(np.dot(q, quats[0])) < 0.0:
                q = -q
            quats.append(q)
        mean_q = np.mean(quats, axis=0)
        rot = Rotation(mean_q / np.linalg.norm(mean_q))
        pw = np.array([w.translation for _, w in pairs])
        pl = np.array([rec.pose.translation for rec, _ in pairs])
        den = float(np.linalg.norm(np.diff(pl, axis=0), axis=1).sum())
        scale = float(np.linalg.norm(np.diff(pw, axis=0), axis=1).sum()) / den if den > 1e-12 else 1.0
        t = np.mean(pw - scale * rot.apply(pl), axis=0)
        gauges.append(Sim3Transform(scale, rot, t))
    return gauges


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    from .chunkio import write_chunk, write_manifest, write_trajectory
    from .preprocess import VideoMeta, plan_fixed_chunks
    from .sim import synth_chunks

    meta = VideoMeta(num_frames=args.frames, fps=args.fps, width=args.width, height=args.height)
    plan = plan_fixed_chunks(meta, args.chunk_seconds, args.overlap)
    track = _load_track(args.track)
    noise = _load_noise(args.noise)
    result = synth_chunks(
        track,
        meta,
        plan,
        speed=args.speed,
        noise=noise,
        seed=args.seed,
        points_per_frame=args.points,
    )
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    payloads = []
    for chunk in result.chunks:
        names = (f"chunk_{chunk.chunk_id:03d}.poses.json", f"chunk_{chunk.chunk_id:03d}.points.ply")
        write_chunk(chunk, outdir / names[0], outdir / names[1])
        payloads.append(names)
    write_trajectory(outdir / "gt.tum", result.ground_truth)
    write_manifest(
        outdir / "manifest.json", meta, plan, payload_paths=payloads, ground_truth="gt.tum"
    )
    _write_run_manifest(outdir / "run.txt", "simulate", args)
    print(
        f"simulated {len(result.chunks)} chunks, {meta.num_frames} frames, "
        f"track length {track.length:.1f} m -> {outdir}"
    )
    return 0


def _cmd_plan(args) -> int:
    import numpy as np

    from .chunkio import write_manifest
    from .preprocess import VideoMeta, plan_fixed_chunks, plan_turn_aware_chunks

    meta = VideoMeta(num_frames=args.frames, fps=args.fps, width=args.width, height=args.height)
    if args.curvature is not None:
        curvature = np.loadtxt(args.curvature, ndmin=1)
        plan = plan_turn_aware_chunks(
            meta, curvature, args.chunk_seconds, args.overlap, args.straight_threshold
        )
    else:
        plan = plan_fixed_chunks(meta, args.chunk_seconds, args.overlap)
    write_manifest(args.out, meta, plan)
    _write_run_manifest(f"{args.out}.run", "plan", args)
    for spec in plan.chunks:
        print(f"chunk {spec.chunk_id:3d}: frames {spec.start_frame}..{spec.end_frame}")
    if plan.boundary_violations:
        print(f"boundary violations: {sorted(plan.boundary_violations)}")
    return 0


def _cmd_stitch(args) -> int:
    from .chunkio import read_manifest, write_gauges, write_trajectory
    from .stitch import stitch_chunks

    chunks = read_manifest(args.manifest).load_chunks()
    result = stitch_chunks(chunks, mode=args.scale_mode)
    write_trajectory(args.out, result.trajectory)
    write_gauges(args.gauges, result.gauges)
    _write_run_manifest(f"{args.out}.run", "stitch", args)
    for seam in result.seams:
        print(
            f"seam {seam.chunk_a}-{seam.chunk_b}: matches {seam.num_matches} "
            f"scale {seam.scale:.6f} rms {seam.point_rms:.4f} m"
        )
    return 0


def _cmd_refine(args) -> int:
    from .chunkio import read_manifest, read_trajectory, write_trajectory
    from .posegraph import (
        Schedule,
        alternating_refinement,
        apply_loop_closures,
        build_graph,
        detect_loop_closures,
        graph_trajectory,
        select_keyframes,
    )
    from .stitch import StitchResult

    chunks = read_manifest(args.manifest).load_chunks()
    trajectory = read_trajectory(args.traj)

    if args.rounds == 0:
        # nothing to refine: the contract is a byte-identical trajectory
        Path(args.out).write_bytes(Path(args.traj).read_bytes())
        if args.diagnostics:
            Path(args.diagnostics).write_text(
                "# round stage edges initial_cost final_cost iterations\n"
            )
        _write_run_manifest(f"{args.out}.run", "refine", args)
        print("rounds 0: trajectory copied unchanged")
        return 0

    gauges = _gauges_from_trajectory(chunks, trajectory)
    graph = build_graph(StitchResult(gauges, trajectory, []), chunks)
    select_keyframes(graph, stride=args.keyframe_stride)
    loops = []
    if args.loop_radius > 0.0:
        candidates = detect_loop_closures(graph, radius=args.loop_radius, min_gap=args.loop_min_gap)
        loops = apply_loop_closures(graph, candidates, chunks)
    schedule = Schedule(
        rounds=args.rounds,
        cross_edges_per_chunk=args.cross_edges,
        keyframe_stride=args.keyframe_stride,
        seed=args.seed,
    )
    stages = alternating_refinement(graph, schedule, chunks)
    write_trajectory(args.out, graph_trajectory(graph))
    if args.diagnostics:
        lines = ["# round stage edges initial_cost final_cost iterations"]
        for d in stages:
            lines.append(
                f"{d.round} {d.stage} {d.num_edges} "
                f"{d.cost_initial!r} {d.cost_final!r} {d.iterations}"
            )
        Path(args.diagnostics).write_text("\n".join(lines) + "\n")
    _write_run_manifest(f"{args.out}.run", "refine", args)
    final = stages[-1].cost_final if stages else float("nan")
    print(f"loop closures accepted: {len(loops)}; final cost {final:.6g}")
    return 0


def _cmd_fuse(args) -> int:
    from .chunkio import (
        PointCloudData,
        read_gauges,
        read_manifest,
        read_trajectory,
        write_pointcloud,
    )
    from .fusion import fuse, to_global
    from .geometry import Sim3Transform

    chunks = read_manifest(args.manifest).load_chunks()
    gauges = read_gauges(args.gauges)
    if len(gauges) != len(chunks):
        raise ValueError(f"{len(gauges)} gauges for {len(chunks)} chunks")
    refined_traj = read_trajectory(args.traj) if args.traj else None

    clouds = []
    for chunk, gauge in zip(chunks, gauges):
        refined = None
        if refined_traj is not None:
            poses = _pose_at_timestamps(refined_traj, [rec.timestamp for rec in chunk.frames])
            # the TUM interchange format drops scale; it rides in from the gauge
            refined = {
                rec.frame: Sim3Transform(gauge.scale, p.rotation, p.translation)
                for rec, p in zip(chunk.frames, poses)
                if p is not None
            }
        clouds.append(to_global(chunk, gauge, refined))
    fused = fuse(
        clouds,
        voxel=args.voxel,
        min_confidence=args.min_conf,
        chunk_ids=[chunk.chunk_id for chunk in chunks],
    )
    write_pointcloud(args.out, PointCloudData(fused.points, fused.confidence))
    _write_run_manifest(f"{args.out}.run", "fuse", args)
    total = sum(len(c.points) for c in clouds)
    print(f"fused {len(fused)} points (from {total}) at voxel {args.voxel} m -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    from .chunkio import read_trajectory
    from .evaluation import ate

    est = read_trajectory(args.est)
    gt = read_trajectory(args.gt)
    m = ate(est, gt, align=args.align, max_dt=args.max_dt, rpe_delta=args.delta)
    record = (
        f"METRICS ate_rmse={m.ate_rmse!r} ate_max={m.ate_max!r} "
        f"rpe_trans={m.rpe_trans!r} rpe_rot={m.rpe_rot!r} "
        f"endpoint_gap={m.endpoint_gap!r} align={args.align} delta={args.delta}"
    )
    print(record)
    print(f"ATE rmse {m.ate_rmse:.6g} m, max {m.ate_max:.6g} m ({args.align} aligned)")
    print(f"RPE over {args.delta} frames: {m.rpe_trans:.6g} m, {m.rpe_rot:.6g} rad")
    print(f"endpoint gap {m.endpoint_gap:.6g} m")
    if args.out:
        Path(args.out).write_text(record + "\n")
        _write_run_manifest(f"{args.out}.run", "eval", args)
    return 0


def _cmd_plot(args) -> int:
    from .chunkio import read_pointcloud, read_trajectory
    from .svgplot import render_plot

    labeled = [(Path(p).stem, read_trajectory(p)) for p in args.traj]
    gt = read_trajectory(args.gt) if args.gt else None
    cloud = read_pointcloud(args.cloud).points if args.cloud else None
    svg = render_plot(labeled, gt, cloud, width=args.width, height=args.height)
    Path(args.out).write_text(svg)
    _write_run_manifest(f"{args.out}.run", "plot", args)
    print(f"wrote {args.out}")
    return 0


# pipeline's fixed file layout: the file flags of each stage, relative to --out-dir
_PIPELINE_FILES = {
    "simulate": "out-dir=.",
    "stitch": "manifest=manifest.json out=stitched.tum gauges=gauges.txt",
    "refine": (
        "manifest=manifest.json traj=stitched.tum out=refined.tum diagnostics=diagnostics.txt"
    ),
    "fuse": "manifest=manifest.json gauges=gauges.txt traj=refined.tum out=track.ply",
    "eval": "est=refined.tum gt=gt.tum out=metrics.txt",
    "plot": "traj=stitched.tum traj=refined.tum gt=gt.tum cloud=track.ply out=plot.svg",
}


def _cmd_pipeline(args) -> int:
    """Run every stage through its own parser, so each stage's defaults apply."""
    out = Path(args.out_dir)
    parser = _build_parser()
    ours = _TAKES["pipeline"].split()
    for stage, files in _PIPELINE_FILES.items():
        shared = [f for f in _TAKES[stage].split() if f in ours]
        argv = [f"--{f}={getattr(args, f.replace('-', '_'))}" for f in shared]
        argv += [f"--{f}={out / name}" for f, name in (p.split("=") for p in files.split())]
        stage_args = parser.parse_args([stage, *argv])
        code = stage_args.func(stage_args)
        if code != 0:
            return code
    _write_run_manifest(out / "run.txt", "pipeline", args)
    return 0


# ---------------------------------------------------------------------------
# parser

# Every tuning flag, and each file flag that several subcommands share, is
# declared here once; _TAKES lists which subcommand takes which.  The other
# file flags, and plot's --width/--height (the SVG size, not the image size,
# so pipeline must not forward them), are declared with their subcommand.
_FLAGS = {
    "track": dict(default="monaco-like", help="monaco-like|square|file:<segments>"),
    "frames": dict(type=int, default=2000, help="frame count"),
    "fps": dict(type=float, default=24.0, help="frames per second"),
    "width": dict(type=int, default=640, help="image width px"),
    "height": dict(type=int, default=480, help="image height px"),
    "speed": dict(type=float, default=40.0, help="mean speed m/s"),
    "chunk-seconds": dict(type=float, default=5.0, help="chunk length s"),
    "overlap": dict(type=int, default=1, help="seam overlap frames"),
    "noise": dict(default="none", help="noise profile name or file"),
    "seed": dict(type=int, default=42, help="rng seed"),
    "points": dict(type=int, default=150, help="target points per frame"),
    "straight-threshold": dict(
        type=float, default=0.002, help="|yaw rate| rad/frame counted as straight"
    ),
    "manifest": dict(required=True, help="manifest with chunk payloads"),
    "gauges": dict(required=True, help="per-chunk Sim(3) gauge file"),
    "scale-mode": dict(
        default="umeyama", choices=("unit", "depth", "umeyama"), help="seam scale handling"
    ),
    "rounds": dict(type=int, default=5, help="alternating refinement rounds"),
    "cross-edges": dict(type=int, default=20, help="cross edges per chunk"),
    "keyframe-stride": dict(type=int, default=10, help="keyframe stride"),
    "loop-radius": dict(
        type=float, default=50.0, help="loop-closure candidate radius m, 0 disables"
    ),
    "loop-min-gap": dict(type=float, default=20.0, help="minimum loop travel gap m"),
    "voxel": dict(type=float, default=0.25, help="dedup voxel m, 0 disables"),
    "min-conf": dict(type=float, default=0.0, help="confidence floor"),
    "align": dict(default="sim3", choices=("none", "se3", "sim3"), help="ATE alignment"),
    "delta": dict(type=int, default=24, help="RPE window frames"),
    "max-dt": dict(type=float, default=0.02, help="association tolerance s"),
}

_SIMULATION = "track frames fps width height speed chunk-seconds overlap noise seed points"
_REFINEMENT = "rounds cross-edges keyframe-stride loop-radius loop-min-gap"
_TAKES = {
    "simulate": _SIMULATION,
    "plan": "frames fps width height chunk-seconds overlap straight-threshold",
    "stitch": "manifest scale-mode gauges",
    "refine": f"manifest {_REFINEMENT} seed",
    "fuse": "manifest gauges voxel min-conf",
    "eval": "align delta max-dt",
    "plot": "",
    # pipeline passes each stage the flags both take; the rest keep the stage's defaults
    "pipeline": f"{_SIMULATION} {_REFINEMENT} voxel min-conf align delta",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trackstitch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add(name, func, help, required=()):
        p = sub.add_parser(name, help=help)
        for flag in _TAKES[name].split():
            kw = dict(_FLAGS[flag])
            if flag in required:
                kw.update(required=True, default=None)
            elif "default" in kw:
                kw["help"] += " (default %(default)s)"
            p.add_argument(f"--{flag}", **kw)
        p.add_argument("--config", help="key = value file; flags given on the command line win")
        p.set_defaults(func=func)
        return p

    p = add("simulate", _cmd_simulate, "synthesize chunked reconstructions of a circuit")
    p.add_argument("--out-dir", required=True, help="output directory")

    p = add("plan", _cmd_plan, "plan chunk boundaries for a video", required=("frames",))
    p.add_argument("--curvature", help="per-frame yaw rate file enabling turn-aware boundaries")
    p.add_argument("--out", required=True, help="manifest path")

    p = add("stitch", _cmd_stitch, "chain chunks into one trajectory via seam alignment")
    p.add_argument("--out", required=True, help="stitched trajectory (TUM)")

    p = add("refine", _cmd_refine, "pose-graph refinement of a stitched trajectory")
    p.add_argument("--traj", required=True, help="input trajectory (TUM)")
    p.add_argument("--out", required=True, help="refined trajectory (TUM)")
    p.add_argument("--diagnostics", help="per-stage cost table path")

    p = add("fuse", _cmd_fuse, "merge chunk clouds into one deduplicated track cloud")
    p.add_argument("--traj", help="refined trajectory; points ride with refined poses")
    p.add_argument("--out", required=True, help="output cloud (PLY)")

    p = add("eval", _cmd_eval, "trajectory metrics against a reference")
    p.add_argument("--est", required=True, help="estimated trajectory (TUM)")
    p.add_argument("--gt", required=True, help="reference trajectory (TUM)")
    p.add_argument("--out", help="also write the machine-readable record here")

    p = add("plot", _cmd_plot, "top-down SVG figure of trajectories")
    p.add_argument("--traj", action="append", required=True, help="trajectory (TUM); repeatable")
    p.add_argument("--gt", help="reference trajectory drawn dashed")
    p.add_argument("--cloud", help="fused cloud (PLY) drawn as background dots")
    p.add_argument("--width", type=int, default=800, help="SVG width px (default 800)")
    p.add_argument("--height", type=int, default=600, help="SVG height px (default 600)")
    p.add_argument("--out", required=True, help="output SVG path")

    p = add("pipeline", _cmd_pipeline, "simulate, stitch, refine, fuse, eval and plot in order")
    p.add_argument("--out-dir", required=True, help="output directory for every stage")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        _apply_thread_cap()
        argv = _inject_config(argv)
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"trackstitch: error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"trackstitch: error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError, ValueError) as e:
        print(f"trackstitch: error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"trackstitch: error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
