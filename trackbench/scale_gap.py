"""How far the CLI's fused cloud sits from one fused with refined Sim(3) scales.

    python3 trackbench/scale_gap.py [--seed 1]

``refine`` writes TUM, which carries no scale, so ``fuse`` lifts each
frame's points with the refined rotation and translation but the
stitch-time gauge scale.  This script builds the lap_files input, runs the
CLI subcommands once, then rebuilds in process the exact graph ``refine``
optimised (``LapFiles.rebuild_graph``) and lifts every input observation
twice: the way ``fuse`` does, and with each frame's refined Sim(3) scale.
It prints the displacement between the two lifts, then puts a cloud fused
the same way with the refined scales in place of the CLI's and prints
``cloud_rms_m`` of both clouds as a run's checks compute it.
"""

from __future__ import annotations

import argparse
import functools
import shutil
import sys
from types import SimpleNamespace

import numpy as np

import run  # caps BLAS threads before numpy loads anywhere else

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    ts = SimpleNamespace(**run.import_trackstitch())
    wl = workloads.WORKLOADS["lap_files"]
    workdir = run.STATE / "work" / "scale_gap"
    try:
        inp = wl.setup(args.seed, workdir, ts)
        wl.run(inp, ts, run.Stages(None))
        ate, cloud_cli, bad = wl.verify(inp, {}, ts)
        graph = wl.rebuild_graph(ts, inp.dir)
        if bad or graph is None:
            print("\n".join(bad))
            return 1

        # fuse with the refined scales in place of the CLI's cloud, and check
        # and score it the way a run does
        chunks = ts.chunkio.read_manifest(inp.dir / "manifest.json").load_chunks()
        refined = dict(zip(graph.frames(), ts.chunkio.read_trajectory(inp.dir / "refined.tum").poses))
        fused = workloads.fuse_like_cli(
            ts, chunks, ts.chunkio.read_gauges(inp.dir / "gauges.txt"), refined,
            scale=functools.partial(workloads.refined_scale, graph),
        )
        ts.chunkio.write_pointcloud(
            inp.dir / "track.ply", ts.chunkio.PointCloudData(fused.points, fused.confidence))
        _, cloud_sim3, bad = wl.verify(inp, {}, ts)
        if bad:
            print("\n".join(bad))
            return 1

        t_r, p_r, q_r = checks.read_tum(inp.dir / "refined.tum")
        obs = wl.observations(inp, checks.read_gauges(inp.dir / "gauges.txt"), graph)
        q, t, _ = workloads.frame_poses(obs, t_r, p_r, q_r)
        cli_lift, sim3_lift = (checks.lift(s, q, t, obs.cam) for s in obs.scales)
        shift = np.linalg.norm(cli_lift - sim3_lift, axis=1)
        print(f"observations lifted: {len(shift)}")
        print(f"CLI lift vs refined-Sim(3) lift: RMS {np.sqrt(np.mean(shift**2)):.4f} m, "
              f"median {np.median(shift):.4f} m, max {shift.max():.4f} m")
        print(f"cloud_rms_m: CLI fuse {cloud_cli:.4f} m, refined Sim(3) scales "
              f"{cloud_sim3:.4f} m (refined ATE {ate:.4f} m)")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
