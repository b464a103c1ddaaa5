"""Layer probes on fixed inputs, reported with the traced run's metrics.

Each probe times one layer entry point on inputs drawn from this file's own
generator, never from ``--seed``, so its figure depends on the code alone:
the Sim(3) kernels at batch 1 and 10^4, ``umeyama`` on 300 points,
mutual-nearest-neighbour matching through ``measure_relative`` on a fixed
keyframe pair, one ``optimize(iterations=1)`` on a fixed graph, and a
binary PLY write and read of a fixed cloud.  The figure is the median over
seven repeats of the mean time of one call.
"""

from __future__ import annotations

import copy
import math
import statistics
import time
import warnings

import numpy as np

_PROBE_SEED = 20250823
_REPEATS = 7


def _per_call(fn, number: int, setup=None) -> float:
    """Median over repeats of the mean seconds of one ``fn(arg)`` call."""
    samples = []
    for _ in range(_REPEATS):
        args = [setup() if setup else None for _ in range(number)]
        start = time.perf_counter()
        for a in args:
            fn(a)
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def _random_sim3(ts, rng, n):
    g = ts.geometry
    rotvec = rng.normal(size=(n, 3))
    rotvec *= (rng.uniform(0.1, 3.0, size=n) / np.linalg.norm(rotvec, axis=1))[:, None]
    xi = np.concatenate([rotvec, rng.uniform(-10, 10, size=(n, 3)),
                         rng.uniform(-0.5, 0.5, size=(n, 1))], axis=1)
    return g.sim3_exp(xi)


def _scene(ts):
    """A small fixed drift-square scene, stitched, as a keyframe graph."""
    track = ts.sim.square(side=120.0)
    meta = ts.preprocess.VideoMeta(num_frames=48, fps=2.0, width=640, height=480)
    plan = ts.preprocess.plan_fixed_chunks(meta, chunk_seconds=5.0, overlap_frames=1)
    noise = ts.sim.NoiseModel(sigma_t=0.02, sigma_r=0.0003, sigma_point=0.02,
                              gauge_rot_max=math.pi, gauge_trans_max=30.0)
    res = ts.sim.synth_chunks(track, meta, plan, speed=track.length / 48.0 * 2.0,
                              noise=noise, seed=_PROBE_SEED % 1000, points_per_frame=200)
    st = ts.stitch.stitch_chunks(res.chunks)
    graph = ts.posegraph.build_graph(st, res.chunks)
    ts.posegraph.select_keyframes(graph, stride=5)
    return res.chunks, graph


def run_probes(ts, workdir) -> dict[str, float]:
    g = ts.geometry
    rng = np.random.default_rng(_PROBE_SEED)
    out = {}
    for n in (1, 10_000):
        qa, ta, sa = _random_sim3(ts, rng, n)
        qb, tb, sb = _random_sim3(ts, rng, n)
        pts = rng.uniform(-20, 20, size=(n, 3))
        number = 2000 if n == 1 else 20
        if n == 1:
            qa, ta, sa, qb, tb, sb, pts = qa[0], ta[0], sa[0], qb[0], tb[0], sb[0], pts[0]
        out[f"probe.sim3_compose.b{n}_us"] = 1e6 * _per_call(
            lambda _: g.sim3_compose(qa, ta, sa, qb, tb, sb), number)
        out[f"probe.sim3_apply.b{n}_us"] = 1e6 * _per_call(
            lambda _: g.sim3_apply(qa, ta, sa, pts), number)
        out[f"probe.sim3_log.b{n}_us"] = 1e6 * _per_call(
            lambda _: g.sim3_log(qa, ta, sa), number)

    src = rng.uniform(-30, 30, size=(300, 3))
    q, t, s = _random_sim3(ts, rng, 1)
    dst = g.sim3_apply(q[0], t[0], s[0], src) + rng.normal(scale=0.05, size=src.shape)
    out["probe.umeyama.n300_us"] = 1e6 * _per_call(lambda _: ts.stitch.umeyama(src, dst), 500)

    chunks, graph = _scene(ts)
    kf = [graph.nodes[f] for f in graph.keyframes()]
    a = next(n for n in kf if n.chunk_id == 1)
    b = min((n for n in kf if n.chunk_id != 1),
            key=lambda n: np.linalg.norm(n.pose.translation - a.pose.translation))
    out["probe.measure_relative_ms"] = 1e3 * _per_call(
        lambda _: ts.posegraph.measure_relative(a, b, chunks), 20)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ts.posegraph.sample_cross_edges(graph, 1, 8, _PROBE_SEED, chunks)
    out["probe.optimize_1iter_ms"] = 1e3 * _per_call(
        lambda gr: ts.posegraph.optimize(gr, iterations=1), 3, setup=lambda: copy.deepcopy(graph))

    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "probe.ply"
    cloud = ts.chunkio.PointCloudData(rng.uniform(-100, 100, size=(100_000, 3)),
                                      rng.uniform(0, 1, size=100_000))
    out["probe.ply_write_ms"] = 1e3 * _per_call(
        lambda _: ts.chunkio.write_pointcloud(path, cloud), 5)
    out["probe.ply_read_ms"] = 1e3 * _per_call(lambda _: ts.chunkio.read_pointcloud(path), 5)
    return out
