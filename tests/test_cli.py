"""Subcommand wiring, exit codes, determinism, and SVG figures."""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trackstitch.chunkio import Trajectory, read_trajectory, write_trajectory
from trackstitch.cli import _build_parser, main
from trackstitch.evaluation import endpoint_gap
from trackstitch.geometry import Pose, Rotation
from trackstitch.sim import sample_trajectory, square
from trackstitch.svgplot import render_plot

_GOLDEN = Path(__file__).parent / "golden"


def _simulate(tmp: Path, frames=24, noise="none", seed=3) -> Path:
    out = tmp / "sim"
    code = main(
        [
            "simulate",
            "--track",
            "square",
            "--frames",
            str(frames),
            "--fps",
            "2",
            "--speed",
            "6",
            "--noise",
            noise,
            "--seed",
            str(seed),
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    return out


def _stitch(sim: Path) -> tuple[Path, Path]:
    traj, gauges = sim / "stitched.tum", sim / "gauges.txt"
    code = main(
        ["stitch", "--manifest", str(sim / "manifest.json"), "--out", str(traj), "--gauges", str(gauges)]
    )
    assert code == 0
    return traj, gauges


def _line_traj(n=6, step=(1.0, 0.0, 0.0)) -> Trajectory:
    poses = [Pose(Rotation.identity(), np.array(step) * i) for i in range(n)]
    return Trajectory(np.arange(float(n)), poses)


# ------------------------------------------------------------ exit codes


def test_missing_required_flag_exits_1_with_usage(capsys):
    assert main(["refine"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert "--manifest" in err


def test_unknown_flag_exits_1():
    assert main(["eval", "--est", "a", "--gt", "b", "--bogus", "1"]) == 1


def test_no_subcommand_exits_1():
    assert main([]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out or True


def test_missing_input_file_exits_2(tmp_path, capsys):
    assert main(["stitch", "--manifest", str(tmp_path / "no.json"), "--out", "o", "--gauges", "g"]) == 2
    assert "no.json" in capsys.readouterr().err


def test_malformed_trajectory_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tum"
    bad.write_text("0 0 0\n")
    assert main(["eval", "--est", str(bad), "--gt", str(bad)]) == 2
    assert "bad.tum" in capsys.readouterr().err


def test_degenerate_alignment_exits_3(tmp_path):
    const = tmp_path / "const.tum"
    poses = [Pose(Rotation.identity(), np.zeros(3)) for _ in range(5)]
    write_trajectory(const, Trajectory(np.arange(5.0), poses))
    assert main(["eval", "--est", str(const), "--gt", str(const)]) == 3


def test_unknown_track_preset_exits_1(tmp_path, capsys):
    assert main(["simulate", "--track", "hexagon", "--out-dir", str(tmp_path)]) == 1
    assert "--track" in capsys.readouterr().err


def test_mistyped_manifest_exits_2(tmp_path, capsys):
    sim = _simulate(tmp_path)
    doc = json.loads((sim / "manifest.json").read_text())
    doc["plan"]["chunks"] = 5
    (sim / "manifest.json").write_text(json.dumps(doc))
    assert main(["stitch", "--manifest", str(sim / "manifest.json"), "--out", "o", "--gauges", "g"]) == 2
    assert "plan.chunks must be a list" in capsys.readouterr().err


def test_payload_chunk_id_off_its_plan_position_exits_2(tmp_path, capsys):
    sim = _simulate(tmp_path)
    traj, _ = _stitch(sim)
    payload = sim / "chunk_001.poses.json"
    doc = json.loads(payload.read_text())
    doc["chunk_id"] = 7
    payload.write_text(json.dumps(doc))
    argv = ["--manifest", str(sim / "manifest.json"), "--traj", str(traj), "--out", str(tmp_path / "r.tum")]
    assert main(["refine", *argv]) == 2
    assert "chunk_001.poses.json" in capsys.readouterr().err


# ------------------------------------------------------- pipeline stages


def test_full_pipeline_noiseless_recovers_ground_truth(tmp_path, capsys):
    """simulate -> stitch -> refine -> fuse -> eval on a clean run lands on
    the ground truth; the machine-readable metrics line reports it."""
    out = tmp_path / "run"
    code = main(
        [
            "pipeline",
            "--track",
            "square",
            "--frames",
            "96",
            "--fps",
            "2",
            "--speed",
            "6",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    record = (out / "metrics.txt").read_text()
    ate = float(re.search(r"ate_rmse=([\w.+-]+)", record).group(1))
    assert ate < 1e-6
    for name in ("manifest.json", "gt.tum", "stitched.tum", "refined.tum", "track.ply", "plot.svg"):
        assert (out / name).exists()


def test_pipeline_matches_the_stages_run_by_hand(tmp_path):
    values = ["--rounds", "2"]
    sim = ["--track", "square", "--frames", "96", "--fps", "2", "--speed", "6", "--noise", "moderate"]
    a, b = tmp_path / "pipeline", tmp_path / "by_hand"
    assert main(["pipeline", *sim, *values, "--out-dir", str(a)]) == 0

    def f(name):
        return str(b / name)

    for argv in (
        ["simulate", *sim, "--out-dir", str(b)],
        ["stitch", "--manifest", f("manifest.json"), "--out", f("stitched.tum"), "--gauges", f("gauges.txt")],
        ["refine", "--manifest", f("manifest.json"), "--traj", f("stitched.tum"), *values,
         "--out", f("refined.tum"), "--diagnostics", f("diagnostics.txt")],
        ["fuse", "--manifest", f("manifest.json"), "--gauges", f("gauges.txt"), "--traj", f("refined.tum"),
         "--out", f("track.ply")],
        ["eval", "--est", f("refined.tum"), "--gt", f("gt.tum"), "--out", f("metrics.txt")],
        ["plot", "--traj", f("stitched.tum"), "--traj", f("refined.tum"), "--gt", f("gt.tum"),
         "--cloud", f("track.ply"), "--out", f("plot.svg")],
    ):
        assert main(argv) == 0
    # run manifests name their own directory; every other file must match byte for byte
    names = sorted(p.name for p in a.iterdir() if p.suffix != ".run" and p.name != "run.txt")
    assert names == sorted(p.name for p in b.iterdir() if p.suffix != ".run" and p.name != "run.txt")
    for name in ("stitched.tum", "gauges.txt", "refined.tum", "diagnostics.txt", "track.ply", "plot.svg"):
        assert name in names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_pipeline_flags_match_the_stage_flags():
    """A flag pipeline shares with a stage has the stage's default, type and choices."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def flags(name):
        return {a.dest: (a.default, a.type, a.choices, a.required) for a in sub.choices[name]._actions}

    pipeline = flags("pipeline")
    shared = 0
    for stage in ("simulate", "refine", "fuse", "eval"):
        for dest, spec in flags(stage).items():
            if dest in pipeline and dest not in ("help", "config"):
                assert spec == pipeline[dest], f"--{dest} of {stage}"
                shared += 1
    assert shared == 22


def test_refine_rounds_zero_is_byte_identical(tmp_path):
    sim = _simulate(tmp_path)
    traj, _ = _stitch(sim)
    out = tmp_path / "r0.tum"
    diag = tmp_path / "diag.txt"
    code = main(
        [
            "refine",
            "--manifest",
            str(sim / "manifest.json"),
            "--traj",
            str(traj),
            "--rounds",
            "0",
            "--out",
            str(out),
            "--diagnostics",
            str(diag),
        ]
    )
    assert code == 0
    assert out.read_bytes() == traj.read_bytes()
    assert diag.read_text().startswith("#")


def test_refine_writes_diagnostics_table(tmp_path):
    sim = _simulate(tmp_path, frames=48)
    traj, _ = _stitch(sim)
    diag = tmp_path / "diag.txt"
    code = main(
        [
            "refine",
            "--manifest",
            str(sim / "manifest.json"),
            "--traj",
            str(traj),
            "--rounds",
            "2",
            "--seed",
            "7",
            "--out",
            str(tmp_path / "ref.tum"),
            "--diagnostics",
            str(diag),
        ]
    )
    assert code == 0
    lines = diag.read_text().splitlines()
    assert lines[0].lstrip("# ").split() == [
        "round",
        "stage",
        "edges",
        "initial_cost",
        "final_cost",
        "iterations",
    ]
    body = [ln.split() for ln in lines[1:]]
    assert len(body) == 4  # 2 rounds x (local, global)
    assert [row[1] for row in body] == ["local", "global", "local", "global"]
    for row in body:
        assert float(row[4]) <= float(row[3]) * (1.0 + 1e-12)


def test_simulate_rerun_byte_identical(tmp_path):
    a = _simulate(tmp_path / "a", frames=24, noise="mild", seed=9)
    b = _simulate(tmp_path / "b", frames=24, noise="mild", seed=9)
    for name in ("manifest.json", "gt.tum", "chunk_000.poses.json", "chunk_000.points.ply"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    sim = _simulate(tmp_path)
    _, gauges = _stitch(sim)
    cfg = tmp_path / "fuse.cfg"
    cfg.write_text("voxel = 1.0\nmin-conf = 0.25\n")
    base = ["fuse", "--manifest", str(sim / "manifest.json"), "--gauges", str(gauges)]
    out1 = tmp_path / "a.ply"
    assert main(base + ["--config", str(cfg), "--out", str(out1)]) == 0
    run = (tmp_path / "a.ply.run").read_text()
    assert "voxel = 1.0" in run and "min-conf = 0.25" in run
    out2 = tmp_path / "b.ply"
    assert main(base + ["--config", str(cfg), "--voxel", "0.5", "--out", str(out2)]) == 0
    assert "voxel = 0.5" in (tmp_path / "b.ply.run").read_text()


def test_malformed_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rounds\n")
    assert main(["eval", "--est", "a", "--gt", "b", "--config", str(cfg)]) == 1
    assert "bad.cfg" in capsys.readouterr().err


def test_run_manifest_reproduces_the_run(tmp_path):
    """Feeding the run manifest back as flags gives byte-identical output."""
    sim = _simulate(tmp_path)
    _, gauges = _stitch(sim)
    out1 = tmp_path / "one.ply"
    assert (
        main(
            [
                "fuse",
                "--manifest",
                str(sim / "manifest.json"),
                "--gauges",
                str(gauges),
                "--voxel",
                "0.5",
                "--out",
                str(out1),
            ]
        )
        == 0
    )
    argv = []
    sub = None
    for line in (tmp_path / "one.ply.run").read_text().splitlines():
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "subcommand":
            sub = value
        elif key == "out":
            argv += ["--out", str(tmp_path / "two.ply")]
        else:
            argv += [f"--{key}", value]
    assert main([sub] + argv) == 0
    assert out1.read_bytes() == (tmp_path / "two.ply").read_bytes()


def test_thread_cap_env_var(tmp_path):
    sim = _simulate(tmp_path)
    traj, _ = _stitch(sim)
    env = dict(os.environ, TRACKSTITCH_THREADS="1")
    r = subprocess.run(
        [sys.executable, "-m", "trackstitch.cli", "eval", "--est", str(traj),
         "--gt", str(sim / "gt.tum"), "--delta", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 0
    assert r.stdout.startswith("METRICS ")
    env["TRACKSTITCH_THREADS"] = "0"
    r = subprocess.run(
        [sys.executable, "-m", "trackstitch.cli", "eval", "--est", str(traj), "--gt", str(traj)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert r.returncode == 1


# ------------------------------------------------------------------ plots


def test_plot_golden_square_track():
    track = square(side=120.0)
    frames = 120
    speed = track.length / (frames / 2.0)
    traj = sample_trajectory(track, speed, 2.0, frames + 1)
    svg = render_plot([("estimate", traj)])
    assert svg == (_GOLDEN / "square_track.svg").read_text()


def test_plot_is_deterministic(tmp_path):
    sim = _simulate(tmp_path)
    traj, _ = _stitch(sim)
    outs = []
    for name in ("p1.svg", "p2.svg"):
        out = tmp_path / name
        assert main(["plot", "--traj", str(traj), "--gt", str(sim / "gt.tum"), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_plot_identical_gt_overlays_and_reports_zero_gap(tmp_path):
    """A closed trajectory plotted against itself: two paths, both legend
    rows annotated with a zero gap."""
    n = 13
    ang = np.linspace(0.0, 2.0 * np.pi, n)
    poses = [
        Pose(Rotation.identity(), np.array([np.cos(a) * 50.0, np.sin(a) * 50.0, 0.0])) for a in ang
    ]
    poses[-1] = poses[0]
    traj = Trajectory(np.arange(float(n)), poses)
    path = tmp_path / "c.tum"
    write_trajectory(path, traj)
    out = tmp_path / "c.svg"
    assert main(["plot", "--traj", str(path), "--gt", str(path), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<path ") == 2
    assert svg.count("(gap 0.00 m)") == 2


def test_plot_gap_annotation_matches_eval(tmp_path):
    traj = _line_traj(n=9, step=(3.7, 1.1, 0.0))
    gap = endpoint_gap(traj)
    path = tmp_path / "drift.tum"
    write_trajectory(path, traj)
    out = tmp_path / "drift.svg"
    assert main(["plot", "--traj", str(path), "--out", str(out)]) == 0
    assert f"(gap {gap:.2f} m)" in out.read_text()
    assert gap > 1.0


def test_plot_with_cloud_draws_bounded_dots(tmp_path):
    sim = _simulate(tmp_path)
    traj, gauges = _stitch(sim)
    ply = tmp_path / "cloud.ply"
    assert (
        main(
            [
                "fuse",
                "--manifest",
                str(sim / "manifest.json"),
                "--gauges",
                str(gauges),
                "--voxel",
                "0.1",
                "--out",
                str(ply),
            ]
        )
        == 0
    )
    out = tmp_path / "with_cloud.svg"
    assert main(["plot", "--traj", str(traj), "--cloud", str(ply), "--out", str(out)]) == 0
    svg = out.read_text()
    assert 0 < svg.count("<circle ") - 1 <= 4001  # dots plus one start marker


def test_render_plot_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        render_plot([])
    empty = Trajectory(np.zeros(0), [])
    with pytest.raises(ValueError, match="empty"):
        render_plot([("x", empty)])


def test_render_plot_equal_axis_scaling():
    """A 2:1 rectangle must stay 2:1 in pixels."""
    pts = [(0, 0), (200, 0), (200, 100), (0, 100), (0, 0)]
    poses = [Pose(Rotation.identity(), np.array([x, y, 0.0])) for x, y in pts]
    svg = render_plot([("rect", Trajectory(np.arange(5.0), poses))])
    coords = re.search(r'd="M ([^"]+)"', svg).group(1)
    xy = np.array([[float(v) for v in pair.split(",")] for pair in coords.split(" L ")])
    w = xy[:, 0].max() - xy[:, 0].min()
    h = xy[:, 1].max() - xy[:, 1].min()
    assert abs(w / h - 2.0) < 0.01


def test_render_plot_distinct_strokes_and_start_markers():
    a = _line_traj(5, (1.0, 0.0, 0.0))
    b = _line_traj(5, (0.0, 1.0, 0.0))
    svg = render_plot([("a", a), ("b", b)], ground_truth=_line_traj(5, (1.0, 1.0, 0.0)))
    strokes = set(re.findall(r'<path [^>]*stroke="(#\w+)"', svg))
    assert len(strokes) == 3
    assert 'stroke-dasharray="6 4"' in svg
    assert svg.count('r="4"') == 3  # one start marker per trajectory
