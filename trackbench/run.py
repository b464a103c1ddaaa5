"""Benchmark command for trackstitch.

    python3 trackbench/run.py --workload drift_square --seed 1 --seconds 30 --trace 0

Runs one workload in this process, single-threaded with BLAS capped at one
thread: makes the input (set-up), repeats timed pipeline operations for
``--seconds``, checks the outputs with the benchmark's own
code, and prints one JSON object as the last line of stdout.  With
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Exits non-zero when a check fails or
when trackstitch's sources are not in this checkout.  See README.md.
"""

from __future__ import annotations

import os
import sys
import time


def _process_age() -> float:
    """Seconds since this process started, so set-up time counts the
    interpreter's start and the imports too."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


_T0 = time.perf_counter() - _process_age()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".trackbench"


def import_trackstitch():
    """trackstitch's layer modules, imported from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "trackstitch" / "__init__.py").is_file():
        raise SystemExit(f"trackbench: no trackstitch sources under {src}")
    sys.path.insert(0, str(src))
    from tracing import LAYERS

    mods = {name: importlib.import_module(f"trackstitch.{name}") for name in LAYERS}
    where = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"trackbench: imported trackstitch from {where}, not {src}")
    return mods


class Stages:
    """Wall seconds per pipeline stage of one operation; also a span per
    stage when tracing."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    @contextmanager
    def __call__(self, name):
        span = self.tracer.span(name) if self.tracer else nullcontext()
        start = time.perf_counter()
        with span:
            yield
        self.seconds[name] = time.perf_counter() - start


def lower_envelope(ops) -> float:
    """Seconds per operation: the fastest time seen for each stage over the
    run's operations, summed over stages.  A slow phase of the shared host
    that hits one stage of one operation is dropped, as long as the same
    stage ran fast in another operation."""
    return sum(min(seconds[stage] for seconds in ops) for stage in ops[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import checks
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    mods = import_trackstitch()
    ts = SimpleNamespace(**mods)
    tracer = Tracer(mods) if args.trace else None
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir = STATE / "work" / tag
    try:
        return _run(args, wl, ts, tracer, workdir, tag, checks)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, wl, ts, tracer, workdir, tag, checks) -> int:
    if tracer is not None:
        tracer.install()
    inputs_start = time.perf_counter()
    inp = wl.setup(args.seed, workdir, ts)
    setup_s = time.perf_counter() - _T0
    inputs_s = time.perf_counter() - inputs_start
    if tracer is not None:
        setup_spans = len(tracer.spans)
        synth_s = tracer.total("sim.synth_chunks")
        tracer.uninstall()

    # Operations until the next one would not fit; a traced run alternates
    # untraced and traced operations, two at least.
    ops = []  # (stage seconds, traced)
    per_op_layers = []
    first_out, blobs = None, []
    attempted = failed = 0
    start = time.perf_counter()
    last_op = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if attempted >= (2 if tracer else 1) and elapsed + last_op > args.seconds:
            break
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.install()
        op_start = time.perf_counter()
        attempted += 1
        stages = Stages(tracer if traced else None)
        mark = (len(tracer.spans), dict(tracer.counts)) if traced else None
        try:
            out = wl.run(inp, ts, stages)
        except Exception:
            failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            ops.append((stages.seconds, traced))
            if traced:
                per_op_layers.append(_op_layers(tracer, mark, inp))
            blobs.append((inp.dir / "refined.tum").read_bytes())
            if first_out is None:
                first_out = out
        finally:
            if traced:
                tracer.uninstall()
        last_op = time.perf_counter() - op_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not ops:
        print(f"trackbench: every one of {attempted} operations failed", file=sys.stderr)
        return 1
    ate_m, cloud_m, failures = wl.verify(inp, first_out, ts)
    failures += checks.check_identical("refined.tum", blobs)
    for msg in failures:
        print(f"trackbench: check failed: {msg}", file=sys.stderr)

    untraced = [s for s, traced in ops if not traced]
    if tracer is None:
        values = {
            "reconstruct_s": lower_envelope(untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "refined_ate_m": ate_m,
            "cloud_rms_m": cloud_m,
        }
    else:
        import probes

        traced_ops = [s for s, traced in ops if traced]
        layers = _mean_layers(per_op_layers)
        layers["sim.synth_chunks_s"] = synth_s
        layers["setup.inputs_s"] = inputs_s
        layers["trace.untraced_op_s"] = lower_envelope(untraced)
        layers["trace.overhead_s"] = lower_envelope(traced_ops) - lower_envelope(untraced)
        layers.update(probes.run_probes(ts, workdir / "probes"))
        values = layers
        trace_path = STATE / "traces" / f"{tag}.json"
        tracer.write(trace_path, {"setup_spans": setup_spans, "per_op": per_op_layers})
        print(f"trackbench: trace written to {trace_path}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if tracer else "end_to_end"]
    print(f"trackbench: {args.workload} seed {args.seed}: {attempted} ops, "
          f"{failed} failed; set-up {setup_s:.3f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if not failures else 1


# span names (or name prefixes) reported as per-layer seconds per operation
_SPAN_METRICS = {
    "posegraph.apply_loop_closures_s": "posegraph.apply_loop_closures",
    "posegraph.sample_cross_edges_s": "posegraph.sample_cross_edges",
    "posegraph.optimize_s": "posegraph.optimize",
    "posegraph.build_graph_s": "posegraph.build_graph",
    "chunkio.read_s": "chunkio.read_",
    "chunkio.write_s": "chunkio.write_",
    "cli.stitch_s": "cli.stitch",
    "cli.refine_s": "cli.refine",
    "cli.fuse_s": "cli.fuse",
    "cli.eval_s": "cli.eval",
    "cli.plot_s": "cli.plot",
    "stitch.stitch_chunks_s": "stitch.stitch_chunks",
    "fusion.to_global_s": "fusion.to_global",
    "fusion.fuse_s": "fusion.fuse",
    "evaluation.ate_s": "evaluation.ate",
    "svgplot.render_plot_s": "svgplot.render_plot",
}
_COUNT_METRICS = (
    "posegraph.measure_relative.calls",
    "posegraph.kdtree_builds",
    "posegraph.cross_edges.attempted",
    "posegraph.lm_iterations",
    "geometry.Sim3Transform.compose.calls",
    "geometry.Sim3Transform.apply.calls",
    "geometry.quat_rotate.calls",
    "chunkio.bytes_read",
    "chunkio.bytes_written",
    "fusion.points_in",
    "fusion.points_out",
)


def _op_layers(tracer, mark, inp) -> dict[str, float]:
    first, before = mark
    delta = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    out = {name: tracer.total(prefix, first) for name, prefix in _SPAN_METRICS.items()}
    out.update({name: float(delta.get(name, 0)) for name in _COUNT_METRICS})
    calls = delta.get("posegraph.measure_relative.calls", 0)
    out["posegraph.measure_relative.accept_ratio"] = (
        delta.get("posegraph.measure_relative.accepted", 0) / calls if calls else 0.0
    )
    tried = delta.get("posegraph.cross_edges.attempted", 0)
    out["posegraph.cross_edges.accept_ratio"] = (
        delta.get("posegraph.cross_edges.accepted", 0) / tried if tried else 0.0
    )
    out["chunkio.read_amplification"] = (
        delta.get("chunkio.bytes_read", 0) / inp.input_bytes if inp.input_bytes else 0.0
    )
    return out


def _mean_layers(per_op) -> dict[str, float]:
    return {k: statistics.fmean(op[k] for op in per_op) for k in per_op[0]}


if __name__ == "__main__":
    sys.exit(main())
