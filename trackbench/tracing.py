"""Spans and counters around trackstitch's layers, recorded from outside.

``Tracer.install()`` rebinds names in the package's module namespaces to
wrappers and ``uninstall()`` puts the originals back; nothing under
``src/`` changes.  Each public function of a layer module gets one wrapper,
bound under every module attribute that refers to it, so a cross-module
import is traced too: ``umeyama`` is wrapped as ``stitch.umeyama``,
``posegraph.umeyama`` and ``evaluation.umeyama``.  Metrics are named after
the defining module.

- Geometry kernels, ``Sim3Transform.compose``/``apply``, ``umeyama``,
  KD-tree builds (``posegraph.cKDTree``), ``posegraph.measure_relative``
  and the pair polishing step of cross-edge sampling are called up to
  millions of times per operation, so they get counters only.
- Every other public function records a span: name, start, end and the
  index of its parent span.  The benchmark adds spans of its own around
  each pipeline stage and CLI subcommand it calls.

Spans and counts stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter
from pathlib import Path

LAYERS = (
    "sim", "preprocess", "chunkio", "stitch", "posegraph",
    "geometry", "fusion", "evaluation", "svgplot", "cli",
)
_COUNT_ONLY = {"geometry", "stitch.umeyama"}
_PATH_TYPES = (str, os.PathLike)


class Tracer:
    def __init__(self, package_modules):
        self.modules = package_modules  # short name -> module object
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._io_depth = 0
        self._cross_depth = 0

    # -- recording -----------------------------------------------------------

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> int:
        self.spans.append((name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._stack.pop()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = self.modules[layer]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrapper(f"{layer}.{name}", obj)
        posegraph = self.modules["posegraph"]
        coarse = posegraph._coarse_initial
        wrappers[coarse] = self._count_in_cross(coarse)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebind(mod, attr, wrappers[obj])
        self._rebind(posegraph, "cKDTree", self._counter("posegraph.kdtree_builds", posegraph.cKDTree))
        sim3 = self.modules["geometry"].Sim3Transform
        for method in ("compose", "apply"):
            fn = vars(sim3)[method]
            self._rebind(sim3, method, self._counter(f"geometry.Sim3Transform.{method}.calls", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, name: str, fn):
        layer, short = name.split(".", 1)
        if layer in _COUNT_ONLY or name in _COUNT_ONLY:
            return self._counter(f"{name}.calls", fn)
        if name == "posegraph.measure_relative":
            return self._measure_relative(fn)
        if layer == "chunkio" and short.startswith(("read_", "write_")):
            return self._chunkio(name, fn, short.startswith("read_"))
        after = {
            "posegraph.optimize": self._after_optimize,
            "posegraph.sample_cross_edges": self._after_cross,
            "fusion.fuse": self._after_fuse,
        }.get(name)
        cross = name == "posegraph.sample_cross_edges"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self._open(name)
            self._cross_depth += cross
            try:
                result = fn(*args, **kwargs)
            finally:
                self._cross_depth -= cross
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return spanned

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn, updated=())
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_in_cross(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._cross_depth:
                self.counts["posegraph.cross_edges.attempted"] += 1
            return fn(*args, **kwargs)

        return counted

    def _measure_relative(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["posegraph.measure_relative.calls"] += 1
            self.counts["posegraph.measure_relative.accepted"] += bool(result.ok)
            return result

        return measured

    def _chunkio(self, name: str, fn, reading: bool):
        """Span plus the bytes of every file a top-level read or write touches
        (a read nested inside another chunkio call is not counted twice)."""
        key = "chunkio.bytes_read" if reading else "chunkio.bytes_written"

        @functools.wraps(fn)
        def io(*args, **kwargs):
            index = self._open(name)
            self._io_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._io_depth -= 1
                self._close(index)
            if self._io_depth == 0:
                self.counts[key] += _file_bytes(args)
            return result

        return io

    def _after_optimize(self, args, result) -> None:
        self.counts["posegraph.lm_iterations"] += result.iterations

    def _after_cross(self, args, result) -> None:
        self.counts["posegraph.cross_edges.accepted"] += len(result)

    def _after_fuse(self, args, result) -> None:
        self.counts["fusion.points_in"] += sum(len(s.points) for s in args[0])
        self.counts["fusion.points_out"] += len(result)

    # -- summaries -----------------------------------------------------------

    def total(self, prefix: str, first: int = 0) -> float:
        """Wall seconds covered by spans whose name starts with ``prefix``,
        from span ``first`` on; a span nested in another match is not added."""
        out = 0.0
        for k in range(first, len(self.spans)):
            name, start, end, parent = self.spans[k]
            if not name.startswith(prefix):
                continue
            while parent >= 0 and not self.spans[parent][0].startswith(prefix):
                parent = self.spans[parent][3]
            if parent < 0:
                out += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part its child spans cover, summed per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "self_seconds": self.self_times(),
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index)
        return False


def _file_bytes(args) -> int:
    """Sizes of the files passed positionally.  chunkio takes the files it
    reads or writes as positional paths; a keyword path, such as a
    manifest's ``ground_truth``, names a file some other call writes."""
    total = 0
    for p in args:
        if isinstance(p, _PATH_TYPES) and os.path.isfile(p):
            total += os.path.getsize(p)
    return total
