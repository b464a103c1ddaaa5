"""Shows that every output check catches the fault it is for.

    python3 trackbench/selfcheck.py

Runs one drift_square operation, confirms that its outputs pass every
check, then feeds each check a corrupted copy of the outputs (a shifted
pose, a duplicated voxel point, a rising cost, ...) and confirms that the
check reports it.  Exits non-zero if a clean output fails or a corruption
goes unnoticed.
"""

from __future__ import annotations

import copy
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import run  # caps BLAS threads before numpy loads anywhere else

import checks  # noqa: E402
import workloads  # noqa: E402


def _rewrite_tum(path: Path, edit) -> None:
    """Apply ``edit`` to the data rows (lists of field strings) of a TUM file."""
    lines = path.read_text().splitlines()
    rows = [line.split() for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [" ".join(r) for r in rows]) + "\n")


def _shift_pose(rows):
    rows[40][1] = repr(float(rows[40][1]) + 2.0)


def _stretch_quat(rows):
    rows[10][7] = repr(float(rows[10][7]) * 1.01)


def _swap_rows(rows):
    rows[5], rows[6] = rows[6], rows[5]


def _nan_pose(rows):
    rows[3][2] = "nan"


def main() -> int:
    mods = run.import_trackstitch()
    ts = SimpleNamespace(**mods)
    wl = workloads.WORKLOADS["drift_square"]
    workdir = run.STATE / "work" / "selfcheck"
    try:
        inp = wl.setup(1, workdir, ts)
        out = wl.run(inp, ts, run.Stages(None))
        tum = inp.dir / "refined.tum"
        clean_tum = tum.read_bytes()
        _, _, clean = wl.verify(inp, out, ts)
        print(f"clean outputs: {'pass' if not clean else clean}")
        failed = bool(clean)

        def tum_case(edit):
            def case():
                _rewrite_tum(tum, edit)
                try:
                    return wl.verify(inp, out, ts)[2]
                finally:
                    tum.write_bytes(clean_tum)
            return case

        def out_case(key, change):
            def case():
                bad = copy.copy(out)
                bad[key] = change(out[key])
                return wl.verify(inp, bad, ts)[2]
            return case

        far = int(np.argmax(np.linalg.norm(inp.gt_p - inp.gt_p[0], axis=1)))
        cases = {
            "refined pose shifted by 2 m": tum_case(_shift_pose),
            "quaternion not unit": tum_case(_stretch_quat),
            "timestamps out of order": tum_case(_swap_rows),
            "NaN in a pose": tum_case(_nan_pose),
            "program ATE off by 1 %": out_case("program_ate", lambda a: a * 1.01),
            "false loop edge": out_case("loops", lambda e: e + [(0, far)]),
            "optimizer cost rose": out_case(
                "diags", lambda d: d[:1] + [(d[1][0], d[1][1], d[1][2], d[1][2] * 1.01)] + d[2:]),
            "refined worse than stitched": out_case("stitched", lambda s: inp.gt),
            "duplicated voxel point": out_case("fused", lambda f: np.vstack([f, f[:1]])),
            "fused point moved off its input": out_case(
                "fused", lambda f: np.vstack([f[:-1], f[-1:] + [0.0, 0.0, 0.01]])),
            "repeated run wrote other bytes": lambda: checks.check_identical(
                "refined.tum", [clean_tum, clean_tum.replace(b"1", b"2", 1)]),
            "gauge with negative scale": lambda: checks.check_gauges(
                [(-1.0, np.array([1.0, 0, 0, 0]), np.zeros(3))]),
        }
        for label, case in cases.items():
            found = case()
            print(f"{label:<36} {'caught: ' + found[0] if found else 'NOT CAUGHT'}")
            failed |= not found
        return 1 if failed else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
