"""Shared pieces of the paracr benchmark: source-tree import, workload
table, the in-process ``paracr verify`` call, and the reference check.

The benchmark lives in ``bench/`` next to ``src/``; it imports the
package from ``src/`` of the same checkout and from nowhere else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = HERE / "specs"
REFERENCES = HERE / "reference"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

TOLERANCE = 1e-6
# Reference streams: benchmark seed N selects verify seed N % STREAMS,
# and every stream has a stored reference report.
STREAMS = 16

# Each workload is an ordered list of verify calls: (spec file, checks,
# points).  Point counts keep one pass at 1-2 s on a 2-core machine, so
# a run holds 20 or more passes: the CPU speed of a shared host drifts
# by up to 40 % in episodes of 10-40 s, and the median of a few 8 s
# passes moved by 22 % between runs.
WORKLOADS = {
    "frame-m7": [("p1_n3.json", "para-cr", 4)],
    "nested-m5": [("hyperboloid_n2.json", "all", 8),
                  ("cosymplectic_n2.json", "all", 8)],
    "checks-m3": [("flat3d.json", "all", 32),
                  ("flat3d_sqrt.json", "all", 32)],
}

# Bounds a report must meet besides matching its reference.
SELF_TEST_BOUND = 1e-9
JET_VS_FD_BOUND = 1e-5
TARGET_BOUND = 1e-9
FAILING_SCALED_RTOL = 1e-6


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/paracr`` to benchmark."""


def import_paracr():
    """Import paracr from this checkout's ``src/``; raise SourceMissing
    when it is absent or when another copy would be imported instead.

    The load is one single-threaded process, so unset BLAS pool sizes
    are pinned to 1 before NumPy is first imported.
    """
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "paracr" / "cli.py").is_file():
        raise SourceMissing(f"no paracr sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import paracr
    import paracr.cli
    if Path(paracr.__file__).resolve().parent != SRC / "paracr":
        raise SourceMissing(f"paracr imported from {paracr.__file__}, "
                            f"not from {SRC}")
    return paracr


def verify_args(spec_file, checks, points, seed):
    return ["verify", "--spec", str(SPECS / spec_file), "--checks", checks,
            "--points", str(points), "--seed", str(seed),
            "--tol", repr(TOLERANCE), "--format", "json"]


def call_verify(args):
    """Run ``paracr.cli.main(args)`` with stdout captured; return
    (exit status, parsed JSON report or None)."""
    import paracr.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = paracr.cli.main(args)
    text = buf.getvalue()
    return status, (json.loads(text) if text.strip() else None)


def compact_reference(status, report):
    """What a reference stores of one verify call."""
    return {
        "exit": status,
        "spec_digest": report["spec_digest"],
        "checks": [{key: row[key] for key in ("id", "verdict", "part",
                                              "scaled")}
                   for row in report["checks"]],
        "classification": report["classification"],
        "targets": (None if report["targets"] is None else
                    {name: entry["expected"]
                     for name, entry in report["targets"].items()}),
    }


def _within(value, bound):
    return isinstance(value, (int, float)) and value <= bound


def check_report(status, report, ref, *, seed, points):
    """Problems of one verify result against its stored reference; an
    empty list means the result is correct."""
    if report is None:
        return [f"exit {status} without a report"]
    problems = []
    if status != ref["exit"]:
        problems.append(f"exit {status}, reference {ref['exit']}")
    expected_head = {"spec_digest": ref["spec_digest"], "seed": seed,
                     "points": points, "tolerance": TOLERANCE}
    for key, want in expected_head.items():
        if report.get(key) != want:
            problems.append(f"{key} {report.get(key)!r}, expected {want!r}")
    for name, value in report.get("engine", {}).items():
        bound = JET_VS_FD_BOUND if name == "jet_vs_fd" else SELF_TEST_BOUND
        if not _within(value, bound):
            problems.append(f"self-test {name} = {value!r} > {bound:g}")
    rows = report.get("checks", [])
    if [r["id"] for r in rows] != [r["id"] for r in ref["checks"]]:
        problems.append("check ids differ from the reference")
    for row, want in zip(rows, ref["checks"]):
        cid = want["id"]
        if row["verdict"] != want["verdict"]:
            problems.append(f"{cid}: verdict {row['verdict']}, "
                            f"reference {want['verdict']}")
        elif row["verdict"] == "pass":
            if not _within(row["scaled"], TOLERANCE):
                problems.append(f"{cid}: passing scaled {row['scaled']!r}")
        else:
            if row["part"] != want["part"]:
                problems.append(f"{cid}: part {row['part']!r}, "
                                f"reference {want['part']!r}")
            ok = (isinstance(row["scaled"], (int, float))
                  and math.isclose(row["scaled"], want["scaled"],
                                   rel_tol=FAILING_SCALED_RTOL, abs_tol=0.0))
            if not ok:
                problems.append(f"{cid}: scaled {row['scaled']!r}, "
                                f"reference {want['scaled']!r}")
    if report.get("classification") != ref["classification"]:
        problems.append("classification differs from the reference")
    targets = report.get("targets")
    if ref["targets"] is None:
        if targets is not None:
            problems.append("targets reported where the reference has none")
    elif targets is None or set(targets) != set(ref["targets"]):
        problems.append("target names differ from the reference")
    else:
        for name, expected in ref["targets"].items():
            entry = targets[name]
            if entry["expected"] != expected:
                problems.append(f"target {name}: expected value changed")
            if not _within(entry["max_abs_deviation"], TARGET_BOUND):
                problems.append(f"target {name}: deviation "
                                f"{entry['max_abs_deviation']!r}")
    return problems


def load_references(workload):
    path = REFERENCES / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["streams"]
