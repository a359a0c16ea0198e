"""Write the benchmark's input specs and reference reports.

    python3 bench/make_inputs.py

The preset specs come from ``paracr.presets``; ``flat3d_sqrt.json`` is
the README's flat coordinate spec with every ``2*z`` replaced by
``2*sqrt(z+0.5)`` over the same box, so draws with z < -0.5 are
rejected with a DomainError.  The references hold, for each workload
and each of the ``STREAMS`` verify seeds, what ``check_report``
compares.  Regenerate them only when a change of verdict, part or
classification is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import sys

import common

_FLAT_SQRT = {
    "chart": {"coordinates": ["x", "y", "z"],
              "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]},
    "structure": {"coordinate": {
        "g": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi": [["0", "0", "cosh(2*sqrt(z+0.5))"],
                ["0", "0", "-sinh(2*sqrt(z+0.5))"],
                ["cosh(2*sqrt(z+0.5))", "sinh(2*sqrt(z+0.5))", "0"]],
        "xi": ["-sinh(2*sqrt(z+0.5))", "cosh(2*sqrt(z+0.5))", "0"],
        "eta": ["sinh(2*sqrt(z+0.5))", "cosh(2*sqrt(z+0.5))", "0"]}},
    "checks": ["para-cr", "pcm"],
    "numeric": {"points": 64, "seed": 0, "tolerance": 1e-6},
}

_PRESETS = {
    "p1_n3.json": ("p1", {"n": 3}),
    "hyperboloid_n2.json": ("hyperboloid", {"n": 2}),
    "cosymplectic_n2.json": ("cosymplectic", {"n": 2}),
    "flat3d.json": ("flat3d", {}),
}


def write_specs():
    from paracr.presets import build_example
    from paracr.spec_io import spec_text
    common.SPECS.mkdir(exist_ok=True)
    for filename, (name, params) in _PRESETS.items():
        text = spec_text(build_example(name, **params).spec_dict)
        (common.SPECS / filename).write_text(text, encoding="utf-8")
    (common.SPECS / "flat3d_sqrt.json").write_text(
        spec_text(_FLAT_SQRT), encoding="utf-8")


def write_references():
    common.REFERENCES.mkdir(exist_ok=True)
    for workload, calls in common.WORKLOADS.items():
        streams = {}
        for seed in range(common.STREAMS):
            entries = []
            for spec_file, checks, points in calls:
                status, report = common.call_verify(
                    common.verify_args(spec_file, checks, points, seed))
                entries.append(common.compact_reference(status, report))
            streams[str(seed)] = entries
            print(f"{workload} seed {seed}", file=sys.stderr)
        data = {"workload": workload, "calls": calls, "streams": streams}
        path = common.REFERENCES / f"{workload}.json"
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    common.import_paracr()
    write_specs()
    write_references()
