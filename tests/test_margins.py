"""Margin gate: every verdict sits far from its thresholds, whatever the
last bits of the arithmetic.

The population is every example family at n <= 2, the five benchmark
specs and p1 at n = 2 with f = x1 (not para-CR), each run at seeds 0
and 1 with 32 points and all checks.  Every pass must stay at or below
1e-10, every failure at or above the default separation, no verdict
may be ambiguous, and the engine self-tests stay within the benchmark
bounds (1e-9, and 1e-5 for ``jet_vs_fd``).

``golden/margins.json`` records each check's worst pass and best
failure over the population.  The gate fails when one of them moves by
more than a factor of ten, or when a check gains or loses its failures;
it never fails on a change of the last bits alone.  After a deliberate
change, ``PYTHONPATH=src python tests/test_margins.py`` rewrites the
record, and its diff shows which margin moved.
"""

import json
import math
import pathlib
import sys

import pytest

from cases import preset_spec
from paracr.runner import run
from paracr.spec_io import DEFAULT_NUMERIC, load_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "golden" / "margins.json"
BENCH_SPECS = ROOT / "bench" / "specs"
PRESETS = (
    ("flat3d", {}),
    ("hyperboloid", {"n": 1}),
    ("hyperboloid", {"n": 2}),
    ("p1", {"n": 2}),
    ("cosymplectic", {"n": 1}),
    ("cosymplectic", {"n": 2}),
    ("p1", {"n": 2, "f": "x1"}),
)
SEEDS = (0, 1)
POINTS = 32
PASS_BOUND = 1e-10
SELF_TEST_BOUND = 1e-9
JET_VS_FD_BOUND = 1e-5
DRIFT = 10.0


def population():
    """(label, spec) of every structure of the gate."""
    for name, params in PRESETS:
        label = " ".join([name] + [f"{k}={v}" for k, v in params.items()])
        yield label, preset_spec(name, **params)
    for path in sorted(BENCH_SPECS.glob("*.json")):
        yield f"bench/specs/{path.name}", load_spec(str(path))


def measure():
    """Per check id the worst pass and the best failure (None when it
    never fails) over the population, and every verdict or self-test
    outside its bound, as readable lines."""
    separation = DEFAULT_NUMERIC["separation"]
    margins, problems = {}, []
    for label, spec in population():
        for seed in SEEDS:
            report = run(spec, checks="all", points=POINTS, seed=seed)
            where = f"{label}, seed {seed}"
            for name, value in report.engine.items():
                bound = JET_VS_FD_BOUND if name == "jet_vs_fd" \
                    else SELF_TEST_BOUND
                if not value <= bound:
                    problems.append(f"{where}: self-test {name} = {value!r}")
            for row in report.checks:
                cid, scaled = row["id"], row["scaled"]
                worst, best = margins.get(cid, (0.0, None))
                if row["verdict"] == "pass":
                    worst = max(worst, scaled)
                    if not scaled <= PASS_BOUND:
                        problems.append(f"{where}: {cid} passes at {scaled!r}")
                elif row["verdict"] == "fail" and scaled >= separation:
                    best = scaled if best is None else min(best, scaled)
                else:
                    problems.append(f"{where}: {cid} {row['verdict']} at "
                                    f"{scaled!r}")
                margins[cid] = (worst, best)
    return {cid: {"worst_pass": worst, "best_failure": best}
            for cid, (worst, best) in sorted(margins.items())}, problems


@pytest.fixture(scope="module")
def measured():
    return measure()


def test_verdicts_keep_their_margins(measured):
    assert measured[1] == []


def _drifted(value, recorded):
    if value is None or recorded is None:
        return value is not recorded
    if value == recorded:
        return False
    return not (value > 0.0 and recorded > 0.0
                and abs(math.log10(value / recorded)) <= math.log10(DRIFT))


def test_margins_stay_within_a_factor_of_ten_of_the_record(measured):
    record = json.loads(RECORD.read_text(encoding="utf-8"))["checks"]
    margins = measured[0]
    assert sorted(margins) == sorted(record)
    moved = [f"{cid} {key}: {margins[cid][key]!r}, recorded {value!r}"
             for cid, entry in record.items() for key, value in entry.items()
             if _drifted(margins[cid][key], value)]
    assert moved == []


if __name__ == "__main__":
    margins, problems = measure()
    for line in problems:
        print(line, file=sys.stderr)
    RECORD.write_text(json.dumps({
        "population": [label for label, _ in population()],
        "seeds": list(SEEDS),
        "points": POINTS,
        "checks": margins,
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
