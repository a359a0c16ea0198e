"""Sensitivity sweep: the para-CR checks respond linearly to a defect,
from the noise floor up, and the checks it leaves true stay at the
floor.

The population is p1 at n = 2 with f = (1 + x1² + x2²)/z + ε·x1, at 32
points and seed 0, for ε = 0 and ε = 10⁻¹² … 10⁻¹.  Every f is
paracontact metric; only ε = 0 is para-CR.  ``s1``, ``thm1`` and
``inv-plus`` must read c·ε within a factor of 1.5 at every ε ≠ 0, c
being the check's gain in ``golden/sensitivity.json``, and below 1e-14
at ε = 0; ``s0``, ``news00``, ``inv-minus`` and ``pcm`` stay below
1e-13 at every ε.  So a change that raises the floor, or moves a gain
by more than half, fails here, while one that moves the last bits
does not.  After a deliberate change, ``PYTHONPATH=src python
tests/test_sensitivity.py`` rewrites the record, and its diff shows
which gain moved.
"""

import json
import pathlib
import statistics

import pytest

from paracr.presets import build_example, default_p1_f
from paracr.runner import run
from paracr.spec_io import spec_from_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "golden" / "sensitivity.json"
N = 2
POINTS = 32
SEED = 0
EPSILONS = tuple(10.0 ** -k for k in range(12, 0, -1))
RESPONDING = ("s1", "thm1", "inv-plus")
UNMOVED = ("s0", "news00", "inv-minus", "pcm")
GAIN_SPREAD = 1.5
FLOOR = 1e-14
UNMOVED_BOUND = 1e-13


def f_text(epsilon):
    return default_p1_f(N) + (f" + {epsilon!r}*x1" if epsilon else "")


def sweep():
    """{ε: {check id: scaled}} over ε = 0 and ``EPSILONS``."""
    readings = {}
    for epsilon in (0.0,) + EPSILONS:
        spec = spec_from_dict(
            build_example("p1", n=N, f=f_text(epsilon)).spec_dict)
        report = run(spec, checks=list(RESPONDING + UNMOVED),
                     points=POINTS, seed=SEED)
        readings[epsilon] = {row["id"]: row["scaled"]
                             for row in report.checks}
    return readings


def gains(readings):
    """Per responding check, the median of scaled / ε over the sweep."""
    return {cid: statistics.median(readings[e][cid] / e for e in EPSILONS)
            for cid in RESPONDING}


@pytest.fixture(scope="module")
def readings():
    return sweep()


def test_para_cr_checks_read_their_gain_times_epsilon(readings):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))["gains"]
    assert sorted(recorded) == sorted(RESPONDING)
    off = [f"{cid} at ε = {e!r}: {readings[e][cid]!r}, gain "
           f"{recorded[cid]!r}" for e in EPSILONS for cid in RESPONDING
           if not (recorded[cid] * e / GAIN_SPREAD <= readings[e][cid]
                   <= recorded[cid] * e * GAIN_SPREAD)]
    assert off == []


def test_para_cr_checks_read_the_floor_without_a_defect(readings):
    assert {cid: readings[0.0][cid] for cid in RESPONDING
            if not readings[0.0][cid] < FLOOR} == {}


def test_other_checks_do_not_move(readings):
    moved = [f"{cid} at ε = {e!r}: {values[cid]!r}"
             for e, values in readings.items() for cid in UNMOVED
             if not values[cid] < UNMOVED_BOUND]
    assert moved == []


if __name__ == "__main__":
    RECORD.write_text(json.dumps({
        "f": f_text(0.0) + " + epsilon*x1",
        "n": N,
        "points": POINTS,
        "seed": SEED,
        "epsilons": list(EPSILONS),
        "gains": gains(sweep()),
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
