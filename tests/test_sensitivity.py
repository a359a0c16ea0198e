"""Sensitivity sweep: the para-CR checks respond linearly to a defect,
from the noise floor up, and the checks it leaves true stay at the
floor.

The population is p1 at n = 2 with f = (1 + x1² + x2²)/z + ε·x1, at 32
points and seed 0, for ε = 0 and ε = 10⁻¹² … 10⁻¹.  Every f is
paracontact metric; only ε = 0 is para-CR.  ``s1``, ``thm1`` and
``inv-plus`` must read c·ε within a factor of 1.5 at every ε ≠ 0, c
being the check's gain in ``golden/sensitivity.json``, and below 1e-14
at ε = 0; ``s0``, ``news00``, ``news01``, ``inv-minus`` and ``pcm``
stay below 1e-13 at every ε.  So a change that raises the floor, or
moves a gain by more than half, fails here, while one that moves the
last bits does not.  After a deliberate change, ``PYTHONPATH=src python
tests/test_sensitivity.py`` rewrites the record, and its diff shows
which gain moved.

Along the sweep the classification says para-CR only while every
formulation passes: True up to ε = 10⁻⁸, undetermined from 10⁻⁶ to
10⁻⁴ (``s1`` and ``thm1`` ambiguous, ``inv-plus`` passing), False from
10⁻² on.  Each ε asserted puts the readings that decide it at least 5×
from the tolerance and the separation; at 10⁻⁷ and 10⁻³ ``thm1`` reads
0.94 of them, so those two are left out.
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
UNMOVED = ("s0", "news00", "news01", "inv-minus", "pcm")
PARA_CR = {True: (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8),
           None: (1e-6, 1e-5, 1e-4),
           False: (1e-2, 1e-1)}
GAIN_SPREAD = 1.5
FLOOR = 1e-14
UNMOVED_BOUND = 1e-13


def f_text(epsilon):
    return default_p1_f(N) + (f" + {epsilon!r}*x1" if epsilon else "")


def sweep():
    """{ε: report} over ε = 0 and ``EPSILONS``."""
    reports = {}
    for epsilon in (0.0,) + EPSILONS:
        spec = spec_from_dict(
            build_example("p1", n=N, f=f_text(epsilon)).spec_dict)
        reports[epsilon] = run(spec, checks=list(RESPONDING + UNMOVED),
                               points=POINTS, seed=SEED)
    return reports


def scaled_by_id(reports):
    """{ε: {check id: scaled}}."""
    return {e: {row["id"]: row["scaled"] for row in report.checks}
            for e, report in reports.items()}


def gains(readings):
    """Per responding check, the median of scaled / ε over the sweep."""
    return {cid: statistics.median(readings[e][cid] / e for e in EPSILONS)
            for cid in RESPONDING}


@pytest.fixture(scope="module")
def reports():
    return sweep()


@pytest.fixture(scope="module")
def readings(reports):
    return scaled_by_id(reports)


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


def test_para_cr_holds_only_while_every_formulation_passes(reports):
    got = {e: reports[e].classification["para_cr"]
           for verdicts in PARA_CR.values() for e in verdicts}
    assert got == {e: verdict for verdict, verdicts in PARA_CR.items()
                   for e in verdicts}


if __name__ == "__main__":
    RECORD.write_text(json.dumps({
        "f": f_text(0.0) + " + epsilon*x1",
        "n": N,
        "points": POINTS,
        "seed": SEED,
        "epsilons": list(EPSILONS),
        "gains": gains(scaled_by_id(sweep())),
    }, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {RECORD}")
