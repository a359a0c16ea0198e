"""One-point access to the batched engine, for tests that look at one
point at a time."""

import numpy as np

from paracr.conditions import evaluate_conditions
from paracr.errors import ParacrError
from paracr.geometry import structure_jets


def components(structure, point):
    """Values of (g, phi, xi, eta) at one point; raises the point's
    rejection."""
    parts, rejected = structure_jets(structure, [point], order=0)
    if rejected[0] is not None:
        raise rejected[0]
    return tuple(part.v[0] for part in parts)


def evaluate_condition(cond_id, pf, probes=()):
    """Worst value of one condition at the point of a PointFrame (probes
    [draws, 4, m]); raises what its kernel raised."""
    probes = np.asarray(probes, dtype=float).reshape(1, -1, 4, pf.m)
    value = evaluate_conditions([cond_id], pf.single, probes)[cond_id]
    if isinstance(value, ParacrError):
        raise value
    return value
