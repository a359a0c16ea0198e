"""Numerical verification toolkit for almost paracontact metric
structures and their para-CR geometry.

Public surface:

- ``paracr.jets``: batched Taylor-array jets (derivatives to order 3);
- ``paracr.expr``: the expression grammar (parse, SharedTrees);
- ``paracr.geometry``: charts, structures, FrameBatch (curvature and
  structure tensors at a batch of points) and PointFrame (one row);
- ``paracr.conditions``: the condition registry, evaluation, and
  classification;
- ``paracr.presets``: the built-in example families;
- ``paracr.spec_io`` / ``paracr.runner`` / ``paracr.cli``: manifold spec
  files, seeded verification runs, and the ``paracr`` command.
"""

from .conditions import (
    BUNDLES,
    CONDITIONS,
    classify,
    expand_checks,
)
from .errors import ParacrError, ValidationError
from .geometry import Chart, CoordinateStructure, FrameStructure, PointFrame
from .presets import PRESET_NAMES, build_example
from .runner import Report, run
from .spec_io import DEFAULT_NUMERIC, ManifoldSpec, load_spec, spec_from_dict

__version__ = "0.1.0"

__all__ = [
    "BUNDLES",
    "CONDITIONS",
    "Chart",
    "CoordinateStructure",
    "DEFAULT_NUMERIC",
    "FrameStructure",
    "ManifoldSpec",
    "PRESET_NAMES",
    "ParacrError",
    "PointFrame",
    "Report",
    "ValidationError",
    "build_example",
    "classify",
    "expand_checks",
    "load_spec",
    "run",
    "spec_from_dict",
    "__version__",
]
