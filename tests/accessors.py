"""Read-outs of library objects that only tests take: the first and
second partials of a jet, and a report's body (everything except the
wall clock) as data and as strict JSON."""

from paracr.runner import _dumps


def partials(jet):
    """The first partials of a jet, the direction axis last."""
    return jet._block(1)


def second_partials(jet):
    """The second partials of a jet, the two direction axes last."""
    return jet._block(2)


def report_body(report):
    """The byte-reproducible part of a report: all but its wall clock."""
    data = report.to_dict()
    del data["wall_clock_seconds"]
    return data


def report_body_json(report):
    """The report body as strict JSON, written as ``Report.json`` writes
    the whole report."""
    return _dumps(report_body(report))
