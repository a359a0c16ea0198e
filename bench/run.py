"""paracr benchmark: ``paracr verify`` end to end, and per layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``common.WORKLOADS``; specs in ``bench/specs/``):

- ``frame-m7``: p1 preset, n = 3 (m = 7), ``para-cr`` -- frame path,
  dominated by sampling (jets plus Gauss-Jordan).
- ``nested-m5``: hyperboloid and cosymplectic, n = 2 (m = 5), ``all``
  -- jets reached through embedding and Hessian code, plus the target
  measurements.
- ``checks-m3``: flat3d and the sqrt-reparametrised flat spec (m = 3),
  ``all`` -- dominated by the 26 checks; the second spec rejects about
  a quarter of its draws.

Each call goes through ``paracr.cli.main(["verify", ...,
"--format", "json"])`` in this process with stdout captured, and its
report is checked against ``bench/reference/<workload>.json``.  The
benchmark seed picks verify seed ``N % common.STREAMS``.

``--trace 0`` reports the end-to-end metrics: ``verify_s`` (median wall
time of a warm pass over the workload's calls), ``setup_s`` (median
over fresh interpreters of ``import paracr.cli`` plus a 1-point verify
of the first spec), both rescaled to quiet-host speed (see
``calibration.py``), and ``peak_rss_mb`` (peak RSS of this process).
``--trace 1`` alternates plain passes with traced replicas
(``layers.py``) and reports the per-layer metrics declared in
``BENCHMARK.json``.

Ad-hoc traced run, not a workload (the ROADMAP table by stage):

    python3 bench/run.py --adhoc flat3d --adhoc hyperboloid:2 --points 64

Every metric of every workload, end to end and per layer:

    for w in frame-m7 nested-m5 checks-m3; do for t in 0 1; do
      python3 bench/run.py --workload $w --seconds 40 --trace $t; done; done

The last line of output is one JSON object: correct, attempted, failed
and metrics.  Exit status 2 when the checkout has no ``src/paracr``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibration
import common

SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60

_SETUP_CHILD = """
import contextlib, io, json, sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import calibration
kernel = calibration.kernel_seconds()
start = time.perf_counter()
import paracr.cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    status = paracr.cli.main({args!r})
elapsed = time.perf_counter() - start
json.loads(buf.getvalue())
print(json.dumps({{"setup_s": calibration.quiet(elapsed, kernel),
                  "exit": status}}))
"""


def _declared():
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        data = json.load(fh)
    return ({m["name"]: m["unit"] for m in data["end_to_end"]},
            {m["name"]: m["unit"] for m in data["per_layer"]})


def _git_commit():
    head = common.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (common.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _environment():
    import os
    import numpy
    blas = ", ".join(f"{v}={os.environ.get(v)}" for v in common.BLAS_VARS)
    return [f"nproc {os.cpu_count()}",
            f"python {platform.python_version()}",
            f"numpy {numpy.__version__}",
            f"blas threads: {blas}",
            f"commit {_git_commit()}"]


def _tail(samples):
    """The highest of p99..p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) >= 1000:
            return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f}"
    return "no percentile has ten samples beyond it"


def _calls(workload, seed):
    return [(common.verify_args(spec, checks, points, seed), points)
            for spec, checks, points in common.WORKLOADS[workload]]


def _checked_pass(calls, refs, seed, log):
    """One timed pass over the workload's verify calls.

    Returns (wall seconds, reports, number of failed calls).
    """
    reports, failed = [], 0
    start = time.perf_counter()
    for (args, points), ref in zip(calls, refs):
        try:
            status, report = common.call_verify(args)
        except Exception:
            traceback.print_exc()
            reports.append(None)
            failed += 1
            continue
        reports.append(report)
        problems = common.check_report(status, report, ref, seed=seed,
                                       points=points)
        if problems:
            failed += 1
            log(f"reference check failed for {args[2]}: "
                + "; ".join(problems))
    return time.perf_counter() - start, reports, failed


def _setup_code(first_args):
    args = list(first_args)
    args[args.index("--points") + 1] = "1"
    return _SETUP_CHILD.format(src=str(common.SRC), bench=str(common.HERE),
                               args=args)


def _setup_once(code):
    """Seconds a fresh interpreter takes to import paracr.cli and run a
    1-point verify, at quiet-host speed, or None when it fails."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=common.ROOT,
                          capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0 and result["exit"] in (0, 1):
            return result["setup_s"]
    except (IndexError, ValueError, KeyError):
        pass
    sys.stderr.write(proc.stderr)
    return None


def _warm(calls):
    """Fill lazy caches (self-test corpus, imports) with 1-point calls."""
    for args, _points in calls:
        warm = list(args)
        warm[warm.index("--points") + 1] = "1"
        common.call_verify(warm)


def _pin_to_one_cpu():
    """Keep this process and its children on one CPU, so a calibration
    and the sample after it run on the same one."""
    import os
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _metric(value, unit, reason=None):
    entry = {"value": value, "unit": unit}
    if value is None:
        entry["reason"] = reason
    return entry


def end_to_end(workload, seed, seconds, units, log):
    """Timed passes until ``seconds`` are spent.  SETUP_RUNS fresh-
    interpreter set-up samples are spread evenly between the passes, so
    both medians sample the same stretch of machine time."""
    refs = common.load_references(workload)[str(seed)]
    calls = _calls(workload, seed)
    setup_code = _setup_code(calls[0][0])
    _pin_to_one_cpu()
    _warm(calls)
    durations, passes, setup, attempted, failed = [], [], [], 0, 0
    setup_runs = 0
    start = time.perf_counter()
    while True:
        kernel = calibration.kernel_seconds()
        wall, _reports, bad = _checked_pass(calls, refs, seed, log)
        durations.append(wall)
        passes.append(calibration.quiet(wall, kernel))
        attempted += len(calls)
        failed += bad
        elapsed = time.perf_counter() - start
        if setup_runs < min(SETUP_RUNS, SETUP_RUNS * elapsed / seconds + 1):
            setup_runs += 1
            sample = _setup_once(setup_code)
            if sample is None:
                failed += 1
            else:
                setup.append(sample)
            elapsed = time.perf_counter() - start
        if (setup_runs == SETUP_RUNS
                and elapsed + statistics.median(durations) > seconds):
            break
    attempted += setup_runs
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "verify_s": statistics.median(passes),
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": peak_mb,
    }
    log(f"verify_s: {len(passes)} passes, median {values['verify_s']:.4f} s"
        f" at quiet-host speed, {_tail(passes)}; raw wall: fastest "
        f"{min(durations):.4f} s, median {statistics.median(durations):.4f}"
        " s; samples " + ", ".join(f"{d:.4f}" for d in durations))
    log(f"setup_s: {len(setup)} fresh interpreters at quiet-host speed, "
        "samples " + ", ".join(f"{s:.4f}" for s in setup))
    log(f"failed_frac: {failed}/{attempted} calls "
        f"({failed / attempted:.4f})")
    metrics = {name: _metric(values.get(name), unit, "not measured")
               for name, unit in units.items()}
    return failed == 0, attempted, failed, metrics


def traced(workload, seed, seconds, units, log):
    """Plain and traced passes in turn until ``seconds`` are spent.

    Each traced pass must rebuild the reports of the plain pass before
    it; where it does not, that pass's layer numbers are void.
    """
    import layers
    refs = common.load_references(workload)[str(seed)]
    calls = _calls(workload, seed)
    specs = common.WORKLOADS[workload]
    _pin_to_one_cpu()
    _warm(calls)
    plain, walls, passes, attempted, failed = [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        wall, reports, bad = _checked_pass(calls, refs, seed, log)
        plain.append(wall)
        attempted += len(calls)
        failed += bad
        pass_start = time.perf_counter()
        traces = [layers.traced_call(str(common.SPECS / spec), checks,
                                     points, seed, common.TOLERANCE)
                  for spec, checks, points in specs]
        walls.append(time.perf_counter() - pass_start)
        values, reasons = layers.pass_metrics(traces, _condition_ids(units))
        differ = [part for t, report in zip(traces, reports)
                  for part in (["report"] if report is None
                               else layers.replica_mismatch(t, report))]
        if differ:
            why = "replica differs from run() in " + ", ".join(differ)
            values, reasons = dict.fromkeys(values), dict.fromkeys(values, why)
            log(why)
        passes.append((values, reasons))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(plain) + statistics.median(walls) \
                > seconds:
            break
    values = {"trace.overhead_s":
              statistics.median(walls) - statistics.median(plain)}
    metrics = {}
    for name, unit in units.items():
        samples = [v.get(name) for v, _ in passes]
        if name in values:
            metrics[name] = _metric(values[name], unit)
        elif None in samples:
            metrics[name] = _metric(None, unit, passes[
                samples.index(None)][1].get(name, "not measured"))
        else:
            metrics[name] = _metric(statistics.median(samples), unit)
    log(f"{len(walls)} plain and traced passes, medians "
        f"{statistics.median(plain):.4f} s and "
        f"{statistics.median(walls):.4f} s")
    return failed == 0, attempted, failed, metrics


def _condition_ids(units):
    return [name[len("conditions."):-2] for name in units
            if name.startswith("conditions.")]


def adhoc(entries, points, checks, seed, log):
    """Traced runs of presets built in memory; prints a table by stage."""
    import layers
    from paracr.presets import build_example
    header = (f"{'preset':<16}{'m':>3}{'sampling+jets':>15}{'tensors':>10}"
              f"{'checks':>10}{'self-tests':>12}{'targets':>10}"
              f"{'accepted/attempts':>19}")
    log(header)
    try:  # fill the self-test corpus cache so no row pays for it
        layers.layer("runner.engine_self_tests", [])()
    except layers.Void:
        pass
    for entry in entries:
        name, _, n = entry.partition(":")
        params = {"n": int(n)} if n else {}
        descriptor = build_example(name, **params)
        t = layers.traced_call(descriptor.spec_dict, checks, points, seed,
                               common.TOLERANCE)
        v = t.values

        def cell(key, width):
            value = v.get(key)
            return f"{'-' if value is None else f'{value:.3f} s':>{width}}"
        ratio = (f"{v.get('sample_accepted')}/"
                 f"{v.get('runner.sample_attempts')}")
        log(f"{entry:<16}{descriptor.structure.dim:>3}"
            f"{cell('runner.sample_points_s', 15)}"
            f"{cell('geometry.tensors_s', 10)}"
            f"{cell('runner.evaluate_checks_s', 10)}"
            f"{cell('runner.engine_self_tests_s', 12)}"
            f"{cell('runner.measure_targets_s', 10)}{ratio:>19}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(common.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--adhoc", action="append", metavar="PRESET[:N]",
                        help="ad-hoc traced run of a preset (repeatable)")
    parser.add_argument("--points", type=int, default=64,
                        help="ad-hoc runs: sample points (default 64)")
    parser.add_argument("--checks", default="all",
                        help="ad-hoc runs: checks (default all)")
    args = parser.parse_args(argv)
    if not args.adhoc and args.workload is None:
        parser.error("--workload or --adhoc is required")

    def log(line):
        print(line, flush=True)

    try:
        common.import_paracr()
    except common.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in _environment():
        log(line)
    if args.adhoc:
        adhoc(args.adhoc, args.points, args.checks, args.seed, log)
        return 0

    units_e2e, units_layer = _declared()
    seed = args.seed % common.STREAMS
    log(f"workload {args.workload}, seed {args.seed} (verify seed {seed}), "
        f"{args.seconds:g} s, trace {args.trace}")
    if args.trace:
        correct, attempted, failed, metrics = traced(
            args.workload, seed, args.seconds, units_layer, log)
    else:
        correct, attempted, failed, metrics = end_to_end(
            args.workload, seed, args.seconds, units_e2e, log)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = (f"null: {entry['reason']}" if value is None
                 else f"{value:.6g} {entry['unit']}")
        log(f"  {name:<34} {shown}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
