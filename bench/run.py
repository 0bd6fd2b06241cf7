"""Benchmark of the ``dualrbvp`` command line, run in-process.

    python3 bench/run.py --workload factor --seed 1 --seconds 60 --trace 0

One sequential caller (a closed loop) calls ``dualrbvp.cli.main`` with the
workload's solve, verify and index commands, pass after pass: an untimed
warm-up pass, then timed passes until the next would overrun ``--seconds``
(at least one timed pass runs).  Every
output is checked against a closed form (see ``oracle.py``).  The last line
of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced pass with ``--trace 1``.
See README.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # one BLAS thread, set before numpy loads: the benchmark is one
    # sequential caller
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cases  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 20
UNATTRIBUTED_LIMIT = 0.05   # share of traced CLI time the spans may miss
# Timed end-to-end metrics are rescaled to a reference machine speed: other
# tenants of a shared host slow this process down by up to 30% for minutes
# at a time, and a fixed reference kernel, timed after every measured call
# and set-up repeat, slows down with it.  REFERENCE_NOMINAL_S is that
# kernel's time on the machine the baseline was recorded on, so the metrics
# read as seconds there.
REFERENCE_NOMINAL_S = 0.065

END_TO_END = {
    "solve_s": "s",
    "verify_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "residual_digits": "digits",
    "extrap_digits": "digits",
    "closed_form_digits": "digits",
    "ok_share": "ratio",
}
PER_LAYER = {
    "integral.cauchy_eval.s": "s",
    "integral.cauchy_eval.calls": "count",
    "integral.targets_near": "count",
    "integral.targets_far": "count",
    "integral.kernel_pairs": "count",
    "integral.cauchy_eval.repeat_share": "ratio",
    "integral.boundary_values.s": "s",
    "integral.boundary_values.calls": "count",
    "integral.boundary_values.repeat_share": "ratio",
    "integral.jump_check.s": "s",
    "rbvp.solve.s": "s",
    "rbvp.residual_report.s": "s",
    "rbvp.boundary_table.calls": "count",
    "canonical.compute_index.s": "s",
    "canonical.continuous_log.s": "s",
    "canonical.build_canonical_X.s": "s",
    "contour.dist_to.s": "s",
    "contour.dist_to.points": "count",
    "contour.interior_mask.s": "s",
    "contour.build_contour.s": "s",
    "diagnostics.regularity_report.s": "s",
    "diagnostics.regularity_report.peak_mb": "MB",
    "problemfile.load_problem.s": "s",
    "problemfile.result_document.s": "s",
    "problemfile.write_json.s": "s",
    "problemfile.result_bytes": "bytes",
    "expr.evaluate.s": "s",
    "expr.evaluate.calls": "count",
    "cli.unattributed.s": "s",
    "trace.overhead.s": "s",
}


@dataclass
class Pass:
    """Timings and verdicts of one pass over a workload's CLI calls."""

    solve_s: float = 0.0
    verify_s: float = 0.0
    verdicts: list = field(default_factory=list)    # (case, command, Verdict)
    outputs: dict = field(default_factory=dict)     # file name -> bytes
    layers: dict = field(default_factory=dict)
    # traced passes: [name, start, end, parent span index, CLI call index]
    span_log: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.solve_s + self.verify_s


def _read(path: Path):
    return path.read_bytes() if path.is_file() else None


def _argv(command: str, problem: Path, result: Path, report: Path) -> list:
    if command == "solve":
        return ["solve", str(problem), "--out", str(result)]
    if command == "verify":
        return ["verify", str(problem), str(result), "--out", str(report)]
    return ["index", str(problem)]


def run_pass(cli, workload: list, work: Path, tracer=None,
             speed: "Speed | None" = None) -> Pass:
    """One pass over the workload's calls; ``speed`` samples the machine
    after each call."""
    out = Pass()
    installed = spans.install(tracer) if tracer is not None else None
    try:
        for case in workload:
            problem = work / f"{case.name}.json"
            result = work / f"{case.name}.result.json"
            report = work / f"{case.name}.verify.json"
            for command in case.calls:
                captured = io.StringIO()
                with contextlib.redirect_stdout(captured), \
                        contextlib.redirect_stderr(captured):
                    start = time.perf_counter()
                    try:
                        code = cli.main(_argv(command, problem, result, report))
                    except Exception as exc:  # a raising call is a failed call
                        code = f"raised {type(exc).__name__}: {exc}"
                    elapsed = time.perf_counter() - start
                if speed is not None:
                    speed.sample()
                if command == "solve":
                    out.solve_s += elapsed
                else:
                    out.verify_s += elapsed
                out.verdicts.append((case.name, command,
                                     _check(case, command, code, result, report,
                                            captured.getvalue(), out)))
    finally:
        if installed is not None:
            installed.restore()
    if tracer is not None:
        out.layers = spans.layer_metrics(tracer)
        out.span_log = tracer.spans
    return out


def _check(case, command, code, result: Path, report: Path, stdout: str,
           out: Pass) -> oracle.Verdict:
    """Judge one call; records the bytes of the file it wrote in ``out``."""
    if not isinstance(code, int):
        return oracle.Verdict(False, False, str(code))
    try:
        return _judge(case, command, code, result, report, stdout, out)
    except (KeyError, TypeError, ValueError) as exc:
        return oracle.Verdict(False, False, f"malformed output: {exc!r}")


def _judge(case, command, code, result, report, stdout, out) -> oracle.Verdict:
    if command == "solve":
        raw = _read(result)
        out.outputs[result.name] = raw
        return oracle.check_solve(case, code, json.loads(raw) if raw else None)
    if command == "verify":
        raw = _read(report)
        out.outputs[report.name] = raw
        return oracle.check_verify(code, json.loads(raw) if raw else None)
    return oracle.check_index(case, code, stdout)


# Inputs of the reference kernel, made once so that timing it allocates
# only the kernel's own temporaries (2 MB each).
_REF_NODES = np.exp(2j * np.pi * np.arange(1024) / 1024)
_REF_TARGETS = 0.5 * (np.random.default_rng(0).normal(size=(4000, 2)) @ [1, 1j])


def reference_s() -> float:
    """Time of a fixed piece of work that uses no package code, so it
    measures the machine, not the program.  Like the solver it mixes dense
    Cauchy-kernel sums over large temporaries with interpreted Python."""
    start = time.perf_counter()
    for s in range(0, _REF_TARGETS.size, 125):
        inv = 1.0 / (_REF_NODES[None, :] - _REF_TARGETS[s:s + 125, None])
        (inv * _REF_NODES[None, :]).sum(axis=1)
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


class Speed:
    """Reference-kernel timings spread over a run.  A single timing swings
    with the host as much as the calls do; the mean over the run follows
    the run's average slowdown, which is what the calls' seconds carry."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(reference_s())

    @property
    def scale(self) -> float:
        """Factor that turns the run's measured seconds into seconds at the
        reference speed."""
        return REFERENCE_NOMINAL_S / statistics.fmean(self.samples)


def measure_setup(problem_files: list):
    """Mean time to import the package and load every problem file, taken
    over fresh imports and rescaled by reference timings taken between them;
    returns it with the CLI module of the last import."""
    times, speed = [], Speed()
    # the first import, which may compile bytecode, is not timed
    for repeat in range(SETUP_REPEATS + 1):
        for name in [m for m in sys.modules
                     if m == "dualrbvp" or m.startswith("dualrbvp.")]:
            del sys.modules[name]
        start = time.perf_counter()
        importlib.import_module("dualrbvp")
        cli = importlib.import_module("dualrbvp.cli")
        load = importlib.import_module("dualrbvp.problemfile").load_problem
        for path in problem_files:
            load(str(path))
        if repeat:
            times.append(time.perf_counter() - start)
            speed.sample()
    return statistics.fmean(times) * speed.scale, cli


def closed_loop(step, seconds: float) -> list:
    """Run ``step`` until the next run would end past ``seconds``."""
    start = time.perf_counter()
    runs, durations = [], []
    while True:
        t0 = time.perf_counter()
        runs.append(step())
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return runs


def _mean_digits(values: list) -> float:
    return statistics.fmean(oracle.digits(v) for v in values) if values else 0.0


def end_to_end(passes: list, setup_s: float, peak_rss_mb: float,
               scale: float) -> dict:
    solved = [v for _, command, v in passes[0].verdicts
              if command == "solve" and v.closed_form_error is not None]
    verdicts = [v for p in passes for _, _, v in p.verdicts]
    return {
        # means, not medians: the scale is a mean over the same passes
        "solve_s": statistics.fmean(p.solve_s for p in passes) * scale,
        "verify_s": statistics.fmean(p.verify_s for p in passes) * scale,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "residual_digits": _mean_digits([v.sup_residual for v in solved]),
        "extrap_digits": _mean_digits([v.error_estimate for v in solved]),
        "closed_form_digits": _mean_digits([v.closed_form_error for v in solved]),
        "ok_share": sum(v.ok for v in verdicts) / len(verdicts),
    }


def per_layer(pairs: list) -> dict:
    traced = [t for _, t in pairs]
    metrics = {name: statistics.median(t.layers[name] for t in traced)
               for name in traced[0].layers}
    metrics["trace.overhead.s"] = (statistics.median(t.wall_s for t in traced)
                                   - statistics.median(u.wall_s for u, _ in pairs))
    return metrics


def write_problems(problem_defs: list, work: Path) -> list:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    paths = []
    for case in problem_defs:
        path = work / f"{case.name}.json"
        path.write_text(json.dumps(case.problem, sort_keys=True), encoding="utf-8")
        paths.append(path)
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dualrbvp" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = cases.make_cases(args.workload, args.seed)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup_s, cli = measure_setup(write_problems(workload, work))

    faults = []
    if args.trace == 0:
        # An untimed warm-up pass.  The reference kernel's temporaries are
        # 2 MB each, so the peak resident memory read after it is the
        # package's own.
        start = time.perf_counter()
        warm = run_pass(cli, workload, work)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed = Speed()
        timed = closed_loop(lambda: run_pass(cli, workload, work, speed=speed),
                            args.seconds - (time.perf_counter() - start))
        metrics = end_to_end(timed, setup_s, peak_mb, speed.scale)
        units = END_TO_END
        passes = [warm] + timed
        print("bench: measured solve/verify seconds per timed pass: "
              + "; ".join(f"{p.solve_s:.3f} {p.verify_s:.3f}" for p in timed)
              + f"; speed scale x{speed.scale:.3f} over "
              f"{len(speed.samples)} samples", file=sys.stderr)
    else:
        def pair():
            return (run_pass(cli, workload, work),
                    run_pass(cli, workload, work, spans.Tracer()))
        pairs = closed_loop(pair, args.seconds)
        passes = [p for pr in pairs for p in pr]
        metrics, units = per_layer(pairs), PER_LAYER
        (work / "spans.json").write_text(json.dumps(pairs[-1][1].span_log))
        for _, traced in pairs:
            share = traced.layers["cli.unattributed.s"] / traced.wall_s
            if share > UNATTRIBUTED_LIMIT:
                faults.append(f"spans miss {share:.1%} of the traced CLI time")

    for p in passes[1:]:
        if p.outputs != passes[0].outputs:
            faults.append("output files differ between passes")
            break
    verdicts = [v for p in passes for _, _, v in p.verdicts]
    failed = sum(not v.sound for v in verdicts)
    for name, command, v in passes[0].verdicts:
        if not v.ok:
            print(f"bench: {name} {command}: {v.message}", file=sys.stderr)
    for msg in faults:
        print(f"bench: {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not faults,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
