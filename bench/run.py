"""bootbayes benchmark: time to a finished study, fresh and from a stored run.

Usage, from the repository root:

    python3 bench/run.py --workload mvn_studies --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all          # every workload, one by one

Workloads (see workloads.py): ``mvn_studies``, ``mvn_reuse``, ``prostate``.
``--seed 0`` uses the paper's seeds and checks every output against the
reference outputs in ``bench/reference``; any other seed derives fresh
seeds and checks that passes agree byte for byte.

Each run repeats set-up three times and reports the median as ``setup_s``,
then runs passes in a closed loop (one at a time, at least two) until
``--seconds`` have passed and reports per-pass medians of ``wall_s``,
``cpu_s`` (user plus system, child processes included) and ``peak_rss_mb``
(largest peak resident set among the pass's processes).  ``fail_frac`` is
failed over attempted operations; an operation is one CLI invocation or one
library query, and fails on a non-zero exit, an exception or an output
mismatch.  The three times are scaled to a nominal machine speed measured by
a calibration loop run just before and after each set-up and pass (see
CALIBRATION_NOMINAL_S); the unscaled medians are printed on the ``RAW``
line.  With ``--trace 1`` a run instead makes one untraced and one traced
pass and reports the per-layer metrics; the traced outputs must equal the
untraced ones exactly.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units come from
``BENCHMARK.json``.  Earlier lines give the environment (``ENV``), a
readable summary with units and ``fail_frac`` (``RESULT``) and, when
tracing, the full per-layer table (``TRACE``).  ``--write-reference``
regenerates the reference outputs from one default-seed pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import check
from workloads import DEFAULT_SEED, PAPER_SIZES, WORKLOADS, CliStep, Counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170.0
# On a shared virtual machine the CPU speed can drift by tens of percent
# from minute to minute (seen on a 2-vCPU VM), so times are scaled to the
# speed at which the calibration loop takes CALIBRATION_NOMINAL_S, using
# calibrations just before and after each measured interval.  Unscaled
# times are printed on the RAW line.
CALIBRATION_ITERATIONS = 75_000
CALIBRATION_BATCHES = 12
CALIBRATION_NOMINAL_S = 0.2

# fresh-process import check; also reports the environment of the program
PROBE = r"""
import ctypes, glob, json, os, sys
import bootbayes.cli
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for lib in glob.glob(os.path.join(libdir, "*openblas*")):
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({"bootbayes_file": bootbayes.__file__,
                  "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


class BenchError(RuntimeError):
    """The program under test is missing or broken; no result is printed."""


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    scale: float = 1.0  # speed normalisation of the pass's times
    attempted: int = 0
    failed: int = 0
    outputs: dict[str, bytes] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def calibrate() -> float:
    """Duration of a fixed mix like the program's: a Python loop of small
    numpy calls (row loops) and batched 2x2 linear algebra (BaB)."""
    a = np.arange(9.0)
    stack = np.random.default_rng(1).random((10000, 2, 2)) + 2.0 * np.eye(2)
    total = 0.0
    t0 = perf_counter()
    for i in range(CALIBRATION_ITERATIONS):
        total += float(np.dot(a, a)) + i % 7
    for _ in range(CALIBRATION_BATCHES):
        inv = np.linalg.inv(stack)
        total += float(np.linalg.slogdet(stack)[1].sum()
                       + np.einsum("bij,bji->b", inv, stack).sum())
    return perf_counter() - t0


class SpeedClock:
    """Scale factors for intervals bracketed by calibration runs."""

    def __init__(self):
        self.restart()

    def restart(self) -> None:
        self.last = calibrate()

    def scale(self) -> float:
        """Factor for the interval since the previous calibration."""
        now = calibrate()
        factor = 2.0 * CALIBRATION_NOMINAL_S / (self.last + now)
        self.last = now
        return factor


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("BOOTBAYES_THREADS", None)  # the documented default: one thread
    return env


def run_child(argv, stdout_path: Path, stderr_path: Path):
    """Run one process to completion; returns (exit code, its own rusage)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def cli_argv(step: CliStep) -> list[str]:
    return [sys.executable, "-m", "bootbayes.cli", *step.argv]


def probe(work: Path) -> dict:
    rc, _ = run_child([sys.executable, "-c", PROBE], work / "probe.stdout",
                      work / "probe.stderr")
    if rc != 0:
        raise BenchError("cannot import bootbayes from src/: "
                         + (work / "probe.stderr").read_text()[-400:])
    info = json.loads((work / "probe.stdout").read_text())
    if not Path(info["bootbayes_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"bootbayes imported from {info['bootbayes_file']}, "
                         f"not from {SRC}")
    return info


def setup(workload, work: Path) -> tuple[float, dict]:
    """One set-up: fresh-process import check plus the workload's inputs."""
    t0 = perf_counter()
    info = probe(work)
    for step in workload.setup_steps(work):
        rc, _ = run_child(cli_argv(step), work / f"{step.name}.stdout",
                          work / f"{step.name}.stderr")
        if rc != 0:
            raise BenchError(f"set-up step {step.name} exited with {rc}")
    workload.prepare(work)
    return perf_counter() - t0, info


def read_outputs(step, out: Path, result: PassResult) -> None:
    for name in step.outputs:
        path = out / name
        if path.exists():
            result.outputs[name] = path.read_bytes()
        else:
            result.problems.append(f"{name}: missing")


def run_pass(workload, work: Path, out: Path) -> PassResult:
    """One untraced pass: CLI steps in fresh processes, library steps here."""
    out.mkdir(parents=True)
    result = PassResult()
    in_process = False
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = perf_counter()
    for step in workload.steps(work, out):
        if isinstance(step, CliStep):
            result.attempted += 1
            rc, usage = run_child(cli_argv(step), out / f"{step.name}.stdout",
                                  out / f"{step.name}.stderr")
            result.cpu_s += usage.ru_utime + usage.ru_stime
            result.peak_rss_mb = max(result.peak_rss_mb, usage.ru_maxrss / 1024.0)
            if rc != 0:
                result.failed += 1
                result.problems.append(f"{step.name}: exit code {rc}")
        else:
            in_process = True
            ops = Counter()
            try:
                step.run(out, ops)
            except Exception as exc:  # a failed query is counted, not fatal
                result.failed += 1
                result.problems.append(f"{step.name}: {type(exc).__name__}: {exc}")
            result.attempted += ops.attempted
    result.wall_s = perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    result.cpu_s += (self1.ru_utime - self0.ru_utime) + (self1.ru_stime - self0.ru_stime)
    if in_process:
        result.peak_rss_mb = max(result.peak_rss_mb, self1.ru_maxrss / 1024.0)
    for step in workload.steps(work, out):
        read_outputs(step, out, result)
    return result


def run_traced_pass(workload, work: Path, out: Path, tracer) -> PassResult:
    """The same pass with CLI steps run in-process through cli.main."""
    import bootbayes.cli
    out.mkdir(parents=True)
    result = PassResult()
    import_s = 0.0
    t0 = perf_counter()
    for step in workload.steps(work, out):
        if isinstance(step, CliStep):
            result.attempted += 1
            # what a fresh process pays before main: start-up and imports
            t1 = perf_counter()
            run_child([sys.executable, "-c", "import bootbayes.cli"],
                      out / f"{step.name}.import.stdout",
                      out / f"{step.name}.import.stderr")
            import_s += perf_counter() - t1
            with open(out / f"{step.name}.stdout", "w") as so, \
                    open(out / f"{step.name}.stderr", "w") as se, \
                    contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                try:
                    rc = bootbayes.cli.main(step.argv)
                except (Exception, SystemExit) as exc:
                    rc = f"{type(exc).__name__}: {exc}"
            if rc != 0:
                result.failed += 1
                result.problems.append(f"{step.name} (traced): {rc}")
        else:
            ops = Counter()
            try:
                step.run(out, ops)
            except Exception as exc:
                result.failed += 1
                result.problems.append(f"{step.name} (traced): {exc}")
            result.attempted += ops.attempted
    result.wall_s = perf_counter() - t0
    tracer.counts["import_s"] = import_s
    for step in workload.steps(work, out):
        read_outputs(step, out, result)
    return result


def check_outputs(workload, passes: list[PassResult]) -> list[str]:
    problems = []
    first = passes[0].outputs
    if workload.seed == DEFAULT_SEED and workload.sizes == PAPER_SIZES:
        problems += check.check_against_reference(workload.name, first)
    for k, p in enumerate(passes[1:], 2):
        problems += check.check_identical(first, p.outputs, f"pass {k} output")
    return problems


def environment(info: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": info["python"], "numpy": info["numpy"], "scipy": info["scipy"],
        "blas": info["blas"], "blas_version": info["blas_version"],
        "blas_threads": info["blas_threads"],
        # removed from the program's environment: the one-thread default
        "BOOTBAYES_THREADS_outside": os.environ.get("BOOTBAYES_THREADS"),
        "commit": commit or "unknown (not a git checkout)",
    }


def check_predictions(workload: str, values: dict, paper_sizes: bool) -> list[str]:
    """Misses of predictions.json; limits relative to the pass wall time hold
    at paper sizes only."""
    table = json.loads((BENCH_DIR / "predictions.json").read_text())["metrics"]
    misses = []
    for name, pred in table.items():
        value = values.get(name)
        if value is None:
            misses.append(f"{name}: not emitted")
            continue
        if workload in pred.get("populated_on", []) and not value > 0:
            misses.append(f"{name}: expected > 0 on {workload}, got {value}")
        limit = pred.get("zero_on", {}).get(workload)
        if isinstance(limit, dict):
            limit = (limit["max_frac_of_pass"] * values["trace.pass_wall_s"]
                     if paper_sizes else None)
        if limit is not None and value > limit:
            misses.append(f"{name}: expected <= {limit:g} on {workload}, got {value}")
    return misses


def measure(workload, work: Path, seconds: float, trace: bool,
            write_reference: bool = False) -> dict:
    """Run one benchmark run and return its result record."""
    setups, setup_scales = [], []
    info = None
    clock = SpeedClock()
    for _ in range(1 if trace else SETUP_REPEATS):
        dt, info = setup(workload, work)
        setups.append(dt)
        setup_scales.append(clock.scale())
    # library steps and the traced pass run here; the import stays out of passes
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bootbayes  # noqa: F401

    load_start = os.getloadavg()
    passes = []
    min_passes = 1 if trace or write_reference else MIN_PASSES
    t_start = perf_counter()
    clock.restart()
    while len(passes) < min_passes or (
            not trace and perf_counter() - t_start < seconds):
        out = work / f"pass{len(passes) + 1}"
        passes.append(run_pass(workload, work, out))
        passes[-1].scale = clock.scale()
        if len(passes) > 2:  # keep the working set small
            shutil.rmtree(work / f"pass{len(passes) - 1}")

    record = {"env": environment(info), "setups_s": setups, "passes": passes}
    problems = [p for r in passes for p in r.problems]
    if write_reference:
        record["digests"] = check.write_reference(workload.name, passes[0].outputs)
    else:
        problems += check_outputs(workload, passes)

    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_traced_pass(workload, work, work / "traced", tracer)
        finally:
            tracer.uninstall()
        problems += traced.problems
        problems += check.check_identical(passes[0].outputs, traced.outputs,
                                          "traced output")
        values = tracer.metrics()
        attributed = sum(tracer.module_self().values()) + tracer.counts["import_s"]
        values.update({
            "cli.import_s": tracer.counts["import_s"],
            "trace.pass_wall_s": traced.wall_s,
            "trace.unattributed_s": traced.wall_s - attributed,
            "trace.overhead_frac": traced.wall_s / passes[0].wall_s - 1.0,
        })
        misses = check_predictions(workload.name, values,
                                   workload.sizes == PAPER_SIZES)
        values["trace.prediction_misses"] = len(misses)
        record.update(traced=traced, values=values, misses=misses)
        passes = passes + [traced]
    else:
        med = statistics.median
        record["values"] = {
            "wall_s": med(p.wall_s * p.scale for p in passes),
            "cpu_s": med(p.cpu_s * p.scale for p in passes),
            "peak_rss_mb": med(p.peak_rss_mb for p in passes),
            "setup_s": med(t * f for t, f in zip(setups, setup_scales)),
        }
        record["raw"] = {"wall_s": med(p.wall_s for p in passes),
                         "cpu_s": med(p.cpu_s for p in passes),
                         "setup_s": med(setups),
                         "speed_scales": [round(p.scale, 4) for p in passes]}
    record["env"]["loadavg_start"] = load_start
    record["env"]["loadavg_end"] = os.getloadavg()
    record["attempted"] = sum(p.attempted for p in passes)
    record["failed"] = sum(p.failed for p in passes)
    record["problems"] = problems
    return record


def report(workload, record, spec, trace: bool) -> dict:
    """Print the readable lines of one run; return its metrics by name."""
    values = record["values"]
    print("ENV " + json.dumps(record["env"], sort_keys=True))
    print("SHA256 " + json.dumps({name: check.digest(data) for name, data
                                  in record["passes"][0].outputs.items()},
                                 sort_keys=True))
    for problem in record["problems"]:
        print(f"PROBLEM {problem}")
    for miss in record.get("misses", []):
        print(f"PREDICTION-MISS {miss}")
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
    shown = "" if trace else " ".join(
        f"{name}={v['value']:.6g} {v['unit']}" for name, v in metrics.items())
    print(f"RESULT workload={workload.name} seed={workload.seed} "
          f"passes={[round(p.wall_s, 3) for p in record['passes']]} s "
          f"setups={[round(t, 3) for t in record['setups_s']]} s {shown} "
          f"fail_frac={record['failed'] / max(record['attempted'], 1):.6g} "
          f"({record['failed']}/{record['attempted']} operations)")
    if "raw" in record:
        print("RAW " + json.dumps(record["raw"], sort_keys=True))
    if trace:
        print("TRACE " + json.dumps(values, sort_keys=True))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--write-reference needs --seed 0 and --trace 0")
    if not (SRC / "bootbayes" / "__init__.py").is_file():
        print(f"error: no bootbayes sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]

    metrics, correct, attempted, failed = {}, True, 0, 0
    for name in names:  # one after another, never concurrently
        workload = WORKLOADS[name](args.seed)
        work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        work.mkdir(parents=True)
        try:
            record = measure(workload, work, args.seconds, bool(args.trace),
                             args.write_reference)
            run_metrics = report(workload, record, spec, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                (ROOT / ".bench_work").rmdir()
        if args.write_reference:
            print("REFERENCE " + json.dumps(record["digests"], sort_keys=True))
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in run_metrics.items()})
        correct = correct and not record["problems"] and record["failed"] == 0
        attempted += record["attempted"]
        failed += record["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
