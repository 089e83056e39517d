"""Training benchmark of greensim_rl: one command, every metric with its unit.

Run from the repository root:

    python3 perfbench/run.py --workload posterior_pg --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced runs.  Every
time is normalised by the reference loop of ``speed.py``, measured on the
same CPU at the same moment.  This takes out the host contention of a
shared machine.  The raw times are printed as well.

* ``setup_s`` -- median time for a fresh interpreter to become ready to
  train (see ``setup_probe.py``), over several probes;
* ``wall_s`` -- median wall time of one unit of work (a training macro, or
  the whole comparison grid for ``study_grid``);
* ``iter_ms.p50`` / ``iter_ms.p90`` -- per-iteration latency, the gaps
  between successive returns of the benchmark's ``eval_fn``.  The grid
  hides its ``eval_fn`` inside the pool, so for ``study_grid`` these are
  the percentiles over repeats of grid wall time per trained iteration;
* ``success_rate`` -- macros or grid cells that finished, over those
  attempted (a ``TrainingError`` or an entry in ``run_comparison``'s
  errors is a failure; failures are counted, never fatal).

The eval reward (mean true-model eval reward over the last window) is
printed with the digest of the eval curves.  It is deterministic, so a
speed-up must leave it bit-identical; it is not an end-to-end metric
because it varies far more from seed to seed than any bound allows.

``--trace 1`` reports the per-layer metrics of ``spans.layer_metrics``
from a traced run, after an untraced pass in a child interpreter that
never had a wrapper installed, and checks that both passes give identical
eval curves and that the trace saw every call the training loop makes.

The output is the environment, one line per metric, and as the last line
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when any output check fails: non-finite
curves, curves that differ between repeats or between traced and untraced
passes, wrong set-up output, or missing trace calls.  Without the package
source beside the benchmark it exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5          # fresh interpreters per run; setup_s is their median
CHILD_TIMEOUT_S = 150.0   # a child that runs longer is killed and the run fails
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the tree may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "pool_workers": threads,
        "git_commit": _git_commit(),
    }


def _run_child(cmd: list[str]) -> tuple[str, float, int]:
    """Run ``cmd``; return its first stdout line, the time until that line, its exit code."""
    started = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            until_first = time.perf_counter() - started
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    return first + rest, until_first, proc.returncode


def measure_setup(seed: int) -> tuple[list[float], list[float], list[str]]:
    """Raw and normalised times of fresh interpreters to become ready to train."""
    import setup_probe
    import speed

    want = str(setup_probe.expected_observations())
    raw, norm, problems = [], [], []
    for _ in range(SETUP_PROBES):
        out, until_ready, code = _run_child([sys.executable, str(HERE / "setup_probe.py"), str(seed)])
        fields = out.split()
        if code != 0 or len(fields) != 4 or fields[:2] != ["ready", want]:
            problems.append(f"set-up probe exited {code} with {out.strip()!r}, expected 'ready {want} ...'")
            continue
        loop_cpu, loop_wall = float(fields[2]), float(fields[3])
        raw.append(until_ready)
        norm.append(speed.normalise(until_ready - loop_wall, loop_cpu))
    return raw, norm, problems


def untraced_units(wl, seed: int, seconds: float) -> list:
    """Repeat the workload untraced; the grid runs on the pool, as ``greensim compare`` does."""
    import setup_probe
    import workloads

    if not wl.grid:
        setup_probe.ready_to_train(seed)  # in-process set-up is paid once per process: untimed
    return workloads.repeat(lambda: workloads.run_unit(wl, seed, workloads.pool_workers()), seconds)


def _median_wall(units) -> float:
    """Median normalised wall time of the units that did not fail (all, if every one failed)."""
    ok = [u for u in units if u.failed == 0] or units
    return statistics.median(u.norm_wall_s for u in ok)


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    import numpy as np
    import workloads

    setup_raw, setup_norm, problems = measure_setup(seed)
    units = untraced_units(wl, seed, seconds)
    problems += workloads.check_repeats(units)
    if wl.grid:
        iterations = len(wl.grid) * wl.macros * wl.config(seed).total_iterations
        gaps = [u.norm_wall_s * 1e3 / iterations for u in units]
    else:
        gaps = [g for u in units if u.failed == 0 for g in u.gaps_ms]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "setup_s": (statistics.median(setup_norm) if setup_norm else 0.0, "s"),
        "wall_s": (_median_wall(units), "s"),
        "iter_ms.p50": (float(np.percentile(gaps, 50)) if gaps else 0.0, "ms"),
        "iter_ms.p90": (float(np.percentile(gaps, 90)) if gaps else 0.0, "ms"),
        "success_rate": (1.0 - failed / attempted, "ratio"),
    }
    print(f"set-up probes, raw s: {[round(t, 4) for t in setup_raw]}")
    print(f"unit walls, raw s: {[round(u.wall_s, 4) for u in units]}")
    print(f"reference loop, ms: {[round(u.kernel_s * 1e3, 4) for u in units]}; iteration samples {len(gaps)}")
    print(f"eval_reward {workloads.eval_reward(wl, units)!r} (eval curves sha256 {units[0].digest()})")
    return metrics, attempted, failed, problems


def traced(wl, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    import setup_probe
    import spans
    import speed
    import workloads

    # The untraced reference runs first, in an interpreter that never had a wrapper.
    out, _, code = _run_child(
        [sys.executable, str(HERE / "run.py"), "--workload", wl.name, "--seed", str(seed),
         "--seconds", str(seconds / 2), "--trace", "0", "--untraced-pass"]
    )
    if code != 0:
        raise RuntimeError(f"untraced pass exited with status {code}")
    ref = json.loads(out.strip().splitlines()[-1])
    problems = list(ref["problems"])

    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            setup_probe.ready_to_train(seed)

        def unit():
            with tracer.span("unit"):
                return workloads.run_unit(wl, seed, None)

        units = workloads.repeat(unit, seconds / 2)
    finally:
        tracer.uninstall()

    problems += workloads.check_repeats(units)
    digests = {u.digest() for u in units if u.failed == 0} | set(ref["digests"])
    if len(digests) > 1:
        problems.append("traced and untraced passes give different eval curves")
    table = spans.SpanTable(tracer.spans)
    problems += table.call_count_problems()

    raw_wall = statistics.median(u.wall_s - u.loop_wall_s for u in units)
    kernel_s = statistics.mean(u.kernel_s for u in units)
    m = spans.layer_metrics(table)
    m["bayes.mh_sample.share"] = (m["bayes.mh_sample.self_s"][0] / raw_wall, "ratio")
    # Inclusive: the policy and environment calls the mixture makes are its own child spans.
    m["estimators.mlr_gradient.share"] = (m["estimators.mlr_gradient.total_s"][0] / raw_wall, "ratio")
    m["trainer.eval_reward"] = (workloads.eval_reward(wl, units), "reward")
    macro_walls = speed.normalise(table.total_inclusive("trainer.train"), kernel_s)
    m["harness.pool_speedup"] = (macro_walls / ref["pooled_wall_s"] if wl.grid else 0.0, "ratio")
    m["trace.overhead"] = (_median_wall(units) / ref["serial_wall_s"] - 1.0, "ratio")
    print(f"traced units {len(units)}, spans {len(tracer.spans)}, traced raw wall {raw_wall:.4f} s")
    attempted = sum(u.attempted for u in units) + ref["attempted"]
    failed = sum(u.failed for u in units) + ref["failed"]
    return m, attempted, failed, problems


def _untraced_child(wl, seed: int, seconds: float) -> int:
    """The untraced pass of a traced run; prints its figures as one JSON line."""
    import setup_probe
    import workloads

    units = untraced_units(wl, seed, seconds)
    serial = units
    if wl.grid:  # trace.overhead compares the traced serial grid with an untraced serial one
        setup_probe.ready_to_train(seed)
        serial = [workloads.run_unit(wl, seed, None)]
    both = units + serial if wl.grid else units
    result = {
        "pooled_wall_s": _median_wall(units),
        "serial_wall_s": _median_wall(serial),
        "digests": sorted({u.digest() for u in both if u.failed == 0}),
        "problems": workloads.check_repeats(both),
        "attempted": sum(u.attempted for u in both),
        "failed": sum(u.failed for u in both),
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "greensim_rl" / "__init__.py").is_file():
        print(f"greensim_rl source not found under {SRC.name}/ beside the benchmark", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.untraced_pass:
        return _untraced_child(wl, args.seed, args.seconds)

    print("env " + json.dumps(environment(workloads.pool_workers()), sort_keys=True))
    print(f"workload {wl.name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {wl.why}")
    run = traced if args.trace else end_to_end
    metrics, attempted, failed, problems = run(wl, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
