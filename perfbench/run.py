"""The warpcode benchmark: pipeline runs users make, timed end to end.

    python3 perfbench/run.py --workload glyphs --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Each run of a workload starts ``child.py`` in a fresh interpreter, one at a
time, for as long as ``--seconds`` allows (at least ``MIN_CHILDREN``); every
child calls one pipeline runner once with the workload's options and the
given seed.  Every child's outputs are checked (see ``check_outputs``).
End-to-end times are scaled to a fixed machine speed (see ``REFERENCE_S``).
``--trace 1`` alternates untraced children with traced ones, which wrap the
pipeline's public functions (``tracer.py``), and reports the per-layer
metrics instead of the end-to-end ones.  METRICS.md defines every metric.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a results file with the same
numbers, every child's record and the environment goes to
``.bench_runs/results/`` (or ``--out``).  Exit codes: 0 when every output
check passed; 1 when a child failed (no result is printed when no child of
a workload succeeded); 2 when there are no warpcode sources to run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"

MIN_CHILDREN = 3
MIN_TRACED_CHILDREN = 4  # two untraced, two traced
WORKLOAD_DEADLINE_S = 170  # a child still running then is killed and fails

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Every child runs with one BLAS thread: on a shared box with few cores a
# second thread measures the neighbours, not the program.  The reference
# computation below runs in this process, on one thread too.
BLAS_THREADS = 1
INHERITED_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)
import numpy as np  # noqa: E402  (after the thread variables)


def default_threads():
    """The machine's default BLAS thread count: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


# Sizes are the benchmark's; every option not named keeps the pipeline
# default, so per-call shapes are the ones users run.  epochs=3 keeps the
# three-stage learning-rate schedule.  Each child takes a few seconds, so a
# run holds many of them.
WORKLOADS = {
    "glyphs": {
        "experiment": "fig4",
        "options": {"n_pairs": 2000, "epochs": 3},
        "expected_rows": {"accuracy.csv": 15},
    },
    "eigenmovie": {
        "experiment": "fig3",
        "options": {"variant": "rotate_then_shift", "n_frames": 10, "n_clips": 600, "epochs": 3},
        "expected_rows": {"loss_curve.csv": 3, "eigenmovie.csv": 64, "segments.csv": 64},
    },
    "shift-oracle": {
        "experiment": "oracle",
        "options": {"dim": 32, "snr": 10, "n_trials": 1000},
        "expected_rows": {"oracle.csv": 32},
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
TIMES = ("wall_s", "setup_s", "cpu_s")

# The shared machine's speed drifts by tens of percent over tens of seconds,
# so each child's times are scaled to a fixed machine speed: by
# REFERENCE_S / the time of a fixed computation (``reference``) timed just
# before and just after the child.  REFERENCE_S is about that computation's
# time on the reference box; it is a unit, never to be changed.
REFERENCE_S = 0.15
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((128, 128))


def reference():
    """Seconds this process takes for a fixed mix of interpreter, small-array
    and matmul work, the three kinds of work the pipelines do."""
    started = time.perf_counter()
    total = 0
    for i in range(450_000):
        total += i * i
    for _ in range(650):
        _REFERENCE_MATRIX @ _REFERENCE_MATRIX
    x = np.zeros(64)
    for _ in range(36_000):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - started


# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("dataset.gen_dot_pairs.us_per_pair", "us"),
    ("dataset.gen_rotated_glyphs.us_per_glyph", "us"),
    ("dataset.gen_videos.us_per_clip", "us"),
    ("dataset.normalize_calls_per_item", "ratio"),
    ("warp_algebra.rotate_image.calls", "count"),
    ("warp_algebra.rotate_image.us_per_call", "us"),
    ("warp_algebra.decompose.ms", "ms"),
    ("detector.build_bank.ms", "ms"),
    ("detector.n_detectors", "count"),
    ("detector.n_factors", "count"),
    ("detector.batch_pooled_responses.us_per_pair", "us"),
    ("detector.batch_pooled_responses.gflops_computed", "GFLOP"),
    ("detector.batch_pooled_responses.gbytes_computed", "GB"),
    ("patches.contrast_normalize.calls", "count"),
    ("patches.contrast_normalize.us_per_call", "us"),
    ("model.train.s", "s"),
    ("model.train.steps", "count"),
    ("model.train.final_loss", "loss"),
    ("model.step_us", "us"),
    ("model.loss_and_gradient.us.p50", "us"),
    ("model.loss_and_gradient.us.p99", "us"),
    ("model.loss_and_gradient.gflops_computed", "GFLOP"),
    ("model.loss_and_gradient.gbytes_computed", "GB"),
    ("model.update_share", "ratio"),
    ("model.image_codes.ms", "ms"),
    ("analysis.eigenmovie_consistency.ms_per_factor", "ms"),
    ("classifiers.fit_logistic_regression.ms", "ms"),
    ("classifiers.fit_logistic_regression.calls", "count"),
    ("classifiers.fit_logistic_regression.nonfinite", "count"),
    ("classifiers.knn_accuracy.us_per_query", "us"),
    ("classifiers.fit_pca.ms", "ms"),
    ("storage.write.ms", "ms"),
    ("storage.bytes_written", "bytes"),
    ("experiments.self_s", "s"),
    ("experiments.task_score", "score"),
    ("trace.overhead_pct", "%"),
]


# ---------------------------------------------------------------------------
# output checks


class CheckError(Exception):
    """A child's outputs are wrong."""


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(out_dir):
    """{file: sha256} of every artifact the manifest lists, checked against
    the files; raises ``CheckError`` on a mismatch or a missing file."""
    manifest = out_dir / "manifest.txt"
    if not manifest.is_file():
        raise CheckError("no manifest.txt")
    digests = {}
    for line in manifest.read_text().splitlines():
        if line.startswith("sha256:"):
            name, _, digest = line[len("sha256:") :].partition("=")
            path = out_dir / name
            if not path.is_file() or _sha256(path) != digest:
                raise CheckError(f"manifest digest of {name} does not match the file")
            digests[name] = digest
    if not digests:
        raise CheckError("manifest lists no artifacts")
    return digests


def check_tables(out_dir, expected_rows):
    """Every expected CSV exists with its row count; every number is finite."""
    for name, rows in expected_rows.items():
        path = out_dir / name
        if not path.is_file():
            raise CheckError(f"missing {name}")
        lines = path.read_text().splitlines()
        if len(lines) - 1 != rows:
            raise CheckError(f"{name} has {len(lines) - 1} rows, expected {rows}")
    for path in out_dir.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    raise CheckError(f"{path.name} holds a non-finite value {cell}")


def check_outputs(spec, record, out_dir, first):
    """Raise ``CheckError`` unless one child's outputs are right.

    ``first`` maps "untraced" to the first untraced child's artifact digests
    of this workload and seed (set here when absent).  CSVs must match it
    byte for byte, and a traced child's every artifact must too.
    """
    digests = artifact_digests(out_dir)
    check_tables(out_dir, spec["expected_rows"])
    losses = record["losses"]
    if spec["experiment"] != "oracle" and not (losses and all(map(math.isfinite, losses))):
        raise CheckError(f"missing or non-finite training loss {losses}")
    if not math.isfinite(record["task_score"]):
        raise CheckError("non-finite task score")
    if record["unrestored"]:
        raise CheckError(f"tracer left names rebound: {record['unrestored']}")
    if record["traced"]:
        compared, kind = digests, "traced run's artifact"
    else:
        first.setdefault("untraced", digests)
        compared = {k: v for k, v in digests.items() if k.endswith(".csv")}
        kind = "rerun's CSV"
    reference = first.get("untraced", {})
    for name, digest in compared.items():
        if reference.get(name) != digest:
            raise CheckError(f"{kind} {name} differs from the first untraced run")


# ---------------------------------------------------------------------------
# running children


def child_environment(threads):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_child(spec, seed, traced, index, threads, run_dir, timeout):
    """Start one child, wait for it, return its record and output directory;
    the record holds ``error`` when the child failed."""
    work = run_dir / f"{index:03d}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    out_dir = work / "out"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        str(ROOT),
        str(result_path),
        spec["experiment"],
        str(out_dir),
        str(seed),
        "1" if traced else "0",
        json.dumps(spec["options"]),
    ]
    reference_before = reference()
    spawned = time.monotonic()
    with open(work / "stderr.txt", "wb") as stderr:
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=child_environment(threads),
            stdin=subprocess.DEVNULL,
            stdout=stderr,
            stderr=subprocess.STDOUT,
        )
        try:
            code = process.wait(timeout=timeout)
        except BaseException:
            process.kill()
            process.wait()
            raise
    elapsed = time.monotonic() - spawned
    record = {
        "index": index,
        "traced": traced,
        "child_s": elapsed,
        "exit_code": code,
        "reference_s": (reference_before + reference()) / 2,
    }
    if code != 0 or not result_path.is_file():
        tail = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        record["error"] = f"exit code {code}: " + " | ".join(tail)
        return record, out_dir
    record.update(json.loads(result_path.read_text()))
    record["setup_s"] = record["called"] - spawned
    return record, out_dir


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    threads = BLAS_THREADS
    run_dir = RUNS / f"{name}-s{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    minimum = MIN_TRACED_CHILDREN if trace else MIN_CHILDREN
    records, first, slots = [], {}, []
    started = time.monotonic()
    while True:
        slot_started = time.monotonic()
        index = len(records)
        traced = bool(trace) and index % 2 == 1
        timeout = WORKLOAD_DEADLINE_S - (time.monotonic() - started)
        try:
            record, out_dir = run_child(spec, seed, traced, index, threads, run_dir, timeout)
        except subprocess.TimeoutExpired:
            record = {"index": index, "traced": traced, "error": "timed out"}
        if "error" not in record:
            try:
                check_outputs(spec, record, out_dir, first)
            except CheckError as exc:
                record["error"] = f"output check: {exc}"
        records.append(record)
        slots.append(time.monotonic() - slot_started)
        if len(records) >= minimum:
            if all("error" in r for r in records):
                break
            if time.monotonic() - started + statistics.median(slots) > seconds:
                break
    shutil.rmtree(run_dir, ignore_errors=True)
    return summarize(name, spec, threads, records, trace, seconds)


def _median(values):
    return statistics.median(values) if values else None


def summarize(name, spec, threads, records, trace, seconds):
    good = [r for r in records if "error" not in r]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics = {}
    if trace:
        if traced and untraced:
            for metric, unit in PER_LAYER:
                if metric == "trace.overhead_pct":
                    value = 100.0 * (
                        _median([r["wall_s"] for r in traced])
                        / _median([r["wall_s"] for r in untraced])
                        - 1.0
                    )
                elif metric == "experiments.task_score":
                    value = _median([r["task_score"] for r in traced])
                else:
                    value = _median([r["layers"][metric] for r in traced])
                metrics[metric] = {"value": value, "unit": unit}
    elif untraced:
        for metric, unit in END_TO_END.items():
            if metric in TIMES:
                value = _median([r[metric] * REFERENCE_S / r["reference_s"] for r in untraced])
            else:
                value = _median([r[metric] for r in untraced])
            metrics[metric] = {"value": value, "unit": unit}
    failed = len(records) - len(good)
    return {
        "workload": name,
        "experiment": spec["experiment"],
        "options": spec["options"],
        "blas_threads": threads,
        "seconds": seconds,
        "attempted": len(records),
        "failed": failed,
        "failed_fraction": failed / len(records),
        "n_untraced": len(untraced),
        "n_traced": len(traced),
        "measured_times": {m: _median([r[m] for r in untraced]) for m in TIMES},
        "reference_s": _median([r["reference_s"] for r in good]),
        "final_loss": _median([r["losses"][-1] for r in good if r["losses"]]),
        "task_score": _median([r["task_score"] for r in good]),
        "metrics": metrics,
        "library_environment": good[0]["environment"] if good else None,
        "children": [
            {k: v for k, v in r.items() if k not in ("environment", "losses")} for r in records
        ],
    }


# ---------------------------------------------------------------------------
# environment and reporting


def environment(seed):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        git = describe.stdout.strip() if describe.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git = None
    return {
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "nproc": os.cpu_count(),
        "cpus_usable": default_threads(),
        "cgroup_cpu_max": read("/sys/fs/cgroup/cpu.max"),
        "thread_env_inherited": INHERITED_THREAD_ENV,
        "git_describe": git,
        "seed": seed,
    }


def self_test():
    """Run the flop/byte formula self-test in its own interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "flops.py")],
        cwd=ROOT,
        env=child_environment(1),
        capture_output=True,
        text=True,
        timeout=WORKLOAD_DEADLINE_S,
    )
    return done.returncode == 0, (done.stdout + done.stderr).strip()


def print_summary(summary, trace):
    name = summary["workload"]
    print(
        f"{name}: {summary['experiment']} {summary['options']} blas_threads="
        f"{summary['blas_threads']} attempted={summary['attempted']} "
        f"failed={summary['failed']} failed_fraction={summary['failed_fraction']:.3f}"
    )
    for child in summary["children"]:
        if "error" in child:
            print(f"  child {child['index']} FAILED: {child['error']}")
    n = summary["n_traced"] if trace else summary["n_untraced"]
    for metric, entry in summary["metrics"].items():
        scaled = ", at the reference speed" if metric in TIMES and not trace else ""
        print(f"  {name} {metric} = {entry['value']:.6g} {entry['unit']} (median of n={n}{scaled})")
    if not trace and summary["n_untraced"]:
        for metric, value in summary["measured_times"].items():
            print(f"  {name} {metric} = {value:.6g} s (median of n={n}, as measured; not gated)")
        print(f"  {name} reference_s = {summary['reference_s']:.6g} s (median; not gated)")
    if summary["final_loss"] is not None:
        print(f"  {name} final_loss = {summary['final_loss']:.6g} (reported, not gated)")
    if summary["task_score"] is not None:
        print(f"  {name} task_score = {summary['task_score']:.6g} (reported, not gated)")


def main(argv=None):
    parser = argparse.ArgumentParser(description="warpcode pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="results file (default under .bench_runs/results)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "warpcode" / "__init__.py").is_file():
        print(f"no warpcode sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    problems = []
    if args.trace:
        passed, text = self_test()
        print(text)
        if not passed:
            problems.append("flop/byte formula self-test failed")

    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, args.trace)
        print_summary(summary, args.trace)
        summaries.append(summary)
    if any(not s["metrics"] for s in summaries):
        print("no successful run to report", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {
            f"{s['workload']}.{metric}": entry for s in summaries for metric, entry in s["metrics"].items()
        }
    correct = failed == 0 and not problems
    results = {
        "command": ["python3", "perfbench/run.py"] + (argv if argv is not None else sys.argv[1:]),
        "environment": environment(args.seed),
        "correct": correct,
        "problems": problems,
        "workloads": summaries,
    }
    out = args.out or RUNS / "results" / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
