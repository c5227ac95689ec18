"""One pipeline run in a fresh interpreter; started by ``run.py``.

Usage: ``child.py ROOT RESULT_JSON EXPERIMENT OUT_DIR SEED TRACE OVERRIDES_JSON``

Imports ``warpcode`` from ``ROOT/src``, builds the experiment config, calls
the runner once and writes what it measured to ``RESULT_JSON``.  With
``TRACE`` 1 every name in ``tracer.REBINDINGS`` is wrapped for the run and
restored afterwards.  Without it only ``experiments.train`` is wrapped, to
read the epoch losses, which ``run_fig4`` does not return.
"""

import json
import resource
import sys
import time
from pathlib import Path


def _blas_threads(numpy):
    """Thread count the bundled OpenBLAS reports, or None if unavailable."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def library_environment():
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_effective": _blas_threads(numpy),
    }


def task_score(experiment, report):
    if experiment == "fig4":
        sizes = report.accuracies["pooled_logreg"]
        return sizes[max(sizes)]
    if experiment == "fig3":
        return report.quartile_medians()[0]
    return report.accuracy


def main(argv):
    started = time.monotonic()
    root, result_path, experiment, out_dir, seed, trace, overrides = argv
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import warpcode
    import warpcode.dataset
    import warpcode.experiments as experiments
    import warpcode.model

    import tracer as tracing

    if Path(warpcode.__file__).resolve().parent != (src / "warpcode").resolve():
        raise SystemExit(f"warpcode imported from {warpcode.__file__}, not {src}")
    cfg = experiments.ExperimentConfig.build(
        experiment, out_dir, seed=int(seed), overrides=json.loads(overrides)
    )
    runner = {
        "fig3": experiments.run_fig3,
        "fig4": experiments.run_fig4,
        "oracle": experiments.run_detector_oracle,
    }[experiment]
    modules = {
        name: sys.modules[name]
        for name in ("warpcode.experiments", "warpcode.dataset", "warpcode.model")
    }
    traced = trace == "1"
    rebindings = tracing.REBINDINGS if traced else [
        entry for entry in tracing.REBINDINGS if entry[2] == "model.train"
    ]
    tracer = tracing.Tracer(modules, rebindings)
    tracer.install()
    run = tracer.wrap("experiments.run", runner)

    usage_before = resource.getrusage(resource.RUSAGE_SELF)
    called = time.monotonic()
    t0 = time.perf_counter()
    report = run(cfg)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    unrestored = tracer.uninstall()

    losses = tracer.losses()
    result = {
        "started": started,
        "called": called,
        "wall_s": wall,
        "cpu_s": (usage.ru_utime - usage_before.ru_utime)
        + (usage.ru_stime - usage_before.ru_stime),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "losses": losses,
        "task_score": float(task_score(experiment, report)),
        "unrestored": unrestored,
        "environment": library_environment(),
    }
    if traced:
        result["layers"] = tracing.layer_metrics(tracer)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
