"""Spans around the public functions a pipeline calls, from outside the program.

``Tracer.install`` rebinds each name in its list (all of ``REBINDINGS`` in a
traced run) to a wrapper that records a span (name, start, end, parent span)
and passes the call's result through untouched; ``Tracer.uninstall`` puts
every original back.  The per-layer metrics are derived from the spans
afterwards, in ``layer_metrics``.  Nothing under ``src/`` knows about the
tracer.
"""

import os
import time

import numpy as np

import flops

# (module, attribute, span name).  The pipelines look these names up in the
# module named here at call time, so rebinding them there intercepts every
# call the runners make.
REBINDINGS = [
    ("warpcode.experiments", "gen_dot_pairs", "dataset.gen_dot_pairs"),
    ("warpcode.experiments", "gen_rotated_glyphs", "dataset.gen_rotated_glyphs"),
    ("warpcode.experiments", "gen_videos", "dataset.gen_videos"),
    ("warpcode.dataset", "rotate_image", "warp_algebra.rotate_image"),
    ("warpcode.dataset", "contrast_normalize", "dataset.contrast_normalize"),
    ("warpcode.experiments", "contrast_normalize", "patches.contrast_normalize"),
    ("warpcode.experiments", "decompose", "warp_algebra.decompose"),
    ("warpcode.experiments", "build_bank_from_warp_family", "detector.build_bank"),
    ("warpcode.experiments", "batch_pooled_responses", "detector.batch_pooled_responses"),
    ("warpcode.experiments", "train", "model.train"),
    ("warpcode.model", "loss_and_gradient", "model.loss_and_gradient"),
    ("warpcode.experiments", "image_codes", "model.image_codes"),
    ("warpcode.experiments", "eigenmovie_consistency", "analysis.eigenmovie_consistency"),
    ("warpcode.experiments", "fit_logistic_regression", "classifiers.fit_logistic_regression"),
    ("warpcode.experiments", "knn_accuracy", "classifiers.knn_accuracy"),
    ("warpcode.experiments", "fit_pca", "classifiers.fit_pca"),
    ("warpcode.experiments", "write_csv", "storage.write_csv"),
    ("warpcode.experiments", "export_filter_grid", "storage.export_filter_grid"),
    ("warpcode.experiments", "write_manifest", "storage.write_manifest"),
]

STORAGE_SPANS = ("storage.write_csv", "storage.export_filter_grid", "storage.write_manifest")


def _symmetric(args, kwargs):
    return kwargs.get("symmetric", args[3] if len(args) > 3 else False)


def _kernel_info(args, kwargs, result):
    model, xs = args[0], args[1]
    f, b = flops.model_call_counts(model, len(xs), _symmetric(args, kwargs))
    return {"flops": f, "bytes": b}


def _pooled_info(args, kwargs, result):
    f, b = flops.bank_call_counts(args[0], len(args[1]))
    return {"rows": len(args[1]), "flops": f, "bytes": b}


def _finite(values):
    return bool(np.isfinite(values).all())


# Per span name: what to keep of a call's arguments and result.  Spans keep
# these few numbers only, so tracing holds no arrays alive.
RECORDERS = {
    "dataset.gen_dot_pairs": lambda a, k, r: {"patches": 2 * len(r), "items": len(r)},
    "dataset.gen_rotated_glyphs": lambda a, k, r: {"patches": len(r), "items": len(r)},
    "dataset.gen_videos": lambda a, k, r: {"patches": len(r) * r.n_frames, "items": len(r)},
    "model.loss_and_gradient": _kernel_info,
    "detector.batch_pooled_responses": _pooled_info,
    "detector.build_bank": lambda a, k, r: {
        "detectors": r.n_detectors,
        "factors": r.input_filters.shape[1],
    },
    "model.train": lambda a, k, r: {"losses": r.epoch_losses.tolist()},
    "classifiers.fit_logistic_regression": lambda a, k, r: {
        "nonfinite": not (_finite(r.weights) and _finite(r.intercept))
    },
    "classifiers.knn_accuracy": lambda a, k, r: {"queries": len(a[2])},
    "storage.write_csv": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "storage.export_filter_grid": lambda a, k, r: {"bytes": os.path.getsize(a[2])},
    "storage.write_manifest": lambda a, k, r: {"bytes": os.path.getsize(r)},
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder around the names in ``rebindings``."""

    def __init__(self, modules, rebindings=REBINDINGS):
        self.modules = modules
        self.rebindings = rebindings
        self.spans = []
        self._stack = []
        self._originals = []

    def wrap(self, name, function):
        record = RECORDERS.get(name)

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if record is not None:
                span.info = record(args, kwargs, result)
            return result

        return traced

    def install(self):
        for module, attribute, name in self.rebindings:
            original = getattr(self.modules[module], attribute)
            self._originals.append((module, attribute, original))
            setattr(self.modules[module], attribute, self.wrap(name, original))

    def uninstall(self):
        """Restore every rebound name; return the ones that did not come back."""
        for module, attribute, original in reversed(self._originals):
            setattr(self.modules[module], attribute, original)
        return [
            f"{module}.{attribute}"
            for module, attribute, original in self._originals
            if getattr(self.modules[module], attribute) is not original
        ]

    def losses(self):
        """Epoch losses of every ``train`` call, in call order."""
        return [x for s in self.spans if s.name == "model.train" for x in s.info["losses"]]


def _percentile(sorted_values, share):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[index]


def layer_metrics(tracer):
    """Per-layer metrics of one traced pipeline run (see METRICS.md); the
    runner itself must have been wrapped as the span ``experiments.run``."""
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def group(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(span.seconds for span in group(name))

    def total(name, key):
        return sum(span.info[key] for span in group(name))

    def per(amount, count, scale=1.0):
        return amount * scale / count if count else 0.0

    generators = ("dataset.gen_dot_pairs", "dataset.gen_rotated_glyphs", "dataset.gen_videos")
    normalize = group("dataset.contrast_normalize") + group("patches.contrast_normalize")
    kernel_us = sorted(span.seconds * 1e6 for span in group("model.loss_and_gradient"))
    steps = len(kernel_us)
    banks = group("detector.build_bank")
    train_s = seconds("model.train")
    losses = tracer.losses()
    logreg = group("classifiers.fit_logistic_regression")
    (runner,) = group("experiments.run")
    children = sum(span.seconds for span in tracer.spans if span.parent is runner)

    return {
        "dataset.gen_dot_pairs.us_per_pair": per(
            seconds(generators[0]), total(generators[0], "items"), 1e6
        ),
        "dataset.gen_rotated_glyphs.us_per_glyph": per(
            seconds(generators[1]), total(generators[1], "items"), 1e6
        ),
        "dataset.gen_videos.us_per_clip": per(
            seconds(generators[2]), total(generators[2], "items"), 1e6
        ),
        "dataset.normalize_calls_per_item": per(
            len(group("dataset.contrast_normalize")),
            sum(total(name, "patches") for name in generators),
        ),
        "warp_algebra.rotate_image.calls": len(group("warp_algebra.rotate_image")),
        "warp_algebra.rotate_image.us_per_call": per(
            seconds("warp_algebra.rotate_image"), len(group("warp_algebra.rotate_image")), 1e6
        ),
        "warp_algebra.decompose.ms": seconds("warp_algebra.decompose") * 1e3,
        "detector.build_bank.ms": seconds("detector.build_bank") * 1e3,
        "detector.n_detectors": banks[-1].info["detectors"] if banks else 0,
        "detector.n_factors": banks[-1].info["factors"] if banks else 0,
        "detector.batch_pooled_responses.us_per_pair": per(
            seconds("detector.batch_pooled_responses"),
            total("detector.batch_pooled_responses", "rows"),
            1e6,
        ),
        "detector.batch_pooled_responses.gflops_computed": total(
            "detector.batch_pooled_responses", "flops"
        )
        / 1e9,
        "detector.batch_pooled_responses.gbytes_computed": total(
            "detector.batch_pooled_responses", "bytes"
        )
        / 1e9,
        "patches.contrast_normalize.calls": len(normalize),
        "patches.contrast_normalize.us_per_call": per(
            sum(span.seconds for span in normalize), len(normalize), 1e6
        ),
        "model.train.s": train_s,
        "model.train.steps": steps,
        "model.train.final_loss": losses[-1] if losses else 0.0,
        "model.step_us": per(train_s, steps, 1e6),
        "model.loss_and_gradient.us.p50": _percentile(kernel_us, 0.5),
        "model.loss_and_gradient.us.p99": _percentile(kernel_us, 0.99),
        "model.loss_and_gradient.gflops_computed": total("model.loss_and_gradient", "flops")
        / 1e9,
        "model.loss_and_gradient.gbytes_computed": total("model.loss_and_gradient", "bytes")
        / 1e9,
        "model.update_share": 1.0 - sum(kernel_us) / 1e6 / train_s if train_s else 0.0,
        "model.image_codes.ms": seconds("model.image_codes") * 1e3,
        "analysis.eigenmovie_consistency.ms_per_factor": per(
            seconds("analysis.eigenmovie_consistency"),
            len(group("analysis.eigenmovie_consistency")),
            1e3,
        ),
        "classifiers.fit_logistic_regression.ms": seconds(
            "classifiers.fit_logistic_regression"
        )
        * 1e3,
        "classifiers.fit_logistic_regression.calls": len(logreg),
        "classifiers.fit_logistic_regression.nonfinite": sum(
            span.info["nonfinite"] for span in logreg
        ),
        "classifiers.knn_accuracy.us_per_query": per(
            seconds("classifiers.knn_accuracy"), total("classifiers.knn_accuracy", "queries"), 1e6
        ),
        "classifiers.fit_pca.ms": seconds("classifiers.fit_pca") * 1e3,
        "storage.write.ms": sum(seconds(name) for name in STORAGE_SPANS) * 1e3,
        "storage.bytes_written": sum(total(name, "bytes") for name in STORAGE_SPANS),
        "experiments.self_s": runner.seconds - children,
    }
