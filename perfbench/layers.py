"""Per-layer metrics: aggregates of one traced pass plus a kernel table.

The kernel table times single calls at fixed inputs (generated from a
constant seed, not the workload seed), untraced, and reports the median
over repeats. It covers the quanvolution's depth dependence, which no
workload sweeps.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from quanvaudio import audio, corrupt, nn, qsim, quanv, toydata

from tracer import TRACED_MODULES, TraceSummary

TEMPLATES = ("BEQC", "SEQC", "RQC")
KERNEL_DEPTHS = (1, 10, 50)
NN_LAYERS = ("Conv2d", "MaxPool", "ReLU", "Linear", "Tanh")


def trace_tags_and_hooks():
    """Span labels and exact work counters recorded while tracing."""

    def gate_amp_ops(counters, args, kwargs, result):
        spec, states = args
        counters["qsim.gate_amp_ops"] += states.shape[0] * len(spec.gates) * 2 ** spec.n_qubits

    def saved_bytes(counters, args, kwargs, result):
        counters["tensorio.save_tensor.bytes"] += os.path.getsize(args[0])

    def epochs(counters, args, kwargs, result):
        counters["nn.train.epochs"] += len(result.history)

    tags = {
        "quanv.quanv_forward": lambda gram, spec: spec.template.value,
        "corrupt.apply": lambda spec, w: spec.kind.value,
        "harness.FeaturePipeline.corrupted_gram": lambda self, path, spec: (
            f"{path}|{spec.kind.value}|{spec.severity_index}|{spec.seed}"
        ),
    }
    hooks = {
        "qsim.run_circuit_batch": gate_amp_ops,
        "tensorio.save_tensor": saved_bytes,
        "nn.train": epochs,
    }
    return tags, hooks


# span name -> the aggregates reported for it
SPAN_METRICS = {
    "quanv.quanv_forward": ("calls", "busy_s", "p50_ms", "self_s"),
    "qsim.run_circuit_batch": ("calls", "busy_s"),
    "nn.train": ("calls", "busy_s"),
    "nn.loss_and_grads": ("calls", "busy_s", "p50_ms"),
    "nn.Adam.step": ("calls", "busy_s"),
    "nn.evaluate": ("calls", "busy_s"),
    **{f"nn.{layer}.{phase}": ("busy_s",)
       for layer in NN_LAYERS for phase in ("forward", "backward")},
    "dsp.time_stretch": ("calls", "busy_s", "p50_ms"),
    "dsp.resample_ratio": ("busy_s",),
    "audio.log_mel": ("calls", "busy_s", "p50_ms"),
    "audio.load_wav": ("busy_s",),
    "audio.write_wav": ("busy_s",),
    "tensorio.save_tensor": ("calls", "busy_s"),
    "tensorio.load_tensor": ("calls", "busy_s"),
    "harness.run_experiment": ("self_s",),
    "harness.write_reports": ("busy_s",),
    "cli.cmd_corrupt": ("busy_s",),
    "cli.cmd_featurize": ("busy_s",),
    "corrupt.drawn_parameter": ("calls",),
}


def cache_counts(t: TraceSummary) -> dict[str, int]:
    """A cache hit is a ``load_tensor`` call through ``harness``'s binding,
    a miss a ``save_tensor`` call through it."""
    return {"harness.cache.hits": t.binding_calls[("tensorio.load_tensor", "harness")],
            "harness.cache.misses": t.binding_calls[("tensorio.save_tensor", "harness")]}


def traced_counts(t: TraceSummary) -> dict[str, int]:
    """Call counts under the names ``workloads.*.expected_calls`` uses."""
    return {**t.calls, **cache_counts(t)}


def trace_metrics(t: TraceSummary) -> dict[str, tuple[float, str]]:
    aggregate = {
        "calls": lambda name: (t.calls[name], "count"),
        "busy_s": lambda name: (t.busy[name], "s"),
        "self_s": lambda name: (t.self_time[name], "s"),
        "p50_ms": lambda name: (t.p50_ms(name), "ms"),
    }
    m = {f"{name}.{agg}": aggregate[agg](name)
         for name, aggs in SPAN_METRICS.items() for agg in aggs}
    for tpl in TEMPLATES:
        m[f"quanv.quanv_forward.{tpl}.busy_s"] = (t.tag_busy[("quanv.quanv_forward", tpl)], "s")
    for kind in corrupt.CorruptionKind:
        key = ("corrupt.apply", kind.value)
        m[f"corrupt.apply.{kind.value}.calls"] = (t.tag_calls[key], "count")
        m[f"corrupt.apply.{kind.value}.busy_s"] = (t.tag_busy[key], "s")
    g = "harness.FeaturePipeline.corrupted_gram"
    unique = sum(1 for name, _ in t.tag_calls if name == g)
    m["harness.corrupted_gram.calls"] = (t.calls[g], "count")
    m["harness.corrupted_gram.unique"] = (unique, "count")
    m["harness.corrupted_gram.redundancy"] = (t.calls[g] / unique if unique else 0.0, "ratio")
    m.update((name, (n, "count")) for name, n in cache_counts(t).items())
    m["qsim.gate_amp_ops"] = (t.counters["qsim.gate_amp_ops"], "count")
    m["nn.train.epochs"] = (t.counters["nn.train.epochs"], "count")
    m["tensorio.save_tensor.bytes"] = (t.counters["tensorio.save_tensor.bytes"], "bytes")
    for mod in TRACED_MODULES:
        m[f"{mod}.self_s"] = (t.module_self[mod], "s")
    return m


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _timed_backward_ms(layer, x, grad, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        layer.forward(x)  # refreshes the activations backward reads
        start = time.perf_counter()
        layer.backward(grad)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def kernel_table() -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(0)
    waves = [
        audio.Waveform(toydata.clip_waveform(label, rng), toydata.SAMPLE_RATE)
        for _ in range(10)
        for label in ("low", "high")
    ]
    m = {"kernel.log_mel.ms": (_median_ms(lambda: audio.log_mel(waves[0]), 21), "ms")}
    for kind in corrupt.CorruptionKind:
        spec = corrupt.CorruptionSpec(kind, 6, seed=1)
        m[f"kernel.corrupt.{kind.value}.s6.ms"] = (
            _median_ms(lambda: corrupt.apply(spec, waves[0]), 9), "ms")

    grams = np.stack([audio.log_mel(w).values for w in waves])  # (20, 40, 128)
    for tpl in TEMPLATES:
        for depth in KERNEL_DEPTHS:
            circuit = qsim.build_circuit(tpl, 4, depth, 1234)
            m[f"kernel.quanv.{tpl}.d{depth}.ms"] = (
                _median_ms(lambda: quanv.quanv_forward(grams[0], circuit), 5 if depth == 1 else 3),
                "ms")

    model = nn.build_model("cnn_base", 2, seed=0)
    x = grams[:, None]
    acts = [x]
    for layer in model.layers:
        acts.append(layer.forward(acts[-1]))
    grad_rng = np.random.default_rng(1)
    # front conv, 3x3 conv, the ReLU after it, MaxPool and the first Linear
    for label, i in (("conv_front", 0), ("conv3x3", 2), ("relu", 3), ("maxpool", 4),
                     ("linear", 6)):
        layer = model.layers[i]
        grad = grad_rng.normal(size=acts[i + 1].shape)
        m[f"kernel.nn.{label}.fwd.b20.ms"] = (
            _median_ms(lambda: layer.forward(acts[i]), 11), "ms")
        m[f"kernel.nn.{label}.bwd.b20.ms"] = (
            _timed_backward_ms(layer, acts[i], grad, 11), "ms")

    labels = np.arange(x.shape[0]) % 2
    _, grads = nn.loss_and_grads(model, x, labels)
    params = dict(model.parameters())
    opt = nn.Adam(nn.TrainConfig(lr=1e-3))
    m["kernel.nn.adam_step.ms"] = (_median_ms(lambda: opt.step(params, grads), 21), "ms")
    return m
