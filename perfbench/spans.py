"""Instrumentation for the traced run: spans around qinfo's public functions.

``Tracer`` wraps every function listed in ``TRACED`` at each qinfo module
attribute that refers to it (``codes.decode`` is also bound as
``bb84.decode``), and puts the originals back on exit.  It is installed only
for the traced phase of a ``--trace 1`` run, so untimed checks and untraced
runs execute qinfo exactly as shipped.

A span is (op id, span id, parent span id, function, start, end); spans of
one op share the op id.  A function's self time is its span durations minus
the time covered by its child spans.  Totals are kept for every call; the
first ``SPAN_CAP`` spans are also kept whole and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# Layer (qinfo module) -> public functions timed at its boundary.
TRACED = {
    "bb84": ("run_batch", "run_bb84", "reconcile_and_amplify"),
    "codes": ("steane_css", "encode", "decode", "coset_key", "syndrome_table"),
    "rng": ("stream",),
    "formats": ("transcript_to_json", "batch_summary_rows", "dump_json"),
    "cli": ("main",),
    "capacity": ("hsw_capacity_estimate", "hsw_chi"),
    "qentropy": ("holevo_chi", "von_neumann_entropy"),
    "states": ("DensityMatrix.__init__", "QuantumChannel.apply_mat", "eig_hermitian"),
    "typical": ("typical_set", "typical_set_mass", "shannon_scheme",
                "typical_subspace_projector", "schumacher_fidelity"),
    "entropy": ("shannon_entropy", "mutual_information"),
}
LAYERS = tuple(TRACED)
SPAN_CAP = 50_000


def _count_enumerated(counters, args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    counters["typical.sequences_enumerated"] += len(model.probs) ** model.block_length
    counters["typical.typical_members"] += len(result)


def _count_written(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path:
        counters["formats.bytes_written"] += len(result.encode()) + 1  # text + newline


HOOKS = {"typical.typical_set": _count_enumerated, "formats.dump_json": _count_written}


class Stat:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls, self.incl_s, self.self_s = 0, 0.0, 0.0


class Tracer:
    def __init__(self):
        self.stats = {f"{layer}.{name}": Stat() for layer, names in TRACED.items()
                      for name in names}
        self.counters = Counter()
        self.spans: list[tuple] = []
        self.span_count = 0
        self.op = -1
        self._stack: list[list] = []   # [span id, time covered by children]
        self._restore: list[tuple] = []

    def begin_op(self) -> None:
        self.op += 1

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "qinfo" or name.startswith("qinfo.")]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"qinfo.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:   # a method: wrap it once, on its class
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    self._set(cls, attr, self._wrap(key, vars(cls)[attr]))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, key, fn):
        stat, hook = self.stats[key], HOOKS.get(key)
        stack, spans, clock, tracer = self._stack, self.spans, time.perf_counter, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.span_count
            tracer.span_count += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                stat.calls += 1
                stat.incl_s += dur
                stat.self_s += dur - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((tracer.op, span, parent, key, start, end))
            if hook:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.stats.items() if k.startswith(layer + "."))

    def write_spans(self, path) -> None:
        """One JSON object per line: a header, then the kept spans."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans_total": self.span_count,
                                 "spans_written": len(self.spans)}) + "\n")
            for op, span, parent, key, start, end in self.spans:
                fh.write(json.dumps({"op": op, "span": span, "parent": parent, "name": key,
                                     "start": start, "end": end}) + "\n")


# Per-layer metrics of the traced run: (name, unit, better).  Counts and
# times are per unit of work (trial, estimate or sweep); shares are of the
# traced op time.
PER_LAYER = [
    ("bb84.run_bb84.calls", "count", "lower"),
    ("bb84.run_bb84.self_s", "s", "lower"),
    ("bb84.aborts_sift", "count", "lower"),
    ("bb84.aborts_check", "count", "lower"),
    ("bb84.blocks_reconciled", "count", "higher"),
    ("bb84.block_failures", "count", "lower"),
    ("bb84.key_bits", "count", "higher"),
    ("bb84.key_yield", "ratio", "higher"),
    ("codes.encode.calls", "count", "lower"),
    ("codes.encode.self_s", "s", "lower"),
    ("codes.decode.calls", "count", "lower"),
    ("codes.decode.self_s", "s", "lower"),
    ("codes.coset_key.calls", "count", "lower"),
    ("codes.coset_key.self_s", "s", "lower"),
    ("codes.syndrome_table.calls", "count", "lower"),
    ("codes.syndrome_table.self_s", "s", "lower"),
    ("rng.stream.calls", "count", "lower"),
    ("rng.stream.self_s", "s", "lower"),
    ("formats.transcript_to_json.calls", "count", "lower"),
    ("formats.transcript_to_json.self_s", "s", "lower"),
    ("formats.dump_json.self_s", "s", "lower"),
    ("formats.bytes_written", "B", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("capacity.hsw_capacity_estimate.calls", "count", "lower"),
    ("capacity.hsw_chi.calls", "count", "lower"),
    ("capacity.hsw_chi.self_s", "s", "lower"),
    ("capacity.hsw_chi.us_per_call", "us", "lower"),
    ("capacity.hsw_chi.incl_share", "ratio", "lower"),
    ("qentropy.holevo_chi.calls", "count", "lower"),
    ("qentropy.holevo_chi.self_s", "s", "lower"),
    ("qentropy.von_neumann_entropy.calls", "count", "lower"),
    ("qentropy.von_neumann_entropy.self_s", "s", "lower"),
    ("states.DensityMatrix.constructions", "count", "lower"),
    ("states.DensityMatrix.init_self_s", "s", "lower"),
    ("states.QuantumChannel.apply_mat.calls", "count", "lower"),
    ("states.QuantumChannel.apply_mat.self_s", "s", "lower"),
    ("states.eig_hermitian.calls", "count", "lower"),
    ("states.eig_hermitian.self_s", "s", "lower"),
    ("typical.typical_set.calls", "count", "lower"),
    ("typical.typical_set.self_s", "s", "lower"),
    ("typical.sequences_enumerated", "count", "lower"),
    ("typical.typical_share", "ratio", "higher"),
    ("typical.typical_set_mass.self_s", "s", "lower"),
    ("typical.shannon_scheme.self_s", "s", "lower"),
    ("typical.typical_subspace_projector.self_s", "s", "lower"),
    ("typical.schumacher_fidelity.self_s", "s", "lower"),
    ("entropy.shannon_entropy.calls", "count", "lower"),
    ("entropy.shannon_entropy.self_s", "s", "lower"),
    ("entropy.mutual_information.calls", "count", "lower"),
] + [(f"{layer}.self_share", "ratio", "lower") for layer in LAYERS] + [
    ("trace.uncovered_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def per_layer_values(tracer: Tracer, units: int, traced_op_s: float,
                     untraced_op_s: float, outcomes: Counter) -> dict[str, float]:
    """Every PER_LAYER metric from one traced phase of ``units`` units of work."""
    v = {}
    for key, s in tracer.stats.items():
        v[f"{key}.calls"] = s.calls / units
        v[f"{key}.self_s"] = s.self_s / units
    init = tracer.stats["states.DensityMatrix.__init__"]
    v["states.DensityMatrix.constructions"] = init.calls / units
    v["states.DensityMatrix.init_self_s"] = init.self_s / units
    chi = tracer.stats["capacity.hsw_chi"]
    v["capacity.hsw_chi.us_per_call"] = 1e6 * chi.incl_s / chi.calls if chi.calls else 0.0
    v["capacity.hsw_chi.incl_share"] = chi.incl_s / traced_op_s
    for name in ("aborts_sift", "aborts_check", "blocks_reconciled", "block_failures",
                 "key_bits"):
        v[f"bb84.{name}"] = outcomes[name] / units
    sent = outcomes["qubits_sent"]
    v["bb84.key_yield"] = outcomes["key_bits"] / sent if sent else 0.0
    enumerated = tracer.counters["typical.sequences_enumerated"]
    v["typical.sequences_enumerated"] = enumerated / units
    v["typical.typical_share"] = (tracer.counters["typical.typical_members"] / enumerated
                                  if enumerated else 0.0)
    v["formats.bytes_written"] = tracer.counters["formats.bytes_written"] / units
    covered = 0.0
    for layer in LAYERS:
        self_s = tracer.layer_self_s(layer)
        covered += self_s
        v[f"{layer}.self_share"] = self_s / traced_op_s
    v["trace.uncovered_share"] = 1.0 - covered / traced_op_s
    v["trace.overhead_share"] = (traced_op_s - untraced_op_s) / untraced_op_s
    return {name: v[name] for name, _, _ in PER_LAYER}
