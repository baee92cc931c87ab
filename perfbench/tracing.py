"""In-memory span tracer for the lglattice benchmark.

Spans are recorded only by wrappers that this file installs on module-level
function names of the six ``lglattice`` modules; no package source changes.
A wrapper records a span when its call crosses a layer boundary (the caller's
span belongs to another layer, or to the benchmark's own job span), or when
the function is a named stage (see ``STAGES``).  Calls inside one layer pass
straight through, so the trace holds layer boundaries and nothing finer.

Each span stores (parent, job, name, start, end).  Self time is a span's
duration minus the part of that interval its child spans cover, so spans
from the worker threads of ``compute_couplings(threads=2)`` are not counted
twice against their parent.
"""

from __future__ import annotations

import inspect
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("modes", "density", "couplings", "design", "manybody", "cli")
BENCH_LAYER = "bench"

# Functions that get a span even when called from their own layer: the CLI's
# own stages, every writer, and the Fock basis build inside build_hamiltonian.
STAGES = {
    "cli.parse_config",
    "cli.run",
    "cli.check",
    "manybody.build_basis",
}


def _is_writer(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith("write_")


def _layer_of(module: str, name: str) -> str:
    # every CSV/JSON writer belongs to the output layer, whichever module holds it
    if _is_writer(name):
        return "cli"
    return module.rsplit(".", 1)[-1]


def _arg(args, kwargs, pos, key):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key)


def _radial_orders(metadata) -> list[int]:
    """Every radial quadrature order recorded in a CouplingSet's metadata."""
    quad = (metadata or {}).get("quadrature", {})
    orders = []
    for key in ("radial_orders", "radial_order"):
        value = quad.get(key)
        if isinstance(value, (list, tuple)):
            orders.extend(int(v) for v in value)
        elif isinstance(value, (int, float)):
            orders.append(int(value))
    return orders


def _count_radial_profile(counts, args, kwargs, result):
    counts["modes.radial_points"] += int(np.size(_arg(args, kwargs, 1, "r")))


def _count_compute(counts, args, kwargs, result):
    m = len(result.mu)
    counts["couplings.entries"] += m * (m + 1) // 2
    orders = _radial_orders(result.metadata)
    if orders:
        counts["couplings.radial_order_max"] = max(
            counts["couplings.radial_order_max"], max(orders)
        )


def _count_basis(counts, args, kwargs, result):
    counts["manybody.basis_states_total"] += int(result.dim)


def _count_hamiltonian(counts, args, kwargs, result):
    counts["manybody.nnz_total"] += int(result.matrix.nnz)


def _tag_eigensolve(args, kwargs):
    return int(_arg(args, kwargs, 0, "operator").dim)


def _tag_main(args, kwargs):
    argv = _arg(args, kwargs, 0, "argv")
    return str(argv[0]) if argv else ""


COUNTERS = {
    "modes.radial_profile": _count_radial_profile,
    "couplings.compute_couplings": _count_compute,
    "manybody.build_basis": _count_basis,
    "manybody.build_hamiltonian": _count_hamiltonian,
}
TAGS = {
    "manybody.eigensolve": _tag_eigensolve,
    "cli.main": _tag_main,
}


class Tracer:
    """Records spans while a job is open; a no-op pass-through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [parent, job, name_id, start, end]
        self.tags: dict[int, object] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack: list[int] = []
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, parent: int) -> int:
        with self._lock:
            self.spans.append([parent, self._job, name_id, time.perf_counter(), 0.0])
            return len(self.spans) - 1

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        sid = self._open(self._name_id("bench.job", BENCH_LAYER), -1)
        self._main_stack.append(sid)

    def end_job(self) -> None:
        sid = self._main_stack.pop()
        self.spans[sid][4] = time.perf_counter()
        self._job = -1

    def _wrap(self, fn, qualname: str, layer: str):
        name_id = self._name_id(qualname, layer)
        always = qualname in STAGES or _is_writer(qualname)
        counter = COUNTERS.get(qualname)
        tagger = TAGS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            if tracer._job < 0:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                # a worker thread: its spans hang under the submitting span
                parent = tracer._main_stack[-1]
            else:
                return fn(*args, **kwargs)
            if not always and tracer.name_layer[tracer.spans[parent][2]] == layer:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id, parent)
            if tagger is not None:
                tracer.tags[sid] = tagger(args, kwargs)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[sid][4] = time.perf_counter()
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------
    def install(self, modules) -> None:
        """Wrap every public lglattice function wherever a module holds it.

        ``modules`` maps layer name to module object.  A name that a later
        version of the package drops is simply not wrapped and its metrics
        read zero.
        """
        owners = {m.__name__ for m in modules.values()}
        wrapped: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in owners:
                    continue
                if id(obj) not in wrapped:
                    layer = _layer_of(obj.__module__, attr)
                    qualname = f"{obj.__module__.rsplit('.', 1)[-1]}.{attr}"
                    wrapped[id(obj)] = self._wrap(obj, qualname, layer)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for parent, _, _, start, end in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for sid, (_, _, _, start, end) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((end - start) - covered)
        return out

    def write(self, path) -> None:
        """Dump the spans as columns; times are seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = {
            "names": self.names,
            "layers": self.name_layer,
            "columns": ["parent", "job", "name", "start_s", "end_s"],
            "spans": [
                [p, j, n, round(s - t0, 9), round(e - t0, 9)]
                for p, j, n, s, e in self.spans
            ],
            "tags": {str(k): v for k, v in self.tags.items()},
            "counts": dict(self.counts),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced pass.

    ``traced_wall`` and ``untraced_wall`` are the summed job latencies of the
    same jobs with and without tracing.
    """
    self_t = tracer.self_times()
    by_name_self: dict[str, float] = defaultdict(float)
    by_name_dur: dict[str, list[float]] = defaultdict(list)
    by_layer: dict[str, float] = defaultdict(float)
    span_ids: dict[str, list[int]] = defaultdict(list)
    for sid, (parent, job, name_id, start, end) in enumerate(tracer.spans):
        name = tracer.names[name_id]
        by_name_self[name] += self_t[sid]
        by_name_dur[name].append(end - start)
        by_layer[tracer.name_layer[name_id]] += self_t[sid]
        span_ids[name].append(sid)

    def calls(name):
        return len(by_name_dur.get(name, ()))

    def self_s(*names):
        return sum(by_name_self.get(n, 0.0) for n in names)

    counts = tracer.counts
    m: dict[str, float] = {}
    m["modes.radial_profile_calls"] = calls("modes.radial_profile")
    m["modes.radial_points"] = counts.get("modes.radial_points", 0)
    m["modes.radial_profile_s"] = self_s("modes.radial_profile")

    m["density.validate_calls"] = calls("density.validate_nonnegative")
    m["density.validate_s"] = self_s("density.validate_nonnegative")
    m["density.validate_ms_p50"] = 1e3 * _median(by_name_dur.get("density.validate_nonnegative", []))

    entries = counts.get("couplings.entries", 0)
    compute_dur = sum(by_name_dur.get("couplings.compute_couplings", []))
    m["couplings.compute_calls"] = calls("couplings.compute_couplings")
    m["couplings.compute_s"] = self_s("couplings.compute_couplings")
    m["couplings.compute_us_per_entry"] = 1e6 * compute_dur / entries if entries else 0.0
    m["couplings.radial_order_max"] = counts.get("couplings.radial_order_max", 0)
    m["couplings.oracle_calls"] = calls("couplings.brute_force_coupling")
    m["couplings.oracle_s"] = self_s("couplings.brute_force_coupling")

    # validator calls made inside design_power_law, over its call count
    power_law = set(span_ids.get("design.design_power_law", ()))
    nested_validate = 0
    for sid in span_ids.get("density.validate_nonnegative", ()):
        parent = tracer.spans[sid][0]
        while parent >= 0 and parent not in power_law:
            parent = tracer.spans[parent][0]
        nested_validate += parent >= 0
    m["design.power_law_calls"] = calls("design.design_power_law")
    m["design.power_law_s"] = self_s("design.design_power_law")
    m["design.validate_calls_per_power_law"] = (
        nested_validate / len(power_law) if power_law else 0.0
    )
    m["design.fit_s"] = self_s("design.fit_power_law")
    m["design.fluxes_s"] = self_s("design.plaquette_fluxes", "design.design_fluxes")

    m["manybody.basis_s"] = self_s("manybody.build_basis")
    m["manybody.basis_states_total"] = counts.get("manybody.basis_states_total", 0)
    nnz = counts.get("manybody.nnz_total", 0)
    m["manybody.hamiltonian_s"] = self_s("manybody.build_hamiltonian")
    m["manybody.nnz_total"] = nnz
    m["manybody.hamiltonian_us_per_nnz"] = 1e6 * m["manybody.hamiltonian_s"] / nnz if nnz else 0.0
    bands = {"dim_lt_500": [], "dim_500_2000": [], "dim_ge_2000": []}
    for sid in span_ids.get("manybody.eigensolve", ()):
        dim = tracer.tags.get(sid, 0)
        band = "dim_lt_500" if dim < 500 else "dim_500_2000" if dim < 2000 else "dim_ge_2000"
        start, end = tracer.spans[sid][3:5]
        bands[band].append(end - start)
    for band, durations in bands.items():
        m[f"manybody.eigensolve_ms.{band}"] = 1e3 * _median(durations)
    m["manybody.evolve_s"] = self_s("manybody.time_evolve")
    m["manybody.occupations_s"] = self_s("manybody.occupations")

    per_command: dict[str, list[float]] = defaultdict(list)
    for sid in span_ids.get("cli.main", ()):
        start, end = tracer.spans[sid][3:5]
        per_command[tracer.tags.get(sid, "")].append(end - start)
    for command in ("compute", "design", "diagonalize", "check"):
        m[f"cli.main_ms.{command}"] = 1e3 * _median(per_command.get(command, []))
    writers = [n for n in by_name_self if _is_writer(n)]
    m["cli.parse_s"] = self_s("cli.parse_config")
    m["cli.self_s"] = self_s("cli.main", "cli.run", "cli.check")
    m["cli.write_s"] = self_s(*writers)
    m["cli.bytes_written"] = counts.get("cli.bytes_written", 0)
    m["cli.files_written"] = counts.get("cli.files_written", 0)

    for layer in LAYERS:
        m[f"{layer}.share"] = by_layer.get(layer, 0.0) / traced_wall if traced_wall else 0.0
    m["trace.overhead_ratio"] = traced_wall / untraced_wall if untraced_wall else 0.0
    return m


PER_LAYER_UNITS = {
    "modes.radial_profile_calls": "count",
    "modes.radial_points": "count",
    "modes.radial_profile_s": "s",
    "density.validate_calls": "count",
    "density.validate_s": "s",
    "density.validate_ms_p50": "ms",
    "couplings.compute_calls": "count",
    "couplings.compute_s": "s",
    "couplings.compute_us_per_entry": "us",
    "couplings.radial_order_max": "count",
    "couplings.oracle_calls": "count",
    "couplings.oracle_s": "s",
    "design.power_law_calls": "count",
    "design.power_law_s": "s",
    "design.validate_calls_per_power_law": "ratio",
    "design.fit_s": "s",
    "design.fluxes_s": "s",
    "manybody.basis_s": "s",
    "manybody.basis_states_total": "count",
    "manybody.hamiltonian_s": "s",
    "manybody.nnz_total": "count",
    "manybody.hamiltonian_us_per_nnz": "us",
    "manybody.eigensolve_ms.dim_lt_500": "ms",
    "manybody.eigensolve_ms.dim_500_2000": "ms",
    "manybody.eigensolve_ms.dim_ge_2000": "ms",
    "manybody.evolve_s": "s",
    "manybody.occupations_s": "s",
    "cli.main_ms.compute": "ms",
    "cli.main_ms.design": "ms",
    "cli.main_ms.diagonalize": "ms",
    "cli.main_ms.check": "ms",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
}
