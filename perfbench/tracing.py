"""Timing wrappers around qsubspace's public functions, for the traced run.

`Tracer.install` replaces each traced function, in every qsubspace module
that binds it (its own module and the modules that import it by name), with
a wrapper that records one span per call: name, start, end, parent span and
round id. Counters are kept at the same call boundaries. Everything stays in
memory until `Tracer.dump` writes it at the end of the run. Nothing under
`src/` is edited; the wrappers live only in the benchmark process.

A function's time counts under its own module's name whichever module
called it. The sector build is wrapped at the cached builder
`fock._sector_matrix`, so builds reached through `exact_eigenpairs`,
`apply_hamiltonian` and `hamiltonian_diagonal` count as
`fock.sector_matrix` too.

The parent of a span is the innermost open span of the process, not of the
thread: the only worker thread qsubspace starts is the one-worker sweep pool
in `cli`, and the calling thread blocks while it runs, so spans stay nested.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import weakref
from collections import defaultdict

# (module, attribute, span name). `Class.method` patches a class attribute.
TARGETS = (
    ("integrals", "parse_fcidump", "integrals.parse_fcidump"),
    ("fock", "_sector_matrix", "fock.sector_matrix"),
    ("fock", "exact_eigenpairs", "fock.exact_eigenpairs"),
    ("fock", "evolve_real", "fock.evolve_real"),
    ("classical", "lanczos", "classical.lanczos"),
    ("classical", "davidson", "classical.davidson"),
    ("classical", "kaniel_paige_saad", "classical.kaniel_paige_saad"),
    ("qubits", "jordan_wigner", "qubits.jordan_wigner"),
    ("qubits", "PauliSum.__mul__", "qubits.pauli_mul"),
    ("qubits", "group_commuting", "qubits.group_commuting"),
    ("engine", "apply_pauli_sum", "engine.apply_pauli_sum"),
    ("engine", "trotter_step", "engine.trotter_step"),
    ("quantum", "qse_build", "quantum.qse_build"),
    ("quantum", "qeom_build", "quantum.qeom_build"),
    ("quantum", "qite_step", "quantum.qite_step"),
    ("quantum", "spectral_weights", "quantum.spectral_weights"),
    ("quantum", "epperly_qfd_bound", "quantum.epperly_qfd_bound"),
    ("quantum", "qse_recipe", "quantum.qse_recipe"),
    ("quantum", "qfd_recipe", "quantum.qfd_recipe"),
    ("shots", "measurement_groups", "shots.measurement_groups"),
    ("shots", "noisy_subspace", "shots.noisy_subspace"),
    ("shots", "plan_from_target", "shots.plan_from_target"),
    ("geev", "solve", "geev.solve"),
    ("geev", "solution_report", "geev.solution_report"),
    ("cli", "main", "cli.main"),
)

# per-round medians; names ending in _s are seconds, the rest counts
ROUND_METRICS = (
    "integrals.parse_fcidump_s",
    "fock.sector_matrix_s",
    "fock.exact_eigenpairs_s",
    "fock.sector_dim",
    "fock.sector_nnz",
    "fock.evolve_real_s",
    "classical.lanczos_s",
    "classical.davidson_s",
    "classical.davidson_iterations",
    "classical.kaniel_paige_saad_s",
    "qubits.jordan_wigner_s",
    "qubits.pauli_terms",
    "qubits.pauli_mul_s",
    "qubits.pauli_mul_pairs",
    "qubits.group_commuting_s",
    "qubits.group_commuting_calls",
    "qubits.groups",
    "engine.apply_pauli_sum_s",
    "engine.pauli_terms_applied",
    "engine.trotter_step_s",
    "quantum.qse_build_s",
    "quantum.qeom_build_s",
    "quantum.qite_step_s",
    "quantum.spectral_weights_s",
    "quantum.epperly_qfd_bound_s",
    "quantum.qse_recipe_s",
    "quantum.qfd_recipe_s",
    "shots.measurement_groups_s",
    "shots.measurement_groups_calls",
    "shots.noisy_subspace_s",
    "shots.plan_from_target_s",
    "shots.total_shots",
    "geev.solve_s",
    "geev.solve_calls",
    "geev.solution_report_s",
    "cli.main_s",
    "cli.self_s",
    # tracing's own bookkeeping: wrapped self time summed over every span,
    # and round time outside any wrapped call
    "trace.self_sum_s",
    "trace.unwrapped_s",
)

# the same names, as medians over the set-up passes instead of the rounds
SETUP_METRICS = (
    "setup.qubits.pauli_mul_s",
    "setup.qubits.group_commuting_s",
    "setup.quantum.qse_recipe_s",
    "setup.quantum.qfd_recipe_s",
    "setup.shots.measurement_groups_s",
    "setup.shots.plan_from_target_s",
)


def _count_sector(tracer, args, result, exc):
    if result is not None and tracer.first_sight(result):
        tracer.add("fock.sector_dim", result.shape[0])
        tracer.add("fock.sector_nnz", result.nnz)


def _count_davidson(tracer, args, result, exc):
    best = result if exc is None else getattr(exc, "best", None)
    if best is not None:
        tracer.add("classical.davidson_iterations", best.num_iterations)


def _count_jordan_wigner(tracer, args, result, exc):
    if result is not None and tracer.first_sight(result):
        tracer.add("qubits.pauli_terms", len(result))


def _count_pauli_mul(tracer, args, result, exc):
    a, b = args[0], args[1]
    if isinstance(b, type(a)):
        tracer.add("qubits.pauli_mul_pairs", len(a) * len(b))


def _count_groups(tracer, args, result, exc):
    tracer.add("qubits.group_commuting_calls", 1)
    if result is not None:
        tracer.add("qubits.groups", result.num_groups)


def _count_applied(tracer, args, result, exc):
    tracer.add("engine.pauli_terms_applied", len(args[0]))


def _count_measurement_groups(tracer, args, result, exc):
    tracer.add("shots.measurement_groups_calls", 1)


def _count_shots(tracer, args, result, exc):
    tracer.add("shots.total_shots", args[1].total_shots)


def _count_solve(tracer, args, result, exc):
    tracer.add("geev.solve_calls", 1)


COUNTERS = {
    "fock.sector_matrix": _count_sector,
    "classical.davidson": _count_davidson,
    "qubits.jordan_wigner": _count_jordan_wigner,
    "qubits.pauli_mul": _count_pauli_mul,
    "qubits.group_commuting": _count_groups,
    "engine.apply_pauli_sum": _count_applied,
    "shots.measurement_groups": _count_measurement_groups,
    "shots.noisy_subspace": _count_shots,
    "geev.solve": _count_solve,
}


class Tracer:
    """In-memory spans and counters for one traced benchmark process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, round id]
        self.stack = []
        self.round = "imports"
        self.counts = defaultdict(int)  # (round id, counter name) -> total
        self._seen = {}

    def add(self, name: str, value) -> None:
        self.counts[(self.round, name)] += value

    def first_sight(self, obj) -> bool:
        """True the first time this live object is returned to a wrapper."""
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, perf = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = exc = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.round)
                if counter is not None:
                    counter(self, args, result, exc)

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        """Wrap every target in every qsubspace module that binds it."""
        mods = [importlib.import_module(f"qsubspace.{m}") for m in {t[0] for t in TARGETS}]
        for modname, attr, name in TARGETS:
            home = importlib.import_module(f"qsubspace.{modname}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapped = self.wrap(name, original)
                for key, value in list(cls.__dict__.items()):
                    if value is original:  # __rmul__ aliases __mul__
                        setattr(cls, key, wrapped)
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _round_totals(self) -> dict:
        """{round id: {metric: value}} from spans and counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, rnd in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, rnd) in enumerate(spans):
            dur = end - start
            tot = out[rnd]
            self_time = dur - child[i]
            tot["trace.self_sum_s"] += self_time
            if name == "cli.main":
                tot["cli.self_s"] += self_time
            if parent < 0:
                tot["_covered"] += dur
            # a recursive call's time is already inside its outer call
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                tot[name + "_s"] += dur
        for (rnd, name), value in self.counts.items():
            out[rnd][name] += value
        return out

    def metrics(self, round_raw: list, setup_ids: list) -> dict:
        """Per-layer metrics: medians over the timed rounds (ids 0, 1, ...)
        with their raw seconds in `round_raw`, and over the set-up passes."""
        totals = self._round_totals()
        rows = []
        for rnd, raw in enumerate(round_raw):
            tot = totals[rnd]
            tot["trace.unwrapped_s"] = raw - tot["_covered"]
            rows.append(tot)
        # self times plus unwrapped time, as a share of each traced round
        self.accounting_error = max(
            abs((row["trace.self_sum_s"] + row["trace.unwrapped_s"]) / raw - 1.0)
            for row, raw in zip(rows, round_raw)
        )
        out = {}
        for name in ROUND_METRICS:
            unit = "s" if name.endswith("_s") else "count"
            value = statistics.median(row.get(name, 0.0) for row in rows)
            out[name] = {"value": value, "unit": unit}
        for name in SETUP_METRICS:
            key = name[len("setup."):]
            value = statistics.median(totals[i].get(key, 0.0) for i in setup_ids)
            out[name] = {"value": value, "unit": "s"}
        return out

    def dump(self, path) -> None:
        """Write spans (name, start, end, parent, round) and counters."""
        counts = defaultdict(dict)
        for (rnd, name), value in self.counts.items():
            counts[str(rnd)][name] = value
        payload = {"spans": self.spans, "counts": counts}
        with open(path, "w") as handle:
            json.dump(payload, handle)
