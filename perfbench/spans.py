"""Spans around calls into swapnet's modules, recorded from outside the package.

A probe replaces a public function by a wrapper in every swapnet namespace
that holds it (the defining module, each module that imported it by name, and
the package itself), so calls made inside the package are seen too. Spans keep
process CPU nanoseconds, the span that was open when the call began, and a few
counters taken at the same boundary; they stay in memory until the run writes
them out. Uninstalling restores every replaced name.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from pathlib import Path

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

# (module, function name, span name). numpy.linalg.eigvalsh is probed to
# attribute the per-step spectrum inside iterate_channel (invariant checks and
# the entropy record) to the density-check layer.
PROBES = (
    ("swapnet.core", "build_network_hamiltonian", "core.build_network_hamiltonian"),
    ("swapnet.core", "swap_commutation_residual", "core.swap_commutation_residual"),
    ("swapnet.core", "make_initial_state", "core.make_initial_state"),
    ("swapnet.core", "single_site_expectations", "core.single_site_expectations"),
    ("swapnet.core", "entropy_from_eigenvalues", "core.entropy_from_eigenvalues"),
    ("numpy.linalg", "eigvalsh", "numpy.linalg.eigvalsh"),
    ("swapnet.channel", "build_channel", "channel.build_channel"),
    ("swapnet.channel", "apply_channel", "channel.apply_channel"),
    ("swapnet.channel", "_mix_product", "channel.mix_product"),
    ("swapnet.channel", "iterate_channel", "channel.iterate_channel"),
    ("swapnet.channel", "unitality_error", "channel.unitality_error"),
    ("swapnet.noise", "build_disordered_hamiltonian", "noise.build_disordered_hamiltonian"),
    ("swapnet.noise", "lifetime_scan", "noise.lifetime_scan"),
    ("swapnet.analysis", "spectrum_of_series", "analysis.spectrum_of_series"),
    ("swapnet.analysis", "fit_decay_envelope", "analysis.fit_decay_envelope"),
    ("swapnet.experiment", "run_experiment", "experiment.run_experiment"),
    ("swapnet.attractor", "general_attractor_spectrum", "attractor.general_attractor_spectrum"),
    ("swapnet.attractor", "commutant_distance", "attractor.commutant_distance"),
    ("swapnet.attractor", "asymptotic_state", "attractor.asymptotic_state"),
    ("swapnet.symmetry", "symmetric_sector_basis", "symmetry.symmetric_sector_basis"),
    ("swapnet.symmetry", "find_dynamical_symmetries", "symmetry.find_dynamical_symmetries"),
)


def _resident_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _holders(original):
    """Every (module, attribute) in swapnet or numpy.linalg bound to `original`."""
    out = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "swapnet" or name.startswith("swapnet.")
                               or name == "numpy.linalg"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, attr))
    return out


class _Patches:
    """Replaced names, restored by uninstall()."""

    def __init__(self):
        self._saved = []

    def replace(self, module_name: str, func_name: str, make_wrapper):
        original = getattr(sys.modules[module_name], func_name)
        wrapper = make_wrapper(original)
        for mod, attr in _holders(original):
            self._saved.append((mod, attr, original))
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


# The set-up calls: Hamiltonian build, disorder draws, channel compile,
# initial state. None of them calls another.
SETUP_CALLS = (
    ("swapnet.core", "build_hamiltonian"),
    ("swapnet.noise", "build_disordered_hamiltonian"),
    ("swapnet.channel", "build_channel"),
    ("swapnet.core", "make_initial_state"),
)


class Clocks:
    """Instrument of every run: process CPU inside the set-up calls and inside
    iterate_channel, and the channel steps taken.

    Two clock reads per call, each call building a whole Hamiltonian or
    channel or running hundreds of steps, so it costs nothing measurable. It
    is how setup_s and steps_per_s see inside run_experiment and lifetime_scan.
    """

    def __init__(self):
        self.setup_s = 0.0
        self.steps = 0
        self.iterate_s = 0.0
        self._patches = _Patches()

    def install(self):
        def setup_call(original):
            @functools.wraps(original)
            def timed(*args, **kwargs):
                c0 = time.process_time()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.setup_s += time.process_time() - c0
            return timed

        def iterate(original):
            @functools.wraps(original)
            def iterate_channel(ch, rho0, steps, *args, **kwargs):
                c0 = time.process_time()
                try:
                    return original(ch, rho0, steps, *args, **kwargs)
                finally:
                    self.iterate_s += time.process_time() - c0
                    self.steps += int(steps)
            return iterate_channel

        for module_name, func_name in SETUP_CALLS:
            self._patches.replace(module_name, func_name, setup_call)
        self._patches.replace("swapnet.channel", "iterate_channel", iterate)

    def uninstall(self):
        self._patches.uninstall()


def _channel_frame(ch) -> str:
    if ch.mode == "dense":
        return "dense"
    return "product_diagonal" if ch.u0_phases is not None else "product_rotating"


class Tracer:
    """Records one span per probed call, in memory.

    A span is [id, parent id or -1, name, start ns, end ns, extra]; times are
    process CPU nanoseconds of the process that made the call.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches = _Patches()

    def install(self):
        for module_name, func_name, span_name in PROBES:
            self._patches.replace(module_name, func_name,
                                  lambda original, n=span_name: self._wrap(n, original))

    def uninstall(self):
        self._patches.uninstall()

    def _wrap(self, name, original):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            extra = self._before(name, args, kwargs)
            record = [span_id, parent, name, 0, 0, extra]
            spans.append(record)
            stack.append(span_id)
            record[3] = time.process_time_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                record[4] = time.process_time_ns()
                stack.pop()
            self._after(name, extra, result)
            return result

        return traced

    @staticmethod
    def _before(name, args, kwargs):
        if name == "channel.iterate_channel":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            steps = args[2] if len(args) > 2 else kwargs["steps"]
            return {"frame": _channel_frame(args[0]), "steps": int(steps),
                    "minflt": usage.ru_minflt, "stime": usage.ru_stime}
        if name == "channel.apply_channel":
            return {"frame": _channel_frame(args[0])}
        if name == "attractor.general_attractor_spectrum":
            return {"rss_before_mb": _resident_mb()}
        if name == "noise.lifetime_scan":
            return {"runs": len(args[1]) * len(args[2])}
        if name == "experiment.run_experiment":
            return {}
        return None

    @staticmethod
    def _after(name, extra, result):
        if name == "channel.iterate_channel":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            extra["minflt"] = usage.ru_minflt - extra["minflt"]
            extra["stime"] = usage.ru_stime - extra["stime"]
        elif name == "attractor.general_attractor_spectrum":
            extra["rss_growth_mb"] = _max_rss_mb() - extra.pop("rss_before_mb")
        elif name == "experiment.run_experiment":
            out = Path(result.output_dir)
            extra["csv_bytes"] = sum((out / f).stat().st_size
                                     for f in ("series.csv", "spectrum.csv"))


def _seconds(span) -> float:
    return (span[4] - span[3]) / 1e9


def layer_metrics(spans: list, rounds: int, overhead_pct: float) -> dict:
    """Per-layer values, by metric name, from the spans of `rounds` traced rounds.

    "_s" totals are per traced round; "_ms"/"_us" values are per call. A layer a workload never calls reads 0. Inclusive times: a span's value
    contains its child spans, except experiment.persist_s, which is the self
    time of run_experiment (see README).
    """
    by_name: dict = {}
    children: dict = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
        children.setdefault(span[1], []).append(span)
    iterate_ids = {s[0] for s in by_name.get("channel.iterate_channel", [])}

    def total(name):
        return sum(_seconds(s) for s in by_name.get(name, [])) / rounds

    def mean(selected, scale):
        return scale * sum(_seconds(s) for s in selected) / len(selected) if selected else 0.0

    def calls(name):
        return by_name.get(name, [])

    def in_iterate(name):
        return [s for s in calls(name) if s[1] in iterate_ids]

    steps_by_frame: dict = {"product_diagonal": [], "product_rotating": [], "dense": []}
    for span in in_iterate("channel.apply_channel"):
        steps_by_frame[span[5]["frame"]].append(span)
    steps_by_frame["product_rotating"] += in_iterate("channel.mix_product")

    iterations = calls("channel.iterate_channel")
    steps = sum(s[5]["steps"] for s in iterations)
    checks = in_iterate("core.entropy_from_eigenvalues")
    check_s = sum(_seconds(s) for s in checks + in_iterate("numpy.linalg.eigvalsh"))
    scans = calls("noise.lifetime_scan")
    scan_runs = sum(s[5]["runs"] for s in scans)
    runs = calls("experiment.run_experiment")
    persist = sum(_seconds(s) - sum(_seconds(c) for c in children.get(s[0], []))
                  for s in runs)

    values = {
        "core.hamiltonian_s": total("core.build_network_hamiltonian"),
        "core.swap_residual_s": total("core.swap_commutation_residual"),
        "core.initial_state_s": total("core.make_initial_state"),
        "core.site_expectations_us": mean(calls("core.single_site_expectations"), 1e6),
        "core.density_checks_ms": 1e3 * check_s / len(checks) if checks else 0.0,
        "channel.compile_s": total("channel.build_channel"),
        "channel.iterate_ms_per_step":
            1e3 * sum(_seconds(s) for s in iterations) / steps if steps else 0.0,
        "channel.minflt_per_step":
            sum(s[5]["minflt"] for s in iterations) / steps if steps else 0.0,
        "channel.sys_s": sum(s[5]["stime"] for s in iterations) / rounds,
        "noise.disorder_hamiltonian_s": total("noise.build_disordered_hamiltonian"),
        "noise.scan_s_per_seed":
            sum(_seconds(s) for s in scans) / scan_runs if scan_runs else 0.0,
        "analysis.spectrum_ms": mean(calls("analysis.spectrum_of_series"), 1e3),
        "analysis.decay_fit_ms": mean(calls("analysis.fit_decay_envelope"), 1e3),
        "experiment.persist_s": persist / rounds,
        "experiment.csv_bytes": sum(s[5]["csv_bytes"] for s in runs) / rounds,
        "attractor.general_spectrum_s": total("attractor.general_attractor_spectrum"),
        "attractor.rss_growth_mb": max(
            [s[5]["rss_growth_mb"] for s in calls("attractor.general_attractor_spectrum")],
            default=0.0),
        "attractor.commutant_distance_ms": mean(calls("attractor.commutant_distance"), 1e3),
        "attractor.asymptotic_state_ms": mean(calls("attractor.asymptotic_state"), 1e3),
        "symmetry.sector_basis_ms": mean(calls("symmetry.symmetric_sector_basis"), 1e3),
        "symmetry.find_symmetries_ms": mean(calls("symmetry.find_dynamical_symmetries"), 1e3),
        "trace.overhead_pct": overhead_pct,
    }
    for frame, selected in steps_by_frame.items():
        values[f"channel.apply_ms.{frame}"] = mean(selected, 1e3)
    return values
