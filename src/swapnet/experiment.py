"""Config-driven experiment runner with CSV/JSON persistence.

A run is described by a JSON-serializable config (ExperimentConfig, which
validates every field), executed as:
build the Hamiltonian (optionally disordered), compile the channel, iterate
from the configured initial state, then write three artifacts into the run
directory: series.csv (per step and site), spectrum.csv (DFT of the
configured site/observable after burn-in) and manifest.json (resolved config,
invariant checks, output checksums, the channel frame, steps per second and
the process's peak RSS). Identical config and seeds reproduce the CSV
payloads byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import PEAK_FRACTION, TimeSeries, spectrum_of_series
from .channel import (
    OBSERVABLE_NAMES,
    RUN_OBSERVABLES,
    SITE_OBSERVABLES,
    ChannelInvariantError,
    ChannelSpec,
    build_channel,
    iterate_channel,
    unitality_error,
)
from .core import (
    HamiltonianSpec,
    StateSpec,
    build_hamiltonian,
    check_qubit_count,
    make_initial_state,
)
from .noise import DisorderSpec, build_disordered_hamiltonian, disordered_coefficients


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration."""


def _number(value, name: str):
    """value, when it is a number (a bool or a string is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def _count(value, name: str) -> int:
    """value, when it is an integer >= 0 (a bool or an integral float is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ConfigError(f"{name} must be an integer >= 0, got {value!r}")
    return value


def _known_keys(obj: dict, spec, prefix: str, filled: tuple) -> None:
    """Refuse a key of obj that is no field of spec (or one filled elsewhere)."""
    allowed = {f.name for f in fields(spec)} - set(filled)
    unknown = [f"{prefix}{k}" for k in obj if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)}")


def _pair_key(text: str, name: str) -> tuple:
    """The pair (m, n) a config map key 'm,n' names."""
    parts = text.split(",")
    if len(parts) != 2 or not all(p.strip().isdecimal() for p in parts):
        raise ConfigError(f"{name} key {text!r} must name a pair as 'm,n'")
    return tuple(int(p) for p in parts)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully specified run. Round-trips losslessly through JSON."""

    name: str
    n: int
    hamiltonian: dict
    initial_state: dict
    steps: int
    burn_in: int
    channel: dict = field(default_factory=dict)
    disorder: dict | None = None
    record: tuple = OBSERVABLE_NAMES
    sites: tuple | None = None
    spectrum_site: int = 0
    output_dir: str | None = None
    seed: int | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        """The config a JSON object describes, validated. A key may not be
        null; one left out takes its default."""
        if not isinstance(data, dict):
            raise ConfigError(f"a config is a JSON object, got {data!r}")
        objects = [data] + [v for v in data.values() if isinstance(v, dict)]
        nulls = [k for obj in objects for k, v in obj.items() if v is None]
        if nulls:
            raise ConfigError(f"null values for {nulls}; leave such keys out")
        _known_keys(data, ExperimentConfig, "", ())
        kwargs = {k: tuple(v) if k in ("record", "sites") and isinstance(v, list) else v
                  for k, v in data.items()}
        try:
            cfg = ExperimentConfig(**kwargs)
        except TypeError as exc:    # a missing top-level key
            raise ConfigError(str(exc)) from exc
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = {k: v for k, v in asdict(self).items() if v is not None}
        out.update(record=list(self.record), sites=list(self.resolved_sites()))
        return out

    def resolved_sites(self) -> tuple:
        if self.sites is not None:
            return self.sites
        return tuple(range(min(3, self.n)))

    def validate(self) -> None:
        """Check every field against what a run can take. A fault raises
        ConfigError; a network above the dense cap raises DimensionCapError."""
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"name must be a non-empty string, got {self.name!r}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        for key in ("n", "steps", "burn_in", "spectrum_site"):
            _count(getattr(self, key), key)
        if self.seed is not None:
            _count(self.seed, "seed")
        if self.n < 2:
            raise ConfigError(f"n must be at least 2, got {self.n}")
        check_qubit_count(self.n)
        for key in ("hamiltonian", "initial_state", "channel", "disorder"):
            value = getattr(self, key)
            if not isinstance(value, dict) and (key != "disorder" or value is not None):
                raise ConfigError(f"{key} must be an object, got {value!r}")
        # keys before values: a misspelt key is named as unknown, not mistyped
        _known_keys(self.hamiltonian, HamiltonianSpec, "hamiltonian.", ("n",))
        _known_keys(self.initial_state, StateSpec, "initial_state.", ())
        _known_keys(self.channel, ChannelSpec, "channel.", ())
        _known_keys(self.disorder or {}, DisorderSpec, "disorder.", ("base",))
        if (not isinstance(self.record, (list, tuple)) or "sx" not in self.record
                or any(name not in OBSERVABLE_NAMES for name in self.record)):
            raise ConfigError(f"record must list names of {OBSERVABLE_NAMES}, sx (the "
                              f"spectrum source) among them, got {self.record!r}")
        sites = self.resolved_sites()
        if (not isinstance(sites, (list, tuple)) or not sites
                or any(_count(s, "each site") >= self.n for s in sites)):
            raise ConfigError(f"sites must list indices below n={self.n}, got {sites!r}")
        if self.spectrum_site not in sites:
            raise ConfigError(
                f"spectrum_site {self.spectrum_site} is not among recorded sites {sites}")
        if self.steps + 1 - self.burn_in < 256:
            raise ConfigError(
                "need at least 256 post-burn-in records for the spectrum "
                f"(steps={self.steps}, burn_in={self.burn_in})")
        # build every spec a run builds, with a stand-in master seed where
        # resolve_seeds has none yet
        probe = replace(self, seed=0 if self.seed is None else self.seed).resolve_seeds()
        probe.hamiltonian_spec()
        probe.disorder_spec()
        try:    # per-pair maps and normalization, against n
            probe.channel_spec().resolve(self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        state = probe.state_spec()
        if state.kind == "eigenpair_superposition" and max(state.pair) >= 2**self.n:
            raise ConfigError("eigenpair_superposition needs a pair of "
                              f"indices below 2^n = {2**self.n}, got {state.pair}")

    def resolve_seeds(self, seed_override: int | None = None) -> "ExperimentConfig":
        """Fill in per-component seeds from the master seed or an override."""
        master = self.seed if seed_override is None else int(seed_override)
        state = dict(self.initial_state)
        disorder = dict(self.disorder) if self.disorder is not None else None
        if state.get("kind") == "haar_random_pure":
            if seed_override is not None or state.get("seed") is None:
                if master is None:
                    raise ConfigError("haar_random_pure needs a seed "
                                      "(initial_state.seed or top-level seed)")
                state["seed"] = master
        if disorder is not None:
            if seed_override is not None or disorder.get("seed") is None:
                if master is None:
                    raise ConfigError("disorder needs a seed "
                                      "(disorder.seed or top-level seed)")
                disorder["seed"] = master + 1
        return replace(self, initial_state=state, disorder=disorder,
                       seed=master if master is not None else self.seed)

    def hamiltonian_spec(self) -> HamiltonianSpec:
        for key, value in self.hamiltonian.items():
            if key != "family":
                _number(value, f"hamiltonian.{key}")
        try:
            return HamiltonianSpec(n=self.n, **self.hamiltonian)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def disorder_spec(self) -> DisorderSpec | None:
        if self.disorder is None:
            return None
        if self.disorder.get("seed") is None:
            raise ConfigError("disorder seed unresolved; call resolve_seeds first")
        _count(self.disorder["seed"], "disorder.seed")
        _number(self.disorder.get("epsilon", 0.0), "disorder.epsilon")
        try:
            return DisorderSpec(base=self.hamiltonian_spec(), **self.disorder)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def channel_spec(self) -> ChannelSpec:
        ch = dict(self.channel)
        if not isinstance(ch.get("pair_probabilities", []), (dict, list)):
            raise ConfigError("channel.pair_probabilities must be a list or an object, "
                              f"got {ch['pair_probabilities']!r}")
        try:
            for key, value in self.channel.items():
                if key in ("pair_probabilities", "kappa") and isinstance(value, dict):
                    ch[key] = {_pair_key(k, f"channel.{key}"): _number(v, f"channel.{key}")
                               for k, v in value.items()}
                elif key in ("pair_probabilities", "kappa") and isinstance(value, list):
                    for v in value:
                        _number(v, f"channel.{key}")
                else:
                    _number(value, f"channel.{key}")
            return ChannelSpec(**ch)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def state_spec(self) -> StateSpec:
        st = dict(self.initial_state)
        if st.get("kind") == "explicit_matrix" or "matrix" in st:
            raise ConfigError("a config cannot give an explicit_matrix state")
        if "seed" in st:
            _count(st["seed"], "initial_state.seed")
        if "pair" in st:
            if not isinstance(st["pair"], (list, tuple)) or len(st["pair"]) != 2:
                raise ConfigError(f"initial_state.pair must hold two indices, got {st['pair']!r}")
            st["pair"] = tuple(_count(i, "each initial_state.pair index") for i in st["pair"])
        try:
            return StateSpec(**st)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(data)


PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6")

PRESET_SUMMARIES = {
    "fig2": "Ising network, random start: synchronized late-time oscillation",
    "fig3": "Ising network, one qubit at |+>: single-frequency oscillation",
    "fig4": "XYZ network, random start: few-frequency late-time oscillation",
    "fig5": "XX network, two-eigenvector start: clean single-frequency phase",
    "fig6": "XX network with coupling/field disorder: slow decay of the phase",
}


def load_preset(name: str, n: int | None = None,
                seed: int | None = None) -> ExperimentConfig:
    """Load a shipped preset, optionally overriding size and seed.

    Size overrides clip the recorded sites to the new n and shorten large
    networks (n >= 8) to a 1024-sample spectrum window to stay desk-scale.
    """
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}, expected one of {PRESET_NAMES}")
    text = resources.files("swapnet").joinpath(f"presets/{name}.json").read_text()
    cfg = ExperimentConfig.from_dict(json.loads(text))
    if n is not None:
        sites = tuple(s for s in cfg.resolved_sites() if s < n) or (0,)
        steps = cfg.steps
        if n >= 8:
            steps = cfg.burn_in + 1024
        cfg = replace(cfg, n=n, sites=sites, steps=steps)
        cfg.validate()
    return cfg.resolve_seeds(seed_override=seed)


def _fmt(value) -> str:
    """17-significant-digit decimal serialization."""
    if value is None:
        return ""
    return format(float(value), ".17g")


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float | None:
    """Peak RSS of this process so far in MB (getrusage); None where the
    platform has no resource module (Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss counts bytes on macOS and KiB on Linux and the BSDs
    return round(peak / (2**20 if sys.platform == "darwin" else 2**10), 1)


def _series_csv(traj, sites, record) -> bytes:
    lines = [",".join(("step", "site") + OBSERVABLE_NAMES)]
    per_site = {name: traj.records.get(name) for name in SITE_OBSERVABLES}
    run_level = {name: traj.records.get(name) for name in RUN_OBSERVABLES}
    for n in range(len(traj.steps)):
        run_cells = [("" if run_level[name] is None else _fmt(run_level[name][n]))
                     for name in RUN_OBSERVABLES]
        for j, site in enumerate(sites):
            cells = [str(n), str(site)]
            for name in SITE_OBSERVABLES:
                col = per_site[name]
                cells.append("" if col is None else _fmt(col[n, j]))
            cells.extend(run_cells)
            lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


def _spectrum_csv(spectrum) -> bytes:
    lines = ["bin,freq_rad_per_step,magnitude,is_peak"]
    for k in range(len(spectrum.frequencies)):
        lines.append(",".join([
            str(k),
            _fmt(spectrum.frequencies[k]),
            _fmt(spectrum.magnitudes[k]),
            "1" if spectrum.is_peak[k] else "0",
        ]))
    return ("\n".join(lines) + "\n").encode()


@dataclass
class RunManifest:
    """Provenance record of one run, written atomically at run end."""

    config: dict
    version: str
    created: str
    wall_seconds: float
    invariants: dict
    spectrum: dict
    outputs: dict
    output_dir: str
    channel_frame: str          # Channel.frame: U0 as product_diagonal phases or
                                # product_rotating eigenpairs, or dense
    steps_per_s: float          # inside iterate_channel, wall clock
    peak_rss_mb: float | None   # of the whole process so far (_peak_rss_mb)
    disorder_draws: dict | None = None

    @property
    def passed(self) -> bool:
        return bool(self.invariants.get("passed"))

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.disorder_draws is None:
            del out["disorder_draws"]
        return out


def resolve_output_dir(config: ExperimentConfig, out_dir=None) -> Path:
    if out_dir is not None:
        return Path(out_dir)
    if config.output_dir is not None:
        return Path(config.output_dir)
    root = os.environ.get("SWAPNET_OUT_ROOT", "runs")
    return Path(root) / config.name


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunManifest:
    """Execute one configured run and persist series, spectrum and manifest.

    Channel invariants (trace, Hermiticity, positivity, entropy monotonicity,
    unitality) are re-checked inline; a violation still writes the manifest,
    then raises ChannelInvariantError.
    """
    t0 = time.monotonic()
    config.validate()
    config = config.resolve_seeds()
    target = resolve_output_dir(config, out_dir)

    h_clean = build_hamiltonian(config.hamiltonian_spec())
    disorder = config.disorder_spec()
    draws = None
    if disorder is not None:
        h_run = build_disordered_hamiltonian(disorder)
        draws = {k: list(np.asarray(v, dtype=float))
                 for k, v in disordered_coefficients(disorder).items()}
    else:
        h_run = h_clean

    ch = build_channel(h_run, config.channel_spec())
    rho0 = make_initial_state(config.state_spec(), config.n, hamiltonian=h_clean)

    validate_stride = 1 if config.n <= 6 else 16
    t_iterate = time.perf_counter()
    traj = iterate_channel(ch, rho0, config.steps, record=config.record,
                           sites=config.resolved_sites(),
                           validate_stride=validate_stride)
    steps_per_s = config.steps / (time.perf_counter() - t_iterate)
    traj.invariants.unitality_error = unitality_error(ch)

    series = TimeSeries(traj.series("sx", site=config.spectrum_site),
                        burn_in=config.burn_in)
    spectrum = spectrum_of_series(series)

    target.mkdir(parents=True, exist_ok=True)
    series_path = target / "series.csv"
    spectrum_path = target / "spectrum.csv"
    _atomic_write_bytes(series_path, _series_csv(traj, config.resolved_sites(),
                                                 config.record))
    _atomic_write_bytes(spectrum_path, _spectrum_csv(spectrum))

    manifest = RunManifest(
        config=config.to_dict(),
        version=__version__,
        created=time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        wall_seconds=round(time.monotonic() - t0, 3),
        invariants=traj.invariants.summary(),
        spectrum={
            "length": spectrum.length,
            "resolution_rad_per_step": spectrum.resolution,
            "peak_fraction": PEAK_FRACTION,
            "peaks": [{"freq_rad_per_step": f, "magnitude": m}
                      for f, m in spectrum.peaks],
        },
        outputs={
            "series.csv": _sha256(series_path),
            "spectrum.csv": _sha256(spectrum_path),
        },
        output_dir=str(target),
        channel_frame=ch.frame,
        steps_per_s=round(steps_per_s, 3),
        peak_rss_mb=_peak_rss_mb(),
        disorder_draws=draws,
    )
    payload = json.dumps(manifest.to_dict(), indent=2, sort_keys=True,
                         default=float).encode()
    _atomic_write_bytes(target / "manifest.json", payload)

    if not manifest.passed:
        raise ChannelInvariantError(
            f"invariant violation recorded in {target / 'manifest.json'}: "
            f"{manifest.invariants}")
    return manifest
