"""Config-driven experiment runner with CSV/JSON persistence.

A run is described by a JSON-serializable config (schema below), executed as:
build the Hamiltonian (optionally disordered), compile the channel, iterate
from the configured initial state, then write three artifacts into the run
directory: series.csv (per step and site), spectrum.csv (DFT of the
configured site/observable after burn-in) and manifest.json (resolved config,
invariant checks, output checksums). Identical config and seeds reproduce the
CSV payloads byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .analysis import TimeSeries, spectrum_of_series
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
    HAMILTONIAN_FAMILIES,
    STATE_KINDS,
    HamiltonianSpec,
    StateSpec,
    build_hamiltonian,
    check_qubit_count,
    make_initial_state,
)
from .noise import DisorderSpec, build_disordered_hamiltonian, disordered_coefficients

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "swapnet experiment config",
    "type": "object",
    "required": ["name", "n", "hamiltonian", "initial_state", "steps", "burn_in"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "n": {"type": "integer", "minimum": 2},
        "hamiltonian": {
            "type": "object",
            "required": ["family"],
            "additionalProperties": False,
            "properties": {
                "family": {"enum": list(HAMILTONIAN_FAMILIES)},
                "j_x": {"type": "number"},
                "j_y": {"type": "number"},
                "j_z": {"type": "number"},
                "h": {"type": "number"},
                "t": {"type": "number"},
            },
        },
        "disorder": {
            "type": "object",
            "required": ["epsilon"],
            "additionalProperties": False,
            "properties": {
                "epsilon": {"type": "number", "minimum": 0},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "channel": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "p0": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "pair_probabilities": {
                    "type": ["object", "array"],
                    "items": {"type": "number"},
                    "additionalProperties": {"type": "number"},
                },
                "kappa": {
                    "type": ["number", "object", "array"],
                    "items": {"type": "number"},
                    "additionalProperties": {"type": "number"},
                },
                "dt": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "initial_state": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": [k for k in STATE_KINDS if k != "explicit_matrix"]},
                "seed": {"type": "integer", "minimum": 0},
                "pair": {"type": "array", "items": {"type": "integer", "minimum": 0},
                         "minItems": 2, "maxItems": 2},
            },
        },
        "steps": {"type": "integer", "minimum": 0},
        "burn_in": {"type": "integer", "minimum": 0},
        "record": {"type": "array", "items": {"enum": list(OBSERVABLE_NAMES)},
                   "minItems": 1},
        "sites": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
        "spectrum_site": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0},
    },
}


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration."""


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
        try:
            jsonschema.validate(data, CONFIG_SCHEMA)
        except jsonschema.ValidationError as exc:
            raise ConfigError(f"config rejected by schema: {exc.message}") from exc
        kwargs = dict(data)
        if "record" in kwargs:
            kwargs["record"] = tuple(kwargs["record"])
        if "sites" in kwargs:
            kwargs["sites"] = tuple(kwargs["sites"])
        cfg = ExperimentConfig(**kwargs)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "n": self.n,
            "hamiltonian": dict(self.hamiltonian),
            "initial_state": dict(self.initial_state),
            "steps": self.steps,
            "burn_in": self.burn_in,
            "channel": dict(self.channel),
            "record": list(self.record),
            "sites": list(self.resolved_sites()),
            "spectrum_site": self.spectrum_site,
        }
        if self.disorder is not None:
            out["disorder"] = dict(self.disorder)
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def resolved_sites(self) -> tuple:
        if self.sites is not None:
            return self.sites
        return tuple(range(min(3, self.n)))

    def validate(self) -> None:
        check_qubit_count(self.n)
        sites = self.resolved_sites()
        if any(s >= self.n for s in sites):
            raise ConfigError(f"sites {sites} out of range for n={self.n}")
        if self.spectrum_site not in sites:
            raise ConfigError(
                f"spectrum_site {self.spectrum_site} is not among recorded sites {sites}")
        if "sx" not in self.record:
            raise ConfigError("record must include sx (spectrum source)")
        if self.steps + 1 - self.burn_in < 256:
            raise ConfigError(
                "need at least 256 post-burn-in records for the spectrum "
                f"(steps={self.steps}, burn_in={self.burn_in})")
        self.hamiltonian_spec()   # family/coupling validation
        kind = self.initial_state.get("kind")
        if kind == "eigenpair_superposition" and "pair" not in self.initial_state:
            raise ConfigError("eigenpair_superposition needs a pair")

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
        params = {k: v for k, v in self.hamiltonian.items() if k != "family"}
        try:
            return HamiltonianSpec(family=self.hamiltonian["family"], n=self.n, **params)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def disorder_spec(self) -> DisorderSpec | None:
        if self.disorder is None:
            return None
        if self.disorder.get("seed") is None:
            raise ConfigError("disorder seed unresolved; call resolve_seeds first")
        return DisorderSpec(base=self.hamiltonian_spec(),
                            epsilon=float(self.disorder["epsilon"]),
                            seed=int(self.disorder["seed"]))

    def channel_spec(self) -> ChannelSpec:
        ch = dict(self.channel)
        for key in ("pair_probabilities", "kappa"):
            value = ch.get(key)
            if isinstance(value, dict):
                ch[key] = {tuple(int(x) for x in k.split(",")): v
                           for k, v in value.items()}
        try:
            return ChannelSpec(**ch)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def state_spec(self) -> StateSpec:
        st = dict(self.initial_state)
        if "pair" in st and st["pair"] is not None:
            st["pair"] = tuple(int(x) for x in st["pair"])
        try:
            return StateSpec(**st)
        except ValueError as exc:
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
    "acceptance": "run the acceptance checks (same as the acceptance command)",
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
    disorder_draws: dict | None = None

    @property
    def passed(self) -> bool:
        return bool(self.invariants.get("passed"))

    def to_dict(self) -> dict:
        out = {
            "config": self.config,
            "version": self.version,
            "created": self.created,
            "wall_seconds": self.wall_seconds,
            "invariants": self.invariants,
            "spectrum": self.spectrum,
            "outputs": self.outputs,
            "output_dir": self.output_dir,
        }
        if self.disorder_draws is not None:
            out["disorder_draws"] = self.disorder_draws
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
    target.mkdir(parents=True, exist_ok=True)

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
    traj = iterate_channel(ch, rho0, config.steps, record=config.record,
                           sites=config.resolved_sites(),
                           validate_stride=validate_stride)
    traj.invariants.unitality_error = unitality_error(ch)

    series = TimeSeries(traj.series("sx", site=config.spectrum_site),
                        burn_in=config.burn_in)
    spectrum = spectrum_of_series(series)

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
            "peak_fraction": spectrum.peak_fraction,
            "peaks": [{"freq_rad_per_step": f, "magnitude": m}
                      for f, m in spectrum.peaks],
        },
        outputs={
            "series.csv": _sha256(series_path),
            "spectrum.csv": _sha256(spectrum_path),
        },
        output_dir=str(target),
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
