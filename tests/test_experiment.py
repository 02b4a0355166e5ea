import json
import hashlib

import numpy as np
import pytest

from swapnet import __version__
from swapnet.cli import main
from swapnet.core import DimensionCapError
from swapnet.experiment import (
    ConfigError,
    ExperimentConfig,
    PRESET_NAMES,
    load_config,
    load_preset,
    resolve_output_dir,
    run_experiment,
)


def tiny_config(**over):
    data = {
        "name": "tiny",
        "n": 2,
        "hamiltonian": {"family": "ising", "j_z": 0.4, "h": 0.1},
        "initial_state": {"kind": "haar_random_pure", "seed": 3},
        "steps": 300,
        "burn_in": 0,
        "record": ["sx", "sy", "sz", "loschmidt", "entropy", "total_mz"],
        "sites": [0, 1],
    }
    data.update(over)
    return data


class TestConfig:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(tiny_config())
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_schema_rejections(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(extra_key=1))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(steps=-5))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                tiny_config(hamiltonian={"family": "heisenberg"}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(record=["sx", "energy"]))
        missing = tiny_config()
        del missing["steps"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(missing)

    def test_semantic_rejections(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(sites=[0, 5]))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(spectrum_site=1, sites=[0]))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(record=["sz"]))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(steps=100))  # too few samples
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(
                hamiltonian={"family": "ising", "j_z": 0.4, "t": 0.3}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(tiny_config(
                initial_state={"kind": "eigenpair_superposition"}))

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            ExperimentConfig.from_dict(tiny_config(n=13, sites=[0, 1]))

    def test_resolve_seeds_from_master(self):
        data = tiny_config(initial_state={"kind": "haar_random_pure"}, seed=42,
                           disorder={"epsilon": 0.05})
        cfg = ExperimentConfig.from_dict(data).resolve_seeds()
        assert cfg.initial_state["seed"] == 42
        assert cfg.disorder["seed"] == 43

    def test_resolve_seeds_override_wins(self):
        cfg = ExperimentConfig.from_dict(tiny_config()).resolve_seeds(seed_override=99)
        assert cfg.initial_state["seed"] == 99

    def test_resolve_seeds_keeps_explicit(self):
        cfg = ExperimentConfig.from_dict(tiny_config()).resolve_seeds()
        assert cfg.initial_state["seed"] == 3

    def test_unresolvable_seed(self):
        data = tiny_config(initial_state={"kind": "haar_random_pure"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data).resolve_seeds()

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)


class TestPresets:
    def test_all_presets_load(self):
        for name in PRESET_NAMES:
            cfg = load_preset(name)
            assert cfg.name == name
            cfg.validate()

    def test_fig6_has_disorder(self):
        cfg = load_preset("fig6")
        assert cfg.disorder == {"epsilon": 0.1, "seed": 5}
        assert cfg.hamiltonian["h"] == 1.0
        assert cfg.disorder_spec().seed == 5

    def test_size_override(self):
        cfg = load_preset("fig2", n=9)
        assert cfg.n == 9
        assert cfg.steps == cfg.burn_in + 1024
        assert cfg.resolved_sites() == (0, 1, 2)
        small = load_preset("fig2", n=2)
        assert small.resolved_sites() == (0, 1)
        assert small.steps == 4608

    def test_seed_override(self):
        cfg = load_preset("fig2", seed=123)
        assert cfg.initial_state["seed"] == 123

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_preset("fig7")


class TestRun:
    def test_deterministic_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config())
        m1 = run_experiment(cfg, out_dir=tmp_path / "a")
        m2 = run_experiment(cfg, out_dir=tmp_path / "b")
        assert m1.outputs == m2.outputs
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
               (tmp_path / "b" / "series.csv").read_bytes()
        assert (tmp_path / "a" / "spectrum.csv").read_bytes() == \
               (tmp_path / "b" / "spectrum.csv").read_bytes()

    def test_artifact_layout(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config())
        manifest = run_experiment(cfg, out_dir=tmp_path)
        series = (tmp_path / "series.csv").read_text().splitlines()
        assert series[0] == "step,site,sx,sy,sz,loschmidt,entropy,total_mz"
        assert len(series) == 1 + 301 * 2
        assert series[1].startswith("0,0,")
        assert series[2].startswith("0,1,")

        spectrum = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "bin,freq_rad_per_step,magnitude,is_peak"
        assert len(spectrum) == 1 + 129          # rfft bins of a 256 window
        assert all(line.rsplit(",", 1)[1] in ("0", "1") for line in spectrum[1:])

        digest = hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest()
        assert manifest.outputs["series.csv"] == digest

    def test_manifest_contents(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_config())
        manifest = run_experiment(cfg, out_dir=tmp_path)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk["version"] == __version__
        assert on_disk["invariants"]["passed"] is True
        assert on_disk["invariants"]["max_trace_error"] <= 1e-12
        assert on_disk["config"] == cfg.resolve_seeds().to_dict()
        assert on_disk["outputs"] == manifest.outputs
        assert "disorder_draws" not in on_disk

    def test_disordered_run_records_draws(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            tiny_config(disorder={"epsilon": 0.08, "seed": 2}))
        manifest = run_experiment(cfg, out_dir=tmp_path)
        draws = manifest.disorder_draws
        assert set(draws) == {"jz", "hz"}
        assert len(draws["jz"]) == 1 and len(draws["hz"]) == 2
        assert manifest.passed

    def test_output_dir_resolution(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig.from_dict(tiny_config())
        monkeypatch.setenv("SWAPNET_OUT_ROOT", str(tmp_path / "root"))
        assert resolve_output_dir(cfg) == tmp_path / "root" / "tiny"
        assert resolve_output_dir(cfg, tmp_path / "explicit") == tmp_path / "explicit"
        cfg2 = ExperimentConfig.from_dict(tiny_config(output_dir=str(tmp_path / "own")))
        assert resolve_output_dir(cfg2) == tmp_path / "own"


class TestCli:
    def test_list_presets(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESET_NAMES:
            assert name in out

    def test_run_config_file(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(tiny_config()))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert "invariants passed" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_snapshot_stride_rejected(self, tmp_path, capsys):
        # run_experiment writes no snapshots, so the key is not part of a config
        with pytest.raises(ConfigError, match="snapshot_stride"):
            ExperimentConfig.from_dict(tiny_config(snapshot_stride=1))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(tiny_config(snapshot_stride=1)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_n_override_rejected_for_config_runs(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(tiny_config()))
        assert main(["run", "--config", str(path), "--n", "3"]) == 2

    def test_dimension_cap_exit_code(self, capsys):
        assert main(["run", "--preset", "fig2", "--n", "13"]) == 4

    def test_acceptance_preset_rejects_overrides(self, capsys):
        assert main(["run", "--preset", "acceptance", "--n", "3"]) == 2

    def test_missing_arguments(self):
        with pytest.raises(SystemExit):
            main(["run"])
        with pytest.raises(SystemExit):
            main([])
