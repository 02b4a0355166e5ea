import json
import hashlib

import numpy as np
import pytest

from swapnet import __version__
from swapnet import channel as channel_module
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
        # one input per rule of the config format: missing and unknown keys,
        # wrong types (booleans, strings and nulls where numbers belong),
        # enums, ranges, negative integers, empty lists and the state kinds a
        # file cannot give
        state = {"kind": "eigenpair_superposition", "pair": [0, 1]}
        bad = [{k: v for k, v in tiny_config().items() if k != key} for key in
               ("name", "n", "hamiltonian", "initial_state", "steps", "burn_in")]
        bad += [tiny_config(hamiltonian={"j_z": 0.4, "h": 0.1}),
                tiny_config(initial_state={"seed": 3}),
                tiny_config(disorder={"seed": 1})]
        bad += [tiny_config(extra_key=1),
                tiny_config(hamiltonian={"family": "ising", "j_z": 0.4, "n": 2}),
                tiny_config(hamiltonian={"family": "ising", "j_z": 0.4, "k": 1.0}),
                tiny_config(channel={"p0": 0.2, "beta": 1.0}),
                tiny_config(initial_state={"kind": "haar_random_pure", "seed": 3,
                                           "matrix": [[1, 0], [0, 0]]}),
                tiny_config(disorder={"epsilon": 0.1, "seed": 1, "base": "ising"})]
        for wrong in ("1", True, None):
            bad += [tiny_config(**{key: wrong}) for key in
                    ("n", "steps", "burn_in", "spectrum_site", "seed")]
            bad += [tiny_config(hamiltonian={"family": "ising", "j_z": 0.4, key: wrong})
                    for key in ("j_x", "j_y", "j_z", "h", "t")]
            bad += [tiny_config(channel={key: wrong})
                    for key in ("p0", "pair_probabilities", "kappa", "dt")]
            bad += [tiny_config(channel={"pair_probabilities": [wrong]}),
                    tiny_config(channel={"pair_probabilities": {"0,1": wrong}}),
                    tiny_config(channel={"kappa": [wrong]}),
                    tiny_config(channel={"kappa": {"0,1": wrong}}),
                    tiny_config(initial_state={"kind": "haar_random_pure", "seed": wrong}),
                    tiny_config(initial_state={**state, "pair": [0, wrong]}),
                    tiny_config(disorder={"epsilon": wrong, "seed": 1}),
                    tiny_config(disorder={"epsilon": 0.1, "seed": wrong}),
                    tiny_config(sites=[0, wrong]),
                    tiny_config(record=["sx", wrong])]
        bad += [tiny_config(**{key: [0]}) for key in
                ("name", "n", "hamiltonian", "initial_state", "steps", "burn_in",
                 "channel", "disorder", "record", "spectrum_site",
                 "output_dir", "seed")]
        bad += [tiny_config(name=""), tiny_config(name=None), tiny_config(name=5),
                tiny_config(output_dir=None), tiny_config(output_dir=5),
                tiny_config(record=None), tiny_config(record="sx"),
                tiny_config(record={"sx": 1}), tiny_config(sites=None),
                tiny_config(sites="01"), tiny_config(disorder=None),
                tiny_config(channel=None), tiny_config(hamiltonian=None),
                tiny_config(initial_state=None), tiny_config(channel={"pair_probabilities": 0.8}),
                tiny_config(initial_state={**state, "pair": "01"}),
                tiny_config(initial_state={**state, "pair": None}),
                tiny_config(hamiltonian={"family": 5}),
                tiny_config(initial_state={"kind": 5}),
                tiny_config(initial_state={"kind": None})]
        bad += [tiny_config(hamiltonian={"family": "heisenberg"}),
                tiny_config(initial_state={"kind": "bogus"}),
                tiny_config(record=["sx", "energy"])]
        bad += [tiny_config(n=1), tiny_config(n=0), tiny_config(n=-3),
                tiny_config(channel={"p0": 0.0}), tiny_config(channel={"p0": 1.0}),
                tiny_config(channel={"p0": -0.2}), tiny_config(channel={"p0": 1.5}),
                tiny_config(channel={"dt": 0.0}), tiny_config(channel={"dt": -1.0}),
                tiny_config(disorder={"epsilon": -0.1, "seed": 1})]
        bad += [tiny_config(**{key: -1}) for key in
                ("steps", "burn_in", "spectrum_site", "seed")]
        bad += [tiny_config(sites=[0, -1]),
                tiny_config(initial_state={"kind": "haar_random_pure", "seed": -1}),
                tiny_config(initial_state={**state, "pair": [-1, 1]}),
                tiny_config(disorder={"epsilon": 0.1, "seed": -1})]
        bad += [tiny_config(record=[]), tiny_config(sites=[])]
        bad += [tiny_config(initial_state={"kind": "explicit_matrix"}),
                tiny_config(initial_state={"kind": "explicit_matrix",
                                           "matrix": [[1, 0], [0, 0]]})]
        bad += [tiny_config(initial_state={**state, "pair": [1]}),
                tiny_config(initial_state={**state, "pair": [0, 1, 2]})]
        # a key the chosen kind does not read
        bad += [tiny_config(initial_state={"kind": "plus_zero_product", "pair": [0, 99]}),
                tiny_config(initial_state={"kind": "plus_zero_product", "seed": 4}),
                tiny_config(initial_state={**state, "seed": 4}),
                tiny_config(initial_state={"kind": "haar_random_pure", "seed": 3,
                                           "pair": [0, 1]})]
        bad += [[], "config", None]
        for data in bad:
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(data)
        # an unknown key is named as one, whatever its value
        named = [(tiny_config(channel={"dt": "1"}), "unknown key channel.dt"),
                 (tiny_config(channel={"dt": 0.5}), "unknown key channel.dt"),
                 (tiny_config(hamiltonian={"family": "ising", "jz": 0.4}),
                  "unknown key hamiltonian.jz"),
                 (tiny_config(initial_state={**state, "bogus": 1}),
                  "unknown key initial_state.bogus"),
                 (tiny_config(disorder={"epsilon": 0.1, "seed": 1, "sigma": 2}),
                  "unknown key disorder.sigma"),
                 (tiny_config(bogus=1), "unknown key bogus"),
                 (tiny_config(channel={"kappa": {"0,1,2": 1.0}}),
                  "channel.kappa key '0,1,2' must name a pair")]
        for data, message in named:
            with pytest.raises(ConfigError, match=message):
                ExperimentConfig.from_dict(data)

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
        # JSON's NaN and Infinity literals parse as floats
        for over in ({"channel": {"dt": float("nan")}}, {"channel": {"dt": float("inf")}},
                     {"channel": {"kappa": float("nan")}},
                     {"disorder": {"epsilon": float("nan"), "seed": 1}},
                     {"disorder": {"epsilon": float("inf"), "seed": 1}}):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(tiny_config(**over))

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

    def test_manifest_records_frame_speed_and_memory(self, tmp_path):
        # the diagonal ising channel, and a dense one once disorder breaks
        # the swap symmetry; the CSVs do not depend on these fields
        for name, over, frame in [("clean", {}, "product_diagonal"),
                                  ("disordered", {"disorder": {"epsilon": 0.08, "seed": 2}},
                                   "dense")]:
            cfg = ExperimentConfig.from_dict(tiny_config(**over))
            manifest = run_experiment(cfg, out_dir=tmp_path / name)
            on_disk = json.loads((tmp_path / name / "manifest.json").read_text())
            assert on_disk["channel_frame"] == manifest.channel_frame == frame
            assert on_disk["steps_per_s"] == manifest.steps_per_s > 0.0
            assert on_disk["peak_rss_mb"] == manifest.peak_rss_mb > 1.0

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

    @pytest.mark.parametrize("over", [
        {"n": 3, "sites": [0, 1], "channel": {"kappa": {"0,1": 1.0}}},
        {"channel": {"p0": 0.2, "pair_probabilities": [0.5]}},
        {"initial_state": {"kind": "eigenpair_superposition", "pair": [1, 4]}},
        {"steps": 300.0},
        {"n": 2.0},
        {"burn_in": 0.0},
        {"seed": 4.0, "initial_state": {"kind": "haar_random_pure"}},
        {"initial_state": {"kind": "haar_random_pure", "seed": 4.0}},
        {"channel": {"dt": 1.0}},
    ], ids=["kappa_missing_pairs", "probabilities_not_normalized", "pair_out_of_range",
            "float_steps", "float_n", "float_burn_in", "float_seed", "float_state_seed",
            "channel_dt"])
    def test_unresolvable_config_exits_before_writing(self, over, tmp_path, capsys):
        # configs that the channel or initial state cannot take, integer
        # fields given as integral floats, and a step (channel.dt), which is
        # not a key: one application is the unit of time
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(tiny_config(**over)))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_n_override_rejected_for_config_runs(self, tmp_path, capsys):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(tiny_config()))
        assert main(["run", "--config", str(path), "--n", "3"]) == 2

    def test_dimension_cap_exit_code(self, capsys):
        assert main(["run", "--preset", "fig2", "--n", "13"]) == 4

    def test_memory_preflight_exits_before_writing(self, tmp_path, monkeypatch, capsys):
        # a dense channel whose estimate exceeds the memory budget exits 4
        # before its members or the output directory exist
        monkeypatch.setattr(channel_module, "_memory_budget", lambda: 1)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(tiny_config(disorder={"epsilon": 0.1, "seed": 1})))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        assert "available memory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_acceptance_is_not_a_preset(self, capsys):
        # the acceptance checks run through the acceptance command only
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "acceptance"])
        assert exc.value.code == 2
        main(["list-presets"])
        assert "acceptance" not in capsys.readouterr().out

    def test_missing_arguments(self):
        with pytest.raises(SystemExit):
            main(["run"])
        with pytest.raises(SystemExit):
            main([])
