"""Tests for the ``python -m repro.hotpotato`` command-line interface."""

import json
import pathlib

import pytest

from repro.hotpotato.__main__ import build_parser, main

EXAMPLES_DIR = (
    pathlib.Path(__file__).resolve().parent.parent / "examples" / "scenarios"
)


def test_defaults():
    args = build_parser().parse_args([])
    assert args.n == 8
    assert args.processors == 1
    assert args.probability_i == 100.0


def test_sequential_run(capsys):
    rc = main(["--n", "4", "--duration", "20", "--probability-i", "50"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4x4 torus" in out
    assert "engine=sequential" in out
    assert "packets delivered" in out


def test_parallel_run(capsys):
    rc = main(
        ["--n", "4", "--duration", "20", "--processors", "2", "--kps", "4"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine=optimistic (2 PE)" in out
    assert "events rolled back" in out


def test_validate_cross_engine(capsys):
    rc = main(["--n", "4", "--duration", "20", "--kps", "8", "--validate"])
    assert rc == 0
    assert "IDENTICAL (vs optimistic)" in capsys.readouterr().out


def test_validate_process_mode_checks_against_the_oracle(capsys, monkeypatch):
    """An optimistic main run on one PE (--procs 1) is checked against the
    sequential oracle, not against a second optimistic run."""
    from repro.hotpotato.simulation import HotPotatoSimulation

    built = []
    engine = HotPotatoSimulation.engine

    def recording_engine(self, kind="sequential", **knobs):
        built.append(kind)
        return engine(self, kind, **knobs)

    monkeypatch.setattr(HotPotatoSimulation, "engine", recording_engine)
    rc = main(
        ["--n", "4", "--duration", "12", "--kps", "4", "--processors", "1",
         "--procs", "1", "--validate"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine=optimistic (1 PE" in out
    # The process-mode main run builds no in-process engine; the one
    # engine built is the twin, and it is the oracle.
    assert built == ["sequential"]
    assert "IDENTICAL (vs sequential)" in out


@pytest.mark.parametrize("name", ["mesh_greedy.json", "adversarial_faulted.json"])
def test_scenario_uses_its_engine_section(name, capsys):
    """Both 6x6 scenarios leave n_kps to the compiler, which fits it to the
    grid; the CLI must use that count rather than a 16 that cannot tile."""
    rc = main(["--scenario", str(EXAMPLES_DIR / name), "--processors", "4",
               "--validate"])
    assert rc == 0
    assert "IDENTICAL (vs sequential)" in capsys.readouterr().out


def test_kps_that_cannot_tile_exits_before_any_run(capsys):
    rc = main(["--n", "6", "--duration", "10", "--kps", "16", "--validate"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the sequential run printed
    assert "configuration error: block mapping" in captured.err
    assert "Traceback" not in captured.err


def test_scenario_refuses_workload_flags(capsys):
    rc = main(["--scenario", str(EXAMPLES_DIR / "mesh_greedy.json"),
               "--duration=30", "--fault-rate", "5", "--kps", "4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "drop --duration, --fault-rate" in captured.err


def test_flags_and_scenario_commit_identical_stats(tmp_path, monkeypatch):
    """The same workload described by flags and by an RPSCEN01 document
    commits identical statistics through the two CLIs."""
    from repro.hotpotato.simulation import HotPotatoSimulation
    from repro.scenarios.__main__ import main as scenarios_main

    results = []
    run = HotPotatoSimulation.run

    def recording_run(self, kind="sequential", **kwargs):
        results.append(run(self, kind, **kwargs))
        return results[-1]

    monkeypatch.setattr(HotPotatoSimulation, "run", recording_run)
    assert main(["--n", "8", "--probability-i", "50", "--fault-rate", "10",
                 "--fault-seed", "5", "--processors", "4"]) == 0
    doc = {
        "schema": "RPSCEN01",
        "name": "flags",
        "topology": {"kind": "torus", "n": 8},
        "traffic": {"model": "bernoulli", "injector_fraction": 0.5},
        "routing": {"policy": "busch"},
        "engine": {"duration": 100.0, "seed": 0x5EED},
        "faults": {"generate": {"link_fail_rate": 0.1, "seed": 5}},
    }
    path = tmp_path / "flags.json"
    path.write_text(json.dumps(doc))
    assert scenarios_main(["run", str(path)]) == 0
    flags, scenario = results
    assert flags.run.engine == "optimistic"
    assert scenario.run.engine == "sequential"
    assert flags.model_stats["fault_events"] > 0
    assert flags.model_stats == scenario.model_stats


def test_mesh_and_proof_mode(capsys):
    rc = main(
        ["--n", "4", "--duration", "20", "--topology", "mesh",
         "--no-absorb-sleeping"]
    )
    assert rc == 0
    assert "4x4 mesh" in capsys.readouterr().out


def test_bad_probability(capsys):
    assert main(["--probability-i", "150"]) == 2
