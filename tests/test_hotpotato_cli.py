"""Tests for the ``python -m repro.hotpotato`` command-line interface."""

import pytest

from repro.hotpotato.__main__ import build_parser, main


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

    oracle_runs = []
    run = HotPotatoSimulation.run

    def counting_run(self, **kwargs):
        oracle_runs.append(kwargs)
        return run(self, **kwargs)

    monkeypatch.setattr(HotPotatoSimulation, "run", counting_run)
    rc = main(
        ["--n", "4", "--duration", "12", "--kps", "4", "--processors", "1",
         "--procs", "1", "--validate"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine=optimistic (1 PE" in out
    assert len(oracle_runs) == 1
    assert "IDENTICAL (vs sequential)" in out


def test_mesh_and_proof_mode(capsys):
    rc = main(
        ["--n", "4", "--duration", "20", "--topology", "mesh",
         "--no-absorb-sleeping"]
    )
    assert rc == 0
    assert "4x4 mesh" in capsys.readouterr().out


def test_bad_probability(capsys):
    assert main(["--probability-i", "150"]) == 2
