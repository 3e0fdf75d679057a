"""Integration tests: every experiment regenerates at tiny scale, with the

shape assertions the report's narrative makes.
"""

import pathlib

import pytest

from repro.core.mapping import kp_count_for
from repro.errors import ConfigurationError
from repro.experiments.common import SweepParams
from repro.experiments.figures import EXPERIMENTS, experiment_ids, run_experiment
from repro.experiments.runner import build_parser, main

_SCENARIO = (
    pathlib.Path(__file__).resolve().parent.parent
    / "examples" / "scenarios" / "adversarial_faulted.json"
)

TINY = SweepParams(
    sizes=(4, 8),
    duration=30.0,
    loads=(0.5, 1.0),
    pe_counts=(1, 2, 4),
    kp_counts=(4, 16),
    window=2.0,
    scenarios=(str(_SCENARIO),),
)


# ----------------------------------------------------------------------
# kp_count_for.
# ----------------------------------------------------------------------
def test_kp_count_exact_when_it_fits():
    assert kp_count_for(8, 64, 4) == 64
    assert kp_count_for(16, 64, 4) == 64


def test_kp_count_rounds_down():
    assert kp_count_for(4, 64, 4) == 16  # 4x4 grid holds at most 16 KPs
    assert kp_count_for(6, 64, 4) == 36


def test_kp_count_unusable_raises():
    with pytest.raises(ConfigurationError):
        kp_count_for(2, 1, 4)  # cannot give each of 4 PEs a KP on 2x2=4 LPs... 4 KPs fit
        # (the above fits; force a real failure)
    with pytest.raises(ConfigurationError):
        kp_count_for(3, 2, 4)


# ----------------------------------------------------------------------
# Every registered experiment runs and has rows.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("exp_id", experiment_ids())
def test_experiment_regenerates(exp_id):
    table = run_experiment(exp_id, TINY)
    assert table.rows, f"{exp_id} produced no rows"
    assert table.title
    assert table.to_csv().strip()


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("fig99", TINY)


# ----------------------------------------------------------------------
# Shape assertions per figure.
# ----------------------------------------------------------------------
def test_fig3_delivery_grows_with_n():
    table = run_experiment("fig3", TINY)
    for load in TINY.loads:
        col = table.column(f"{int(load*100)}% injectors")
        assert col == sorted(col)


def test_fig4_wait_grows_with_load():
    table = run_experiment("fig4", TINY)
    lo = table.column(f"{int(TINY.loads[0]*100)}% injectors")
    hi = table.column(f"{int(TINY.loads[-1]*100)}% injectors")
    assert hi[-1] > lo[-1]


def test_fig5_parallel_beats_sequential():
    table = run_experiment("fig5", TINY)
    one = table.column("1 PE")
    four = table.column("4 PE")
    assert all(f > o for f, o in zip(four, one))


def test_fig6_efficiency_below_linear():
    table = run_experiment("fig6", TINY)
    for col_name in ("2 PE", "4 PE"):
        for value in table.column(col_name):
            assert 0.0 < value <= 1.2  # super-linear is rare but possible


def test_fig7_more_kps_fewer_rollbacks():
    table = run_experiment("fig7", TINY)
    cols = [c for c in table.columns if c.endswith("KPs")]
    first, last = cols[0], cols[-1]
    for row_first, row_last in zip(table.column(first), table.column(last)):
        if row_first != "-" and row_last != "-":
            assert row_last <= row_first


def test_determinism_table_all_identical():
    table = run_experiment("determinism", TINY)
    assert all(table.column("identical"))


# ----------------------------------------------------------------------
# CLI.
# ----------------------------------------------------------------------
def test_parser_defaults():
    args = build_parser().parse_args(["fig3"])
    assert args.sizes == (8, 16)
    assert args.duration == 100.0


def test_parser_rejects_bad_lists():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig3", "--sizes", "a,b"])


def test_main_runs_one_experiment(capsys, tmp_path):
    rc = main(
        [
            "fig3",
            "--sizes",
            "4",
            "--duration",
            "20",
            "--loads",
            "1.0",
            "--csv-dir",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert (tmp_path / "fig3.csv").exists()


def test_main_rejects_unknown(capsys):
    assert main(["nope"]) == 2


def test_registry_descriptions():
    for exp_id, (desc, runner) in EXPERIMENTS.items():
        assert desc and callable(runner)
