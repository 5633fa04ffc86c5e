"""Command-line interface: subcommands, formats, exit codes."""

import json
import warnings

import pytest
from hypothesis import given, strategies as st

from cycalign import ValidityRegimeWarning
from cycalign.cli import _float_list, _int_list, main
from cycalign.harness import CSV_HEADER

pytestmark = pytest.mark.filterwarnings("ignore::cycalign.ValidityRegimeWarning")


def test_simulate_prints_summary(capsys):
    code = main(["simulate", "--n", "30", "--k", "3", "--delta", "0.5",
                 "--seed", "3", "--noiseless"])
    out = capsys.readouterr().out
    assert code == 0
    assert "recovered      : yes" in out
    assert "query count" in out


def test_simulate_reports_failure_detail(capsys):
    code = main(["simulate", "--n", "200", "--k", "4", "--delta", "0.2",
                 "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "recovered      : no" in out
    assert "mismatched" in out


def test_sweep_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code = main(["sweep", "--n", "20,30", "--k", "2", "--delta", "0.45",
                 "--trials", "3", "--seed", "1", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_sweep_stdout_and_json(capsys):
    code = main(["sweep", "--n", "20", "--k", "2", "--delta", "0.45",
                 "--trials", "2", "--seed", "1", "--format", "json",
                 "--no-timing"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["n"] == 20 and rows[0]["wall_time_seconds"] == 0.0


def test_sweep_rerun_byte_identical(tmp_path):
    args = ["sweep", "--n", "20", "--k", "2,3", "--delta", "0.45,0.6",
            "--trials", "4", "--seed", "9", "--no-timing"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_missing_grid_is_config_error(capsys):
    code = main(["sweep", "--k", "2", "--delta", "0.3", "--trials", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_bad_trials_is_config_error(capsys):
    code = main(["sweep", "--n", "20", "--k", "2", "--delta", "0.3",
                 "--trials", "0"])
    assert code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--bogus", "1"])
    assert err.value.code == 2


def test_internal_error_exits_3(monkeypatch, capsys):
    import cycalign.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_sweep", boom)
    code = main(["sweep", "--n", "20", "--k", "2", "--delta", "0.45",
                 "--trials", "1"])
    assert code == 3
    assert "synthetic failure" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("n_values = 20\nk_values = 2\ndelta_values = 0.45\n"
                   "trials = 2\nbase_seed = 5\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_a),
                 "--no-timing"]) == 0
    # flag overrides the file's trials value
    assert main(["sweep", "--config", str(cfg), "--trials", "4",
                 "--out", str(out_b), "--no-timing"]) == 0
    assert ",2," in out_a.read_text().split("\n")[1]
    assert ",4," in out_b.read_text().split("\n")[1]


def test_phase_emits_one_record_per_scale(tmp_path):
    out_path = tmp_path / "phase.csv"
    code = main(["phase", "--n", "40", "--k", "2", "--delta", "0.45",
                 "--trials", "2", "--seed", "3",
                 "--budget-scale", "1,0.2", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 3
    seed_sizes = [int(line.split(",")[4]) for line in lines[1:]]
    assert seed_sizes[0] > seed_sizes[1]


def test_lemma_check_table_and_csv(tmp_path, capsys):
    out_path = tmp_path / "lemma.csv"
    code = main(["lemma-check", "--n", "20,40,60,80,100", "--k", "2",
                 "--delta", "0.3", "--trials", "5000", "--seed", "2",
                 "--out", str(out_path)])
    assert code == 0
    table = capsys.readouterr().out
    assert "fit (large regime)" in table
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 6


def test_lemma_check_json(tmp_path, capsys):
    out_path = tmp_path / "lemma.json"
    code = main(["lemma-check", "--n", "20,40", "--k", "2", "--delta", "0.3",
                 "--trials", "1000", "--seed", "2", "--format", "json",
                 "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert len(payload["points"]) == 2 and payload["fit"] is None


def test_lemma_check_invalid_delta_is_config_error(capsys):
    code = main(["lemma-check", "--n", "20", "--k", "2", "--delta", "0.9",
                 "--trials", "10"])
    assert code == 2


def test_mle_check_reports_agreement(capsys):
    code = main(["mle-check", "--n", "5", "--k", "2", "--delta", "0.45",
                 "--trials", "20", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "agreement" in out and "non-unique ML sets" in out


def test_mle_check_oversize_is_config_error(capsys):
    code = main(["mle-check", "--n", "9", "--k", "2", "--delta", "0.45",
                 "--trials", "5"])
    assert code == 2


def test_lemma_underflow_is_an_internal_error(capsys):
    # a valid grid whose exact tails underflow to 0 inside the fit: the
    # computation fails, not the configuration
    code = main(["lemma-check", "--n", "2000,4000,6000,8000,10000", "--k", "2",
                 "--delta", "0.3", "--trials", "1000"])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" in err and "tail probabilities must lie strictly" in err


@pytest.fixture
def no_run(monkeypatch):
    """Make every run entry point of the CLI fail the test if called."""
    import cycalign.cli as cli_mod

    def never(*args, **kwargs):
        raise AssertionError("the run started despite an invalid configuration")

    for name in ("run_lemma_check", "run_mle_comparison", "run_trial_detailed",
                 "run_sweep"):
        monkeypatch.setattr(cli_mod, name, never)


@pytest.mark.parametrize("argv,message", [
    (["lemma-check", "--n", "200000", "--k", "2", "--delta", "0.3"],
     "exceeds the exact-tail guard"),
    (["lemma-check", "--n", "50,50,50,50,50", "--k", "2", "--delta", "0.3"],
     "predictor is constant"),
    (["lemma-check", "--n", "20", "--k", "2", "--delta", "0.3", "--trials", "0"],
     "trials must be >= 1"),
    (["mle-check", "--n", "6", "--k", "2", "--delta", "0.45", "--trials", "0"],
     "trials must be >= 1"),
    (["mle-check", "--n", "3", "--k", "2", "--delta", "0.45"], "need n >= 4"),
    (["simulate", "--n", "3", "--k", "2", "--delta", "0.45"], "need n >= 4"),
    (["simulate", "--n", "30", "--k", "2", "--delta", "0.45", "--constant-c", "0"],
     "constant_c must be positive"),
    (["phase", "--n", "20", "--k", "2", "--delta", "0.45", "--budget-scale", "1,-1"],
     "budget_scale must be positive"),
    (["sweep", "--config", "no/such/sweep.cfg"], "No such file"),
    *[([command, "--n", "30", "--k", "2", "--delta", "0.45", f"--budget-scale={scale}"],
       "budget_scale must be positive and finite")
      for command in ("simulate", "sweep") for scale in ("-1", "0", "nan", "inf")],
    (["phase", "--n", "20", "--k", "2", "--delta", "0.45", "--budget-scale", "1,inf"],
     "budget_scale must be positive and finite"),
    (["phase", "--n", "20", "--k", "2", "--delta", "0.45", "--budget-scale=,"],
     "budget_scale must be nonempty"),
    *[([command, "--n", "100", "--k", "2", "--delta", "0.4", "--constant-c", "inf"],
       "constant_c must be finite, got inf") for command in ("simulate", "sweep")],
    *[([command, "--n", "30", "--k", "2", "--delta", "0.45", "--constant-c", c],
       f"constant_c must be positive, got {float(c)}")
      for command in ("sweep", "phase") for c in ("-1", "0")],
])
def test_invalid_configuration_exits_2_before_running(argv, message, no_run, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "20", "--k", "2", "--delta", "0.45", "--trials", "2"],
    ["phase", "--n", "20", "--k", "2", "--delta", "0.45", "--trials", "2"],
    ["lemma-check", "--n", "20", "--k", "2", "--delta", "0.3", "--trials", "10"],
], ids=["sweep", "phase", "lemma-check"])
@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
def test_unwritable_out_exits_2_before_running(argv, where, tmp_path, no_run, capsys):
    out = tmp_path / "no" / "such" / "x.csv" if where == "missing_dir" else tmp_path
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(out) in captured.err


def test_out_is_written_only_after_the_run(tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("old\n")
    argv = ["sweep", "--n", "20", "--k", "2", "--delta", "0.45", "--trials", "2",
            "--no-timing", "--out", str(out)]
    assert main([*argv[:-2], "--n", "3"]) == 2  # invalid: the file is left as it is
    assert out.read_text() == "old\n"
    assert main(argv) == 0
    assert out.read_text().startswith(CSV_HEADER)


def test_config_file_budget_scale_inf_exits_2(tmp_path, no_run, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("n_values = 30\nk_values = 2\ndelta_values = 0.45\n"
                      "budget_scale = inf\n")
    assert main(["sweep", "--config", str(config)]) == 2
    assert "budget_scale must be positive and finite" in capsys.readouterr().err


def test_config_file_constant_c_negative_exits_2(tmp_path, no_run, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text("n_values = 30\nk_values = 2\ndelta_values = 0.45\n"
                      "constant_c_values = -1\n")
    assert main(["sweep", "--config", str(config)]) == 2
    assert "constant_c must be positive, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "phase"])
@pytest.mark.parametrize("grid,first", [
    (["--n", "3", "--k", "2", "--delta", "0.3"],
     "(n=3, k=2, delta=0.3, c=40.0): need n >= 4 for a seeded split, got n=3"),
    (["--n", "30", "--k", "1", "--delta", "0.3"],
     "(n=30, k=1, delta=0.3, c=40.0): k must be an integer >= 2, got 1"),
    (["--n", "30", "--k", "2", "--delta", "0.9"],
     "(n=30, k=2, delta=0.9, c=40.0): delta must lie in (0, (k-1)/k] = (0, 0.5], got 0.9"),
], ids=["n_below_4", "k_below_2", "delta_above_max"])
def test_grid_with_no_valid_cell_exits_2(command, grid, first, no_run, capsys):
    # run_sweep would skip every cell and print only the header
    assert main([command, *grid, "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no cell of the grid is valid; the first, {first}\n"


_INTS = st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=8)
_FLOATS = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                   max_size=8)


@given(_INTS, _FLOATS)
def test_list_flags_round_trip(ints, floats):
    assert _int_list(",".join(map(str, ints))) == tuple(ints)
    assert _float_list(",".join(map(repr, floats))) == tuple(floats)


@pytest.mark.parametrize("flag,value", [("--n", "30,x"), ("--delta", "0.4,half"),
                                        ("--budget-scale", "one")])
def test_non_numeric_list_token_exits_2_through_argparse(flag, value, no_run, capsys):
    argv = ["sweep", "--n", "30", "--k", "2", "--delta", "0.45", flag, value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid" in err and repr(value) in err


@pytest.mark.parametrize("command,flag,value,kind,item", [
    ("sweep", "--n", "30,x", "integers", "x"),
    ("sweep", "--n", "30,2.5", "integers", "2.5"),
    ("sweep", "--delta", "0.4, half", "numbers", "half"),
    ("sweep", "--constant-c", "40,4o", "numbers", "4o"),
    ("phase", "--budget-scale", "1,0.5,y", "numbers", "y"),
])
def test_bad_comma_list_item_is_named(command, flag, value, kind, item, no_run, capsys):
    argv = [command, "--n", "30", "--k", "2", "--delta", "0.45", flag, value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert (f"argument {flag}: invalid value {value!r}: expected a comma list of "
            f"{kind}, got {item!r}") in err


# below-boundary cells of the sweep and phase cases: at n = 200, k = 2
# the boundary is 0.34, so delta 0.05 and 0.1 are below it, 0.45 is not
_CELLS_BELOW = {"sweep": 2, "phase": 3}


@pytest.mark.parametrize("argv", [
    ["mle-check", "--n", "6", "--k", "2", "--delta", "0.05", "--trials", "3"],
    ["simulate", "--n", "200", "--k", "2", "--delta", "0.05"],
    ["simulate", "--n", "200", "--k", "2", "--delta", "0.05", "--budget-scale", "0.5"],
    ["sweep", "--n", "200", "--k", "2", "--delta", "0.05,0.1,0.45", "--trials", "3"],
    ["phase", "--n", "200", "--k", "2", "--delta", "0.05,0.45", "--trials", "3",
     "--budget-scale", "1,0.5,0.05"],
])
def test_validity_warning_is_given_once(argv, capsys):
    # once per sized seed: per run, and per sweep or phase cell
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [w.category for w in caught] == \
        [ValidityRegimeWarning] * _CELLS_BELOW.get(argv[0], 1)
