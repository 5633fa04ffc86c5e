"""The package's exports and the README's quickstart stay in step with the code."""

import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import cycalign
from cycalign import (FaultyOracle, QueryPlan, QueryTranscript, analysis, cli, core,
                      harness, oracle, recovery)

ROOT = Path(__file__).resolve().parent.parent

# step functions and readers that copied the seed x rest pipeline;
# recover_from_transcript and QueryTranscript.lookup_oriented replace them;
# run_trial only took the outcome out of run_trial_detailed;
# noise_from_uniform only wrapped the oracle's inverse CDF for tests;
# log_likelihood counts its agreeing pairs without likelihood_split;
# sample_noise was a second noise source beside the oracle's hash
DELETED = ["plurality", "estimate_pairwise_diff", "align_seed", "extend_labels",
           "lookup_oriented", "run_trial", "noise_from_uniform",
           "likelihood_split", "LikelihoodSplit", "sample_noise"]


def test_all_names_are_unique_and_resolve():
    assert len(cycalign.__all__) == len(set(cycalign.__all__))
    for name in cycalign.__all__:
        assert getattr(cycalign, name) is not None, name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in cycalign.__all__
        for module in (cycalign, core, oracle, recovery, harness, analysis):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "cfg" not in inspect.signature(harness.run_mle_comparison).parameters
    assert not hasattr(QueryTranscript, "answers")
    assert not hasattr(FaultyOracle, "issued")
    assert not hasattr(FaultyOracle, "query")
    assert not hasattr(harness, "_cell_is_valid")
    # one batched trial path: no single-trial path beside _run_trials
    assert not hasattr(harness, "_seeded_trial")
    assert not hasattr(recovery, "_recover_seeded")
    # the plan alone holds the block-or-pairs form: one oracle answer
    # loop, one transcript constructor for oracle output, one position
    for owner, name in [(QueryTranscript, "_from_block"), (FaultyOracle, "_block_answers"),
                        (FaultyOracle, "_answers_for"), (core, "_block_position"),
                        (core, "_pair_position"), (core, "_encode_pairs")]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert not {"_s", "_pair_lo", "_pair_hi", "_keys"} & set(QueryTranscript.__slots__)
    # oriented_matrix reads only the seed x rest split: no general row
    # reader, no strided view, and no seed-size floor knob
    assert not hasattr(core, "as_strided")
    assert not hasattr(QueryPlan, "_row_starts")
    assert not hasattr(QueryPlan, "_rest_starts")
    assert "min_seed" not in {f.name for f in dataclasses.fields(recovery.SeedConfig)}
    # one constructor for plans of explicit pairs, and a plan's pairs
    # are listed only by its lo and hi arrays
    assert not hasattr(QueryPlan, "from_arrays")
    assert "__iter__" not in vars(QueryPlan)
    # the oracle's workers live for one call: no process-wide pool
    for name in ("_POOL", "_POOL_LOCK", "_drop_pool", "_pool"):
        assert not hasattr(oracle, name), f"oracle.{name}"
    # one window rule cuts the block (core._windows), and the vote
    # kernel picks its count by k alone
    for name in ("_part", "_BINCOUNT_VOTES_PER_PLANE"):
        assert not hasattr(recovery, name), f"recovery.{name}"
    # one exact tail engine: no grid pass per noise law beside it
    for name in ("tail_probabilities_exact", "_law_tails"):
        assert name not in cycalign.__all__
        for module in (cycalign, analysis, harness):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_deleted_names_are_not_mentioned():
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
               ROOT / "README.md"]
    for path in sources:
        text = path.read_text()
        for name in ("sample_noise", "from_arrays"):
            assert name not in text, f"{name} in {path.relative_to(ROOT)}"


def test_seed_config_holds_the_whole_seed_rule():
    # budget_scale is a SeedConfig field that seed_size applies, not a
    # trial keyword rewritten into explicit_size by the harness
    assert "budget_scale" in {f.name for f in dataclasses.fields(recovery.SeedConfig)}
    for name in ("_effective_config", "check_budget_scale"):
        assert not hasattr(harness, name), name
    assert "budget_scale" not in inspect.signature(harness.run_trial_detailed).parameters


def test_only_the_plan_reads_its_form():
    for module in (oracle, recovery, analysis, harness, cli):
        source = Path(module.__file__).read_text()
        assert not re.search(r"\._s\b", source), module.__name__


def test_only_the_window_rule_cuts_the_block():
    # the oracle's and the vote kernel's tiles are core._windows: no
    # stepped range, step or chunk size, or running offset beside it
    cut = re.compile(r"\brange\([^)]*,[^)]*,|\b(step|chunk)s?\s*=|\bat\s*\+=")
    for function in (recovery._plane_counts, recovery._bincount_counts, QueryPlan._tiles,
                     oracle._answer_rows):
        source = inspect.getsource(function)
        assert not cut.search(source), function.__qualname__
        assert ("_tiles(" if function is oracle._answer_rows else "_windows(") in source


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[0] == "True"
