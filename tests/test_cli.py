import json
import shutil
import time

import numpy as np
import pytest

from conftest import stdout_at_blas_threads
from stratify import cli, pipeline

EDX_HEADER = ("age,gender,country,viewed,explored,ndays_act,nevents,nplay_video,"
              "nchapters,nforum_posts,certified")


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> ingest once; later tests reuse the cleaned data."""
    root = tmp_path_factory.mktemp("flow")
    synth_dir = root / "synth"
    assert run_cli("synth", "--profile", "separated2", "--n", 900, "--seed", 3,
                   "--out", synth_dir) == 0
    ingest_dir = root / "ingest"
    assert run_cli("ingest", "--data", synth_dir / "synth_cohort.csv",
                   "--out", ingest_dir) == 0
    return root


def test_synth_writes_cohort_with_true_pattern(workspace):
    path = workspace / "synth" / "synth_cohort.csv"
    header = path.read_text().splitlines()[0]
    assert header == EDX_HEADER + ",true_pattern"
    manifest = json.loads((workspace / "synth" / "manifest.json").read_text())
    assert "synth_cohort.csv" in manifest["artifacts"]


def test_synth_unknown_profile_exits_2_naming_the_profiles(tmp_path, capsys):
    for profile in ("foo", "separated", "separatedx"):
        assert run_cli("synth", "--profile", profile, "--n", 50, "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert profile in err and "edx" in err and "separated<K>" in err
    assert not (tmp_path / "bad").exists()
    for profile in ("edx", "separated1", "separated3"):
        assert run_cli("synth", "--profile", profile, "--n", 50, "--out", tmp_path / profile) == 0


def test_ingest_artifacts(workspace):
    ingest_dir = workspace / "ingest"
    assert (ingest_dir / "clean.csv").exists()
    assert (ingest_dir / "preprocess.json").exists()
    lines = (ingest_dir / "clean.csv").read_text().splitlines()
    assert len(lines) == 901


def test_ingest_missing_column_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("age,gender\n30,m\n")
    assert run_cli("ingest", "--data", bad, "--out", tmp_path / "out") == 2


def test_ingest_missing_file_exits_2(tmp_path):
    assert run_cli("ingest", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("command", ["cluster", "run"])
@pytest.mark.parametrize("edit, message", [
    (lambda cells: cells.__setitem__(6, "many"), "'many' in column 'nevents' at data row 3"),
    (lambda cells: cells.pop(), "data row 3 has 10 cells"),
], ids=["bad-cell", "short-row"])
def test_bad_encoded_csv_exits_2_naming_the_row(workspace, tmp_path, capsys, command, edit,
                                                 message):
    lines = (workspace / "ingest" / "clean.csv").read_text().splitlines()
    cells = lines[3].split(",")
    edit(cells)
    lines[3] = ",".join(cells)
    bad = tmp_path / "clean.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli(command, "--data", bad, "--out", tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cluster_default_range_and_fixed(workspace, tmp_path):
    clean = workspace / "ingest" / "clean.csv"
    out = tmp_path / "cluster"
    assert run_cli("cluster", "--data", clean, "--out", out, "--seed", 1,
                   "--k-max", 5, "--restarts", 4) == 0
    kselect = json.loads((out / "kselect.json").read_text())
    assert kselect["k_range"] == [2, 5]
    assert kselect["winner"] == 2
    for idx, kv in kselect["values"].items():
        assert set(kv) == {"2", "3", "4", "5"}
    patterns = (out / "patterns.csv").read_text().splitlines()
    assert len(patterns) == 901

    fixed = tmp_path / "fixed"
    assert run_cli("cluster", "--data", clean, "--out", fixed, "--seed", 1,
                   "--k-fixed", 3) == 0
    assert not (fixed / "kselect.json").exists()


@pytest.fixture(scope="module")
def run_dir(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = {
        "seed": 5, "k_fixed": 2, "algorithms": ["GBT", "DT"], "bootstrap_b": 40,
        "kmeans": {"restarts": 3, "max_iter": 80, "tol": 1e-6},
    }
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run_cli("run", "--data", workspace / "ingest" / "clean.csv",
                   "--config", cfg_path, "--out", out / "a")
    assert code == 0
    return out


def test_run_artifacts(run_dir):
    a = run_dir / "a"
    for rel in ("patterns.csv", "comparison.json", "demographics.csv", "run_state.json",
                "manifest.json", "integration/pooled/GBT/metrics.json",
                "integration/pattern0/GBT/roc_points.csv",
                "integration/pattern0/GBT/violin_samples.csv",
                "direct/GBT/metrics.json",
                "direct/separated/pattern0/GBT/metrics.json",
                "models/pattern0/GBT.json", "models/direct/DT.json"):
        assert (a / rel).exists(), rel
    metrics = json.loads((a / "integration/pooled/GBT/metrics.json").read_text())
    assert set(metrics) >= {"confusion", "positive", "weighted", "auc", "flags"}
    comparison = json.loads((a / "comparison.json").read_text())
    assert "GBT" in comparison["overall"]


def test_rerun_reproduces_checksums(workspace, run_dir):
    cfg_path = run_dir / "config.json"
    assert run_cli("run", "--data", workspace / "ingest" / "clean.csv",
                   "--config", cfg_path, "--out", run_dir / "b") == 0
    m_a = json.loads((run_dir / "a" / "manifest.json").read_text())
    m_b = json.loads((run_dir / "b" / "manifest.json").read_text())
    assert m_a["artifacts"] == m_b["artifacts"]


def test_reference_run_digest_does_not_depend_on_the_blas_thread_count():
    # SVC's Gram matrix, the neighbor search and the pair distances of the K
    # vote once changed bits between 1 and 2 OpenBLAS threads
    one, two = stdout_at_blas_threads(["tools/reference_run.py"])
    assert one.startswith("156 artifacts") and one == two


def test_config_seed_applies_without_seed_flag(workspace, run_dir, tmp_path):
    manifest = json.loads((run_dir / "a" / "manifest.json").read_text())
    assert manifest["seed"] == manifest["config"]["seed"] == 5
    assert json.loads((run_dir / "a" / "run_state.json").read_text())["config"]["seed"] == 5
    out = tmp_path / "flag"
    assert run_cli("run", "--data", workspace / "ingest" / "clean.csv", "--config",
                   run_dir / "config.json", "--arm", "direct", "--seed", 7, "--out", out) == 0
    assert json.loads((out / "run_state.json").read_text())["config"]["seed"] == 7


@pytest.mark.parametrize("k_args", [("--k-fixed", 2), ("--k-max", 4)])
def test_cluster_and_run_share_stage1(workspace, tmp_path, k_args):
    clean = workspace / "ingest" / "clean.csv"
    assert run_cli("cluster", "--data", clean, "--seed", 4, "--restarts", 3, *k_args,
                   "--out", tmp_path / "cluster") == 0
    cfg = {"algorithms": ["DT"], "bootstrap_b": 0, "kmeans": {"restarts": 3}}
    cfg.update({"k_fixed": 2} if k_args[0] == "--k-fixed" else {"k_range": [2, 4]})
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run_cli("run", "--data", clean, "--config", tmp_path / "cfg.json", "--arm", "direct",
                   "--seed", 4, "--out", tmp_path / "run") == 0
    for rel in ("patterns.csv", "kselect.json"):
        cluster_out, run_out = tmp_path / "cluster" / rel, tmp_path / "run" / rel
        assert cluster_out.exists() == run_out.exists()
        if cluster_out.exists():
            assert cluster_out.read_bytes() == run_out.read_bytes()
    assert (tmp_path / "run" / "patterns.csv").exists()


def test_explain_outputs(run_dir):
    assert run_cli("explain", "--run-dir", run_dir / "a", "--pattern", 0,
                   "--n-explain", 12, "--background", 20) == 0
    base = run_dir / "a" / "explain" / "pattern0"
    importance = (base / "importance.csv").read_text().splitlines()
    assert importance[0] == "feature,gain_share,rank"
    assert len(importance) == 8  # seven behavior features
    shap_lines = (base / "shap_values.csv").read_text().splitlines()
    assert shap_lines[0] == "feature,sample,shap_value,feature_value,value_percentile"
    assert len(shap_lines) == 1 + 7 * 12
    shares = sorted(float(r.split(",")[1]) for r in importance[1:])
    assert shares[-1] > 0 and abs(sum(shares) - 1.0) < 1e-9


def test_run_misspelt_hyperparameter_exits_2_before_stage1(workspace, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"direct_hparams": {"DT": {"min_splt": 2}}}))
    assert run_cli("run", "--data", workspace / "ingest" / "clean.csv",
                   "--config", cfg_path, "--out", tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("hparams", [{"RF": {"feature_subsample": "log2"}},
                                     {"RF": {"min_leaf": 0}}, {"GBT": {"min_leaf": -3}},
                                     {"GBT": {"learning_rate": 1e309}}, {"MLP": {"batch_size": 0}},
                                     {"LR": {"reg_factor": "10"}}, {"LR": {"max_iter": 0}},
                                     {"MLP": {"max_epochs": 0}}])
def test_run_out_of_range_hyperparameter_exits_2_before_stage1(workspace, tmp_path, hparams):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"direct_hparams": hparams}))
    assert run_cli("run", "--data", workspace / "ingest" / "clean.csv",
                   "--config", cfg_path, "--out", tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [{"threshold": 2}, {"kmeans": {"restarts": 0}},
                                 {"smote": {"k_neighbors": 0}}, {"split_ratio": 1.5},
                                 {"bootstrap_b": -5}, {"seed": 1.5}, {"k_range": [5, 2]},
                                 {"k_range": [2, 2000]}, {"k_fixed": 5000}])
def test_run_out_of_range_config_exits_2_before_stage1(workspace, tmp_path, doc):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert run_cli("run", "--data", workspace / "ingest" / "clean.csv",
                   "--config", cfg_path, "--out", tmp_path / "out") == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [("--restarts", 0), ("--k-min", 5, "--k-max", 2),
                                   ("--k-min", 1), ("--k-max", 5000), ("--k-fixed", 5000)])
def test_cluster_out_of_range_flag_exits_2_before_stage1(workspace, tmp_path, flags):
    assert run_cli("cluster", "--data", workspace / "ingest" / "clean.csv",
                   "--out", tmp_path / "out", *flags) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [("--pattern", 9), ("--pattern", 1, "--n-explain", 0),
                                  ("--pattern", 1, "--n-explain", -5),
                                  ("--pattern", 1, "--background", 0),
                                  ("--pattern", 1, "--background", -1)],
                         ids=["missing-pattern", "n-explain-0", "n-explain-negative",
                              "background-0", "background-negative"])
def test_explain_missing_pattern_exits_2(run_dir, args):
    assert run_cli("explain", "--run-dir", run_dir / "a", *args) == 2
    assert not (run_dir / "a" / "explain" / f"pattern{args[1]}").exists()


def test_explain_run_naming_a_removed_key_exits_2(run_dir, tmp_path):
    # a run directory written before GBT max_iterations was removed
    old = tmp_path / "old"
    shutil.copytree(run_dir / "a", old, ignore=shutil.ignore_patterns("explain"))
    state = json.loads((old / "run_state.json").read_text())
    state["config"]["pattern_hparams"][0]["GBT"]["max_iterations"] = 50
    (old / "run_state.json").write_text(json.dumps(state))
    assert run_cli("explain", "--run-dir", old, "--pattern", 0) == 2
    assert not (old / "explain").exists()


def test_run_arm_selection(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 2, "k_fixed": 2, "algorithms": ["DT"],
                               "bootstrap_b": 0}))
    out = tmp_path / "direct_only"
    assert run_cli("run", "--data", workspace / "ingest" / "clean.csv",
                   "--config", cfg, "--arm", "direct", "--out", out) == 0
    assert (out / "direct/DT/metrics.json").exists()
    assert not (out / "comparison.json").exists()
    assert not (out / "integration").exists()


def test_run_separates_the_direct_arm_by_pattern_once(workspace, tmp_path, monkeypatch):
    # the direct arm's per-pattern reports and comparison.json read one separation
    calls = []
    real = pipeline.separate_by_pattern
    monkeypatch.setattr(pipeline, "separate_by_pattern",
                        lambda *args: calls.append(args) or real(*args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 2, "k_fixed": 2, "algorithms": ["DT"],
                               "bootstrap_b": 0}))
    out = tmp_path / "both"
    assert run_cli("run", "--data", workspace / "ingest" / "clean.csv",
                   "--config", cfg, "--out", out) == 0
    assert len(calls) == 1
    assert (out / "comparison.json").exists() and (out / "direct/separated").is_dir()


def test_degenerate_pattern_run_exits_3(tmp_path):
    # one cluster is entirely negative: the run completes but flags it
    rng = np.random.default_rng(0)
    rows = []
    for i in range(80):
        far = i < 30
        rows.append([30.0, "m", "C1", 1, int(far), 40 if far else 2, 50 if far else 3,
                     1, 8 if far else 1, 0, 0 if far else int(rng.random() < 0.4)])
    csv_path = tmp_path / "degenerate.csv"
    lines = [EDX_HEADER] + [",".join(map(str, r)) for r in rows]
    csv_path.write_text("\n".join(lines) + "\n")
    ingest = tmp_path / "ing"
    assert run_cli("ingest", "--data", csv_path, "--out", ingest) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "k_fixed": 2, "algorithms": ["DT"],
                               "bootstrap_b": 0}))
    code = run_cli("run", "--data", ingest / "clean.csv", "--config", cfg,
                   "--out", tmp_path / "runout")
    assert code == 3


def test_smoke_run_all_algorithms_under_60s(tmp_path):
    t0 = time.time()
    synth = tmp_path / "synth"
    assert run_cli("synth", "--profile", "separated2", "--n", 2000, "--seed", 9,
                   "--out", synth) == 0
    ingest = tmp_path / "ingest"
    assert run_cli("ingest", "--data", synth / "synth_cohort.csv", "--out", ingest) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "k_fixed": 2, "bootstrap_b": 100,
                               "kmeans": {"restarts": 3, "max_iter": 100, "tol": 1e-6}}))
    assert run_cli("run", "--data", ingest / "clean.csv", "--config", cfg,
                   "--out", tmp_path / "run") == 0
    assert time.time() - t0 < 60.0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--version"])
    assert e.value.code == 0
