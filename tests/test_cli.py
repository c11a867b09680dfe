import hashlib
import math

import numpy as np
import pytest

from eraser import cli, config, experiment
from eraser.cli import main

DESK_SMALL = """
[experiment]
variants = SISA,DIMP,SUTP
replications = 2
base_seed = 7
[workload]
n_unlearning = 30
n_inference = 300
[oracle]
num_shards = 10
[sim]
retrain_duration = 1.0
"""


# sha256 of artifacts on DESK_SMALL, and of the theory grid report, as the
# per-column writer that preceded experiment.write_csv wrote them
PINNED = {
    "summary.csv": "c1e303aa24883ba29c182dcc09edb9f9780e03c8820f210e10b85939ee2f0844",
    "sweep.csv": "58991a92555f3bdde309b1a8d8de8b4582f511623e8d4d2c035a1d7066e850ae",
    "workload.csv": "526045d076e8a7e8afe594c68956d0cb97cf054965cd8eb97102a3d0945d27c8",
    "theory-grid.csv": "bed2c7033e3af644e9a4f3f0db224450c71f676e4fba843c1bd6c4822fcba557",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(DESK_SMALL)
    return str(path)


def test_run_emits_the_three_artifacts(config_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", config_file, "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text()
    header = metrics.splitlines()[0]
    assert header == "variant,seed,awt,nor,uncertified_responses,p_uc,p50,p95,p99"
    assert len(metrics.splitlines()) == 1 + 3 * 2  # variants x replications
    assert (out / "requests.csv").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "variant,awt,awt_speedup_vs_sisa,nor,nor_ratio_vs_sisa"
    assert sha256(out / "summary.csv") == PINNED["summary.csv"]


def test_rerun_is_byte_identical(config_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", config_file, "--out", str(a)])
    main(["run", "--config", config_file, "--out", str(b)])
    for name in ("metrics.csv", "requests.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_parallel_jobs_match_serial(config_file, tmp_path):
    a, b = tmp_path / "serial", tmp_path / "parallel"
    main(["run", "--config", config_file, "--out", str(a)])
    main(["run", "--config", config_file, "--out", str(b), "--jobs", "3"])
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()


def test_each_replication_builds_its_workload_once(tmp_path, monkeypatch):
    # the eight variants of a seed share its workload
    seeds, build = [], config.ExperimentConfig.build_workload

    def counted(self, seed):
        seeds.append(seed)
        return build(self, seed)

    monkeypatch.setattr(config.ExperimentConfig, "build_workload", counted)
    path = tmp_path / "two-seeds.cfg"
    path.write_text("[experiment]\nreplications = 2\nbase_seed = 7\n"
                    "[workload]\nn_unlearning = 10\nn_inference = 100\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "metrics.csv").read_text().splitlines()) == 1 + 8 * 2
    assert seeds == [7, 8]


def test_a_variant_listed_twice_is_simulated_once(tmp_path, monkeypatch):
    names, run_sim = [], experiment.run_sim

    def counted(workload, variant, *args, **kwargs):
        names.append(variant.name)
        return run_sim(workload, variant, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_sim", counted)
    path = tmp_path / "twice.cfg"
    path.write_text("[experiment]\nvariants = DIMP,DIMP\n"
                    "[workload]\nn_unlearning = 10\nn_inference = 100\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "metrics.csv").read_text().splitlines()) == 2
    assert names == ["DIMP"]


def test_env_seed_changes_results(config_file, tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", config_file, "--out", str(a)])
    monkeypatch.setenv("ERASER_SEED", "900")
    main(["run", "--config", config_file, "--out", str(b)])
    assert (a / "metrics.csv").read_text() != (b / "metrics.csv").read_text()


def test_sweep_emits_one_block_per_value(config_file, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", config_file, "--param", "oracle.num_shards",
        "--values", "5,10", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("param,value,variant,seed")
    assert len(lines) == 1 + 2 * 3 * 2  # values x variants x replications
    assert sha256(out / "sweep.csv") == PINNED["sweep.csv"]


def test_config_error_is_reported_on_one_line(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[oracle]\naccuracy = 1.5\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eraser: [oracle] accuracy") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_verify_cert_exit_status_and_report(capsys):
    assert main(["verify-cert", "--trials", "2000", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "soundness violations           0" in out
    assert "dominance violations           0" in out


@pytest.mark.parametrize("argv, message", [
    (["--trials", "-5"], "eraser: trials must be >= 0, got -5"),
    (["--trials", "10", "--max-classes", "1"],
     "eraser: need max_shards >= 1 and max_classes >= 2"),
    (["--trials", "2000", "--max-shards", "14"],
     "eraser: 13 impacted shards exceed the enumeration cap of 12;"),
    # the parser follows numpy's 32-bit draws only; trials=0, so nothing is drawn
    (["--trials", "0", "--max-shards", str(2**32)],
     "eraser: need max_shards >= 1 and max_classes >= 2, both below 2**32"),
    (["--trials", "0", "--max-classes", str(2**32)],
     "eraser: need max_shards >= 1 and max_classes >= 2, both below 2**32"),
    (["--trials", "0", "--seed", "-1"], "eraser: seed must be >= 0, got -1"),
])
def test_verify_cert_bad_arguments_exit_2_on_one_line(capsys, argv, message):
    # exit 1 means a soundness or dominance violation was found
    assert main(["verify-cert", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and err.count("\n") == 1


def test_theory_subcommand_prints_formulas(capsys):
    assert main(["theory", "--n-u", "10", "--t", "100", "--r", "5", "--p-uc", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "expected_wait_sisa     1.25" in out
    assert "dimp_upper_bound       0.0125" in out


def test_theory_grid_report_is_pinned_on_stdout_and_in_out(tmp_path, capsys, monkeypatch):
    argv = ["theory", "--n-u", "10", "--t", "100", "--r", "5", "--grid"]
    out = tmp_path / "grid.csv"
    rows = []

    def simulate_once(*args, **kwargs):
        if not rows:
            rows.extend(experiment.compare_theory(*args, **kwargs))
        return rows

    monkeypatch.setattr(cli, "compare_theory", simulate_once)
    assert main([*argv, "--out", str(out)]) == 0
    formulas = ("expected_wait_sisa     1.25\ndimp_upper_bound       0.0\n"
                "dimp_series            0.0\n")
    assert capsys.readouterr() == (formulas, "")
    assert sha256(out) == PINNED["theory-grid.csv"]
    # stdout takes the same report; the grid is simulated once for both
    assert main(argv) == 0
    assert capsys.readouterr() == (formulas + out.read_text(), "")


def test_theory_out_without_grid_exits_2_before_printing(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["theory", "--n-u", "10", "--t", "100", "--r", "5", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "eraser: theory --out needs --grid\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--n-u", "0", "--t", "100", "--r", "5"], "n_u must be a positive integer"),
    (["--n-u", "10", "--t", "100", "--r", "5", "--p-uc", "2"], "p_uc must be in [0, 1], got 2.0"),
    (["--n-u", "10", "--t", "nan", "--r", "5"],
     "horizon and retrain_duration must be positive and finite"),
    (["--n-u", "10", "--t", "100", "--r", "inf", "--grid"],
     "horizon and retrain_duration must be positive and finite"),
])
def test_theory_bad_arguments_exit_2_on_one_line(capsys, argv, message):
    assert main(["theory", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"eraser: {message}\n"


def test_sweep_with_no_values_exits_2_on_one_line(config_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    argv = ["--config", config_file, "--param", "oracle.num_shards", "--values", " , "]
    assert main(["sweep", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "eraser: --values is empty\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config"],
        ["sweep", "--param", "oracle.num_shards", "--values", "5", "--config"],
        ["gen-workload", "--spec"],
    ],
    ids=["run", "sweep", "gen-workload"],
)
def test_missing_input_file_exits_2_on_one_line(tmp_path, capsys, argv):
    missing, out = tmp_path / "missing.cfg", tmp_path / "out"
    assert main([*argv, str(missing), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"eraser: cannot read config file {missing}: No such file or directory\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize(
    "argv",
    [["run"], ["sweep", "--param", "oracle.num_shards", "--values", "5"]],
    ids=["run", "sweep"],
)
def test_jobs_below_one_exit_2_on_one_line(config_file, tmp_path, capsys, argv, jobs):
    out = tmp_path / "out"
    code = main([*argv, "--config", config_file, "--out", str(out), "--jobs", str(jobs)])
    assert code == 2
    assert capsys.readouterr() == ("", f"eraser: --jobs must be at least 1, got {jobs}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["run"], ["sweep", "--param", "oracle.num_shards", "--values", "5"]],
    ids=["run", "sweep"],
)
def test_output_path_that_is_a_file_exits_2_before_simulating(
    config_file, tmp_path, capsys, monkeypatch, argv
):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the output path")

    monkeypatch.setattr(experiment, "_run_all", no_simulation)
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main([*argv, "--config", config_file, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"eraser: cannot write {out}: File exists\n")
    assert out.read_text() == "kept\n"


def test_gen_workload_into_a_missing_directory_exits_2_on_one_line(
    config_file, tmp_path, capsys
):
    out = tmp_path / "missing" / "wl.csv"
    assert main(["gen-workload", "--spec", config_file, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"eraser: cannot write {out}: No such file or directory\n"
    )


def test_theory_grid_into_a_missing_directory_exits_2_on_one_line(
    tmp_path, capsys, monkeypatch
):
    # the grid's simulations are beside the point: a one-row report stands in
    monkeypatch.setattr(cli, "compare_theory", lambda *args, **kwargs: [{"r": 0.5}])
    out = tmp_path / "missing" / "grid.csv"
    argv = ["theory", "--n-u", "10", "--t", "100", "--r", "5", "--grid", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"eraser: cannot write {out}: No such file or directory\n"


@pytest.mark.parametrize("command", ["theory", "gen-workload"])
def test_unwritable_out_exits_2_before_simulating_or_generating(
    config_file, tmp_path, capsys, monkeypatch, command
):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the output path")

    monkeypatch.setattr(cli, "compare_theory", no_work)
    monkeypatch.setattr(config.ExperimentConfig, "build_workload", no_work)
    out = tmp_path / "missing" / "out.csv"
    argv = {
        "theory": ["theory", "--n-u", "10", "--t", "100", "--r", "5", "--grid"],
        "gen-workload": ["gen-workload", "--spec", config_file],
    }[command]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"eraser: cannot write {out}: No such file or directory\n")


def test_gen_workload_writes_the_csv(config_file, tmp_path, capsys):
    out = tmp_path / "wl.csv"
    assert main(["gen-workload", "--spec", config_file, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "request_id,kind,arrival,shard_or_sample,is_noise"
    assert [int(row.split(",")[0]) for row in rows] == list(range(330))
    assert sha256(out) == PINNED["workload.csv"]


def test_csv_columns_are_written_as_their_cells_format(tmp_path):
    # every cell is its str: a float, numpy's too, as its shortest repr
    rows = [("DIMP", 1, 0.1, np.float64(2.5), True, 3, "x"),
            ("SISA", 22, 1e-20, np.float64(3.0), False, 4.0, 5)]
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8") as out:
        experiment.write_csv(out, "abcdefg", rows)
    assert path.read_text() == (
        "a,b,c,d,e,f,g\nDIMP,1,0.1,2.5,True,3,x\nSISA,22,1e-20,3.0,False,4.0,5\n"
    )
    for bad in ([(1.0,), (math.inf,)], [(1,), (math.nan,)],
                [("nan", 2.0, 0.5), ("x", -math.inf, 1.5)], [(0.5, np.float64(math.nan))]):
        with open(path, "w", encoding="utf-8") as out:
            with pytest.raises(ValueError, match="non-finite value (-?inf|nan)"):
                experiment.write_csv(out, "abc", bad)
        assert path.read_text() == ""
    # a str cell that reads inf or nan is text, not a non-finite float
    with open(path, "w", encoding="utf-8") as out:
        experiment.write_csv(out, "ab", [("inf", "nan"), ("inference", 1.0)])
    assert path.read_text() == "a,b\ninf,nan\ninference,1.0\n"


def test_default_config_covers_all_eight_variants(tmp_path):
    cfg = tmp_path / "default.cfg"
    cfg.write_text("[experiment]\nreplications = 1\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 9
    by_variant = {row.split(",")[0]: row.split(",") for row in lines[1:]}
    assert set(by_variant) == {"SISA", "DIMP", "SUTP", "DUTP", "STTU", "DTTU", "STTP", "DTTP"}
    assert by_variant["SISA"][3] == "500" and by_variant["DIMP"][3] == "500"


def test_theory_comparison_rows(tmp_path):
    from eraser.config import build_experiment_config, parse_config_text
    from eraser.experiment import compare_theory

    base = build_experiment_config(parse_config_text(
        "[workload]\nn_unlearning = 10\nhorizon = 100.0\n[sim]\nretrain_duration = 5.0\n"
    ))
    rows = compare_theory(base, [5.0, 20.0], n_inference=5000, seed=3)
    assert [row["r"] for row in rows] == [5.0, 20.0]
    assert rows[0]["sisa_formula"] == pytest.approx(1.25)
    assert rows[1]["sisa_formula"] == pytest.approx(15.0)
    for row in rows:
        assert row["sisa_rel_error"] < 0.05
        assert row["dimp_simulated"] <= row["dimp_bound"] * 1.05 + 1e-12
        assert row["dimp_series"] <= row["dimp_bound"] * (1 + 1e-9) + 1e-15


def test_sweep_checks_every_value_before_it_simulates(config_file, tmp_path, capsys, monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking every value")

    monkeypatch.setattr(experiment, "_run_all", no_simulation)
    out = tmp_path / "sweep"
    argv = ["--config", config_file, "--param", "oracle.num_shards", "--values", "10,20,0"]
    assert main(["sweep", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eraser: [oracle] num_shards") and err.count("\n") == 1
    assert not out.exists()
