"""Command-line harness: flags, outputs, determinism, exit codes."""
import numpy as np
import pytest

from levsketch import read_matrix_csv, read_report_csv, standard_normal, stream, write_matrix_csv
from levsketch.cli import RunConfig, main, parse_argv


def run(argv):
    return main([str(a) for a in argv])


def meta_floats(path):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


@pytest.mark.parametrize("cfg", [
    RunConfig(command="gen", output="x.csv", family="example2", m=(64,),
              n=16, r=3, kappa=2.5, a=2, b=7, seed=5),
    RunConfig(command="gen", output="y.csv", family="example1", m=(40,),
              n=10, zero=3, seed=1),
    RunConfig(command="compare", output="r.csv", input="x.csv", seed=9,
              trials=3, epsilon=0.25, delta=0.05, k=4, p=30,
              mode="sampled-dot", rows=(1, 5, 9)),
    RunConfig(command="compare", output="r.csv", input="x.csv"),
    RunConfig(command="concentration", output="c.csv", input="x.csv",
              theta=0.75, p=50, trials=20, seed=2),
    RunConfig(command="bench", output="b.csv", m=(100, 200), n=8, zero=2,
              p=12, k=3, trials=2, seed=7),
])
def test_config_round_trip(cfg):
    assert parse_argv(cfg.to_argv()) == cfg


def test_gen_example1_rank_metadata(tmp_path, capsys):
    out = tmp_path / "e1.csv"
    assert run(["gen", "--family", "example1", "--m", 200, "--n", 50,
                "--zero", 20, "--seed", 1, "-o", out]) == 0
    assert "rank=30" in capsys.readouterr().out
    a, meta = read_matrix_csv(out)
    assert a.shape == (200, 50)
    assert meta["rank"] == 30
    assert meta["family"] == "example1"
    assert meta["frob_norm"] == pytest.approx(float(np.sqrt((a * a).sum())),
                                              rel=1e-12)


def test_gen_example2_unit_kappa_reported(tmp_path):
    out = tmp_path / "e2.csv"
    assert run(["gen", "--family", "example2", "--m", 60, "--n", 16,
                "--r", 4, "--kappa", 1.0, "--seed", 2, "-o", out]) == 0
    _, meta = read_matrix_csv(out)
    assert meta["rank"] == 4
    assert meta["kappa_target"] == 1.0
    assert meta["kappa"] == pytest.approx(1.0, rel=1e-6)


def test_gen_missing_output_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["gen", "--m", 8, "--n", 4])
    assert exc.value.code == 2


def test_gen_multiple_m_rejected(tmp_path, capsys):
    assert run(["gen", "--m", "8,12", "--n", 4,
                "-o", tmp_path / "x.csv"]) == 2
    assert "single --m" in capsys.readouterr().err


def test_compare_covers_every_row(tmp_path, capsys):
    mat = tmp_path / "big.csv"
    run(["gen", "--family", "example1", "--m", 1000, "--n", 100,
         "--zero", 70, "--seed", 4, "-o", mat])
    rep_path = tmp_path / "rep.csv"
    capsys.readouterr()
    assert run(["compare", mat, "--p", 60, "--k", 20, "--seed", 3,
                "-o", rep_path]) == 0
    out = capsys.readouterr().out
    assert "oracle-assisted:" in out
    assert "rows=1000 trials=1" in out
    rep = read_report_csv(rep_path)
    assert rep.rows.size == 1000
    np.testing.assert_array_equal(np.sort(rep.rows), np.arange(1000))
    assert rep.exact is not None and rep.abs_err is not None


def test_compare_rank_one_is_tight(tmp_path):
    mat = tmp_path / "r1.csv"
    run(["gen", "--family", "example2", "--m", 80, "--n", 20, "--r", 1,
         "--kappa", 1.0, "--seed", 2, "-o", mat])
    rep_path = tmp_path / "rep.csv"
    assert run(["compare", mat, "--k", 1, "--p", 16, "--trials", 2,
                "-o", rep_path]) == 0
    rep = read_report_csv(rep_path)
    assert rep.abs_err.max() <= 1e-6


def test_compare_row_subset_one_based(tmp_path):
    mat = tmp_path / "r1.csv"
    run(["gen", "--family", "example2", "--m", 80, "--n", 20, "--r", 1,
         "--kappa", 1.0, "--seed", 2, "-o", mat])
    rep_path = tmp_path / "rep.csv"
    assert run(["compare", mat, "--k", 1, "--p", 16, "--rows", "1,5,7",
                "-o", rep_path]) == 0
    rep = read_report_csv(rep_path)
    np.testing.assert_array_equal(rep.rows, [0, 4, 6])
    data_lines = [l for l in rep_path.read_text().splitlines()
                  if l and not l.startswith("#") and not l.startswith("i,")]
    assert [l.split(",")[0] for l in data_lines] == ["1", "5", "7"]


def test_compare_same_path_rejected(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, np.eye(3))
    assert run(["compare", mat, "-o", mat]) == 2
    assert "distinct" in capsys.readouterr().err


def test_compare_missing_input_exits_one(tmp_path):
    assert run(["compare", tmp_path / "absent.csv",
                "-o", tmp_path / "rep.csv"]) == 1


def test_compare_reruns_byte_identical(tmp_path, monkeypatch):
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, standard_normal(stream(15), (24, 8)))
    outs = [tmp_path / f"rep{i}.csv" for i in range(3)]
    argv = ["compare", mat, "--p", 12, "--k", 2, "--trials", 3, "--seed", 5]
    run(argv + ["-o", outs[0]])
    run(argv + ["-o", outs[1]])
    monkeypatch.setenv("LEVSKETCH_THREADS", "4")
    run(argv + ["-o", outs[2]])
    b0 = outs[0].read_bytes()
    assert outs[1].read_bytes() == b0
    assert outs[2].read_bytes() == b0


def test_compare_unconverged_svd_exits_two(tmp_path, capsys, monkeypatch):
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, standard_normal(stream(15), (24, 8)))
    monkeypatch.setattr("levsketch.svd._MAX_SWEEPS", 1)
    assert run(["compare", mat, "--p", 12, "--k", 2,
                "-o", tmp_path / "rep.csv"]) == 2
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert err.count("\n") == 1


@pytest.fixture
def gaussian_csv(tmp_path):
    path = tmp_path / "g.csv"
    write_matrix_csv(path, standard_normal(stream(8), (20, 10)))
    return path


def test_concentration_bound_holds(tmp_path, gaussian_csv):
    out = tmp_path / "conc.csv"
    assert run(["concentration", gaussian_csv, "--theta", 0.5, "--p", 100,
                "--trials", 50, "--seed", 44, "-o", out]) == 0
    meta = meta_floats(out)
    assert meta["bound"] == pytest.approx(0.04, rel=1e-12)
    assert meta["exceed_aat"] <= 0.07
    assert meta["exceed_wtw"] <= 0.07
    lines = out.read_text().splitlines()
    assert "trial,aat_ratio,wtw_ratio" in lines
    data = [l for l in lines if l and not l.startswith(("#", "trial,"))]
    assert len(data) == 50
    assert data[0].split(",")[0] == "1"


def test_concentration_huge_theta_never_exceeded(tmp_path, gaussian_csv):
    out = tmp_path / "conc.csv"
    assert run(["concentration", gaussian_csv, "--theta", 100.0, "--p", 20,
                "--trials", 10, "-o", out]) == 0
    meta = meta_floats(out)
    assert meta["exceed_aat"] == 0.0
    assert meta["exceed_wtw"] == 0.0


def test_concentration_vacuous_bound_still_runs(tmp_path, gaussian_csv):
    out = tmp_path / "conc.csv"
    assert run(["concentration", gaussian_csv, "--theta", 1.0, "--p", 1,
                "--trials", 5, "-o", out]) == 0
    assert meta_floats(out)["bound"] == 1.0


def test_concentration_rejects_bad_theta(tmp_path, gaussian_csv):
    assert run(["concentration", gaussian_csv, "--theta", -1.0, "--p", 10,
                "--trials", 2, "-o", tmp_path / "c.csv"]) == 2


def test_concentration_reruns_byte_identical(tmp_path, gaussian_csv):
    outs = [tmp_path / f"c{i}.csv" for i in range(2)]
    argv = ["concentration", gaussian_csv, "--theta", 0.5, "--p", 30,
            "--trials", 8, "--seed", 6]
    run(argv + ["-o", outs[0]])
    run(argv + ["-o", outs[1]])
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_bench_header_and_constant_per_score_queries(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run(["bench", "--m", "64,256", "--n", 8, "--zero", 2, "--p", 8,
                "--k", 2, "--trials", 2, "--seed", 1, "-o", out]) == 0
    assert "queries_per_score=" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert "m,n,queries,wall_ms" in lines
    data = [l.split(",") for l in lines
            if l and not l.startswith(("#", "m,"))]
    assert [row[0] for row in data] == ["64", "256"]
    queries = [float(row[2]) for row in data]
    # the per-score cost is exactly the p entry reads of one sketch row
    assert queries[0] == queries[1] == 8.0


def test_bench_zero_trials_usage_error(tmp_path):
    assert run(["bench", "--m", "64", "--n", 8, "--zero", 2, "--trials", 0,
                "-o", tmp_path / "b.csv"]) == 2


def test_bench_rerun_identical_except_wall_ms(tmp_path):
    outs = [tmp_path / f"b{i}.csv" for i in range(2)]
    argv = ["bench", "--m", "64", "--n", 8, "--zero", 2, "--p", 8,
            "--k", 2, "--seed", 3]
    run(argv + ["-o", outs[0]])
    run(argv + ["-o", outs[1]])
    first = outs[0].read_text().splitlines()
    second = outs[1].read_text().splitlines()
    assert len(first) == len(second)
    for a, b in zip(first, second):
        if a.startswith(("#", "m,")):
            assert a == b
        else:
            assert a.split(",")[:3] == b.split(",")[:3]
