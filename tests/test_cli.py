"""Command-line harness: flags, outputs, determinism, exit codes."""
import hashlib
import warnings
from pathlib import Path

import numpy as np
import pytest

from levsketch import (gen_example2, read_matrix_csv, read_report_csv,
                       standard_normal, stream, svd_dense, write_matrix_csv)
from levsketch.cli import main, parse_argv

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("argv, expected", [
    ("gen --family example2 --m 64 --n 16 --r 3 --kappa 2.5 --a 2 --b 7 "
     "--seed 5 -o x.csv",
     dict(command="gen", family="example2", m=(64,), n=16, zero=0, r=3,
          kappa=2.5, a=2, b=7, seed=5, output="x.csv")),
    ("gen --family example1 --m 40 --n 10 --zero 3 --seed 1 -o y.csv",
     dict(command="gen", family="example1", m=(40,), n=10, zero=3, r=10,
          kappa=1.0, a=1, b=10, seed=1, output="y.csv")),
    ("compare x.csv --seed 9 --trials 3 --epsilon 0.25 --delta 0.05 --k 4 "
     "--p 30 --mode sampled-dot --rows 1,5,9 -o r.csv",
     dict(command="compare", input="x.csv", seed=9, trials=3, epsilon=0.25,
          delta=0.05, k=4, p=30, mode="sampled-dot", rows=(1, 5, 9),
          output="r.csv")),
    ("compare x.csv -o r.csv",
     dict(command="compare", input="x.csv", seed=0, trials=1, epsilon=0.5,
          delta=0.1, k=10, p=None, mode="exact-dot", rows=None,
          output="r.csv")),
    ("concentration x.csv --theta 0.75 --p 50 --trials 20 --seed 2 -o c.csv",
     dict(command="concentration", input="x.csv", theta=0.75, p=50,
          trials=20, seed=2, output="c.csv")),
    ("bench --m 100,200 --n 8 --zero 2 --p 12 --k 3 --trials 2 --seed 7 "
     "-o b.csv",
     dict(command="bench", m=(100, 200), n=8, zero=2, p=12, k=3, trials=2,
          seed=7, output="b.csv")),
    ("bench -o b.csv",
     dict(command="bench", m=(1000, 4000, 16000), n=100, zero=70, p=60,
          k=20, trials=1, seed=0, output="b.csv")),
], ids=["gen-example2", "gen-example1", "compare", "compare-defaults",
        "concentration", "bench", "bench-defaults"])
def test_argv_parses_to_flags(argv, expected):
    # every flag of the subcommand, given or defaulted, and no other
    assert vars(parse_argv(argv.split())) == expected


def test_readme_command_lines_parse():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line.split()[1:] for line in block.split("```", 1)[0].splitlines()
             if line.startswith("levsketch ")]
    assert sorted(parse_argv(argv).command for argv in lines) == [
        "bench", "compare", "concentration", "gen"]


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


@pytest.mark.parametrize("kappa", ["inf", "nan"])
def test_gen_non_finite_kappa_exits_two(tmp_path, capsys, kappa):
    assert run(["gen", "--family", "example2", "--m", 10, "--n", 8,
                "--r", 3, "--kappa", kappa, "-o", tmp_path / "g.csv"]) == 2
    err = capsys.readouterr().err
    assert "kappa must" in err
    assert err.count("\n") == 1


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


def test_gen_and_compare_run_one_oracle_svd_each(tmp_path, monkeypatch):
    import levsketch.oracle
    calls = []
    real = levsketch.oracle.svd_dense
    monkeypatch.setattr(levsketch.oracle, "svd_dense",
                        lambda a: calls.append(a.shape) or real(a))
    mat = tmp_path / "m.csv"
    assert run(["gen", "--family", "example2", "--m", 40, "--n", 10,
                "--r", 3, "--seed", 1, "-o", mat]) == 0
    assert calls == [(40, 10)]
    assert run(["compare", mat, "--p", 12, "--k", 2,
                "-o", tmp_path / "rep.csv"]) == 0
    assert calls == [(40, 10), (40, 10)]


def test_compare_missing_input_exits_one(tmp_path):
    assert run(["compare", tmp_path / "absent.csv",
                "-o", tmp_path / "rep.csv"]) == 1


def test_compare_reruns_byte_identical(tmp_path):
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, standard_normal(stream(15), (24, 8)))
    outs = [tmp_path / f"rep{i}.csv" for i in range(3)]
    argv = ["compare", mat, "--p", 12, "--k", 2, "--trials", 3, "--seed", 5]
    run(argv + ["-o", outs[0]])
    run(argv + ["-o", outs[1]])
    run(argv + ["-o", outs[2]])
    b0 = outs[0].read_bytes()
    assert outs[1].read_bytes() == b0
    assert outs[2].read_bytes() == b0


def test_compare_unconverged_svd_exits_two(tmp_path, capsys, monkeypatch):
    # singular values graded by 100 and mixed over the columns: a Gaussian
    # input, or one graded by 10, converges in one sweep, so one sweep
    # would not fail
    graded = (standard_normal(stream(15), (24, 8))
              @ np.diag(100.0 ** -np.arange(8.0))
              @ standard_normal(stream(16), (8, 8)))
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, graded)
    assert svd_dense(read_matrix_csv(mat)[0]).sweeps >= 2
    monkeypatch.setattr("levsketch.svd._MAX_SWEEPS", 1)
    assert run(["compare", mat, "--p", 12, "--k", 2,
                "-o", tmp_path / "rep.csv"]) == 2
    err = capsys.readouterr().err
    assert "did not converge" in err
    assert err.count("\n") == 1


def test_sampled_dot_row_whose_group_size_underflows(tmp_path, capsys):
    # row 8's squared norm is subnormal, so 6 / xi^2 is 0 draws a group;
    # each of its groups still takes one draw of its own
    a = gen_example2(80, 20, 5, 1.0, 1, 10, 3)
    a[7] *= 1e-157
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, a)
    argv = ["compare", mat, "--p", 10, "--k", 4, "--mode", "sampled-dot"]
    assert run(argv + ["--rows", 8, "-o", tmp_path / "one.csv"]) == 0
    assert run(argv + ["--trials", 3, "-o", tmp_path / "all.csv"]) == 0
    assert capsys.readouterr().err == ""
    one = read_report_csv(tmp_path / "one.csv")
    every = read_report_csv(tmp_path / "all.csv")
    assert one.rows.tolist() == [7]
    assert 0.0 <= one.approx[0] < 1e-300
    assert 0.0 <= every.approx[7] < 1e-300


def test_compare_failed_eigensolve_exits_two(tmp_path, capsys, monkeypatch):
    # the sweeps start from the eigenvectors of R_s R_s^T, the pivoted
    # QR's scaled R times its transpose; LinAlgError is a ValueError, so a
    # failed eigh is one line
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, standard_normal(stream(15), (24, 8)))
    monkeypatch.setattr("levsketch.svd.np.linalg.eigh", fail)
    assert run(["compare", mat, "--p", 12, "--k", 2,
                "-o", tmp_path / "rep.csv"]) == 2
    err = capsys.readouterr().err
    assert "Eigenvalues did not converge" in err
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
    assert meta["bound"] == pytest.approx(0.04, rel=1e-12, abs=0.0)
    assert meta["exceed_aat"] <= 0.07
    assert meta["exceed_wtw"] <= 0.07
    lines = out.read_text().splitlines()
    assert "trial,aat_ratio,wtw_ratio" in lines
    data = [l for l in lines if l and not l.startswith(("#", "trial,"))]
    assert len(data) == 50
    assert data[0].split(",")[0] == "1"
    # every field is a plain number, never a numpy scalar's repr
    ratios = np.array([[float(x) for x in l.split(",")] for l in data])
    assert ratios.shape == (50, 3)


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


def test_concentration_rejects_nan_theta(tmp_path, gaussian_csv, capsys):
    out = tmp_path / "c.csv"
    assert run(["concentration", gaussian_csv, "--theta", "nan", "--p", 10,
                "--trials", 2, "-o", out]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_concentration_underflowing_theta_gives_the_clipped_bound(
        tmp_path, gaussian_csv):
    # theta^2 p underflows: the command ended in a ZeroDivisionError
    # traceback with exit 1
    out = tmp_path / "c.csv"
    assert run(["concentration", gaussian_csv, "--theta", 1e-200, "--p", 5,
                "--trials", 2, "-o", out]) == 0
    assert meta_floats(out)["bound"] == 1.0


def test_concentration_p_beyond_the_float_range_exits_two(
        tmp_path, gaussian_csv, capsys):
    # the bound's theta^2 p raised OverflowError: a traceback and exit 1
    out = tmp_path / "c.csv"
    assert run(["concentration", gaussian_csv, "--theta", 0.5,
                "--p", "9" * 401, "--trials", 2, "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: draw count") and err.count("\n") == 1
    assert not out.exists()


def test_concentration_rejects_infinite_theta(tmp_path, gaussian_csv,
                                              capsys):
    # it ran and wrote bound=0.0
    out = tmp_path / "c.csv"
    assert run(["concentration", gaussian_csv, "--theta", "inf", "--p", 5,
                "--trials", 2, "-o", out]) == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def test_concentration_reruns_byte_identical(tmp_path, gaussian_csv):
    outs = [tmp_path / f"c{i}.csv" for i in range(2)]
    argv = ["concentration", gaussian_csv, "--theta", 0.5, "--p", 30,
            "--trials", 8, "--seed", 6]
    run(argv + ["-o", outs[0]])
    run(argv + ["-o", outs[1]])
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_concentration_output_is_pinned(tmp_path):
    # the deviation ratios are written as plain floats, pinned byte for
    # byte from a generated matrix
    mat = tmp_path / "e1.csv"
    assert run(["gen", "--family", "example1", "--m", 40, "--n", 6,
                "--seed", 1, "-o", mat]) == 0
    out = tmp_path / "conc.csv"
    assert run(["concentration", mat, "--theta", 0.15, "--p", 20,
                "--trials", 6, "--seed", 2, "-o", out]) == 0
    assert sha256_of(out) == ("7b69e4031c6cecba5539796cbc998a29"
                              "30e75294134aacd074e4393e8d03abb1")


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


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sampled_dot_compare_output_is_pinned(tmp_path):
    # seeded sampled-dot scores must not move when the scorer is
    # restructured: the report is pinned byte for byte
    mat = tmp_path / "e2.csv"
    assert run(["gen", "--family", "example2", "--m", 600, "--n", 80,
                "--r", 25, "--kappa", 10, "--a", 2, "--b", 9, "--seed", 5,
                "-o", mat]) == 0
    assert sha256_of(mat) == ("6b2199a26e378657055b0810991ff619"
                              "bc3ef9f9e74dc408b154e51459653680")
    rep = tmp_path / "rep.csv"
    assert run(["compare", mat, "--mode", "sampled-dot", "--p", 50,
                "--k", 12, "--trials", 3, "--seed", 8,
                "--rows", "1,7,50,100,233,400,599,600", "-o", rep]) == 0
    assert sha256_of(rep) == ("acdec9c2eef1792e34513e202d2c237f"
                              "1274064d513f1a165a3031a41827b30b")


def test_exact_dot_compare_output_is_pinned(tmp_path):
    # seeded exact-dot scores must not move when the gather that feeds
    # them is restructured: the report is pinned byte for byte
    mat = tmp_path / "e1.csv"
    assert run(["gen", "--family", "example1", "--m", 1000, "--n", 100,
                "--zero", 70, "--seed", 4, "-o", mat]) == 0
    assert sha256_of(mat) == ("52696d70372a6d4b73b3b14502e97589"
                              "976c69520dc458687c8ccd845878ff93")
    rep = tmp_path / "rep.csv"
    assert run(["compare", mat, "--p", 60, "--k", 20, "--trials", 2,
                "--seed", 3, "-o", rep]) == 0
    assert sha256_of(rep) == ("b5d30e90a11795e138769c23a5c562d1"
                              "6c82efe51d4a7d846c82b04c2497a7cc")


DEGENERATE = {
    "zero-row": np.vstack([standard_normal(stream(21), (7, 4)),
                           np.zeros((1, 4))]),
    "zero-column": np.hstack([standard_normal(stream(22), (9, 3)),
                              np.zeros((9, 1))]),
    "tied-rows": np.vstack([np.eye(4), np.eye(4)]),
    "single-column": standard_normal(stream(23), (10, 1)),
    "single-row": standard_normal(stream(24), (1, 6)),
}


@pytest.mark.parametrize("mode", ["exact-dot", "sampled-dot"])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_matrix_compare_runs(tmp_path, mode, name):
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, DEGENERATE[name])
    rep_path = tmp_path / "rep.csv"
    assert run(["compare", mat, "--mode", mode, "--p", 12, "--k", 1,
                "--trials", 2, "--seed", 4, "-o", rep_path]) == 0
    rep = read_report_csv(rep_path)
    assert rep.rows.size == DEGENERATE[name].shape[0]
    assert np.isfinite(rep.approx).all()
    if name == "zero-row":
        assert rep.approx[-1] == 0.0


@pytest.mark.parametrize("mode", ["exact-dot", "sampled-dot"])
def test_zero_matrix_compare_exits_two(tmp_path, capsys, mode):
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, np.zeros((5, 3)))
    assert run(["compare", mat, "--mode", mode, "--p", 12, "--k", 1,
                "-o", tmp_path / "rep.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_compare_underflowing_matrix_exits_two(tmp_path, capsys):
    # every squared entry underflows: the store build refuses the matrix
    # instead of sampling by subnormal norms
    mat = tmp_path / "tiny.csv"
    write_matrix_csv(mat, gen_example2(40, 8, 3, 2.0, 1, 10, 4) * 1e-165)
    assert run(["compare", mat, "--p", 10, "--k", 2,
                "-o", tmp_path / "rep.csv"]) == 2
    assert capsys.readouterr().err == "error: squared norm underflows\n"


@pytest.mark.parametrize("mode", ["exact-dot", "sampled-dot"])
@pytest.mark.parametrize("row", [0, 41, 10 ** 23, -2 ** 63 - 1])
def test_compare_rows_out_of_range_exits_two(tmp_path, capsys, mode, row):
    # rows are 1-based: 0 and 41 are outside a 40-row matrix, as are rows
    # that int64 cannot hold, and the store's check refuses them before a
    # report is written
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, gen_example2(40, 8, 3, 2.0, 1, 10, 4))
    rep = tmp_path / "rep.csv"
    assert run(["compare", mat, "--mode", mode, "--p", 8, "--k", 3,
                "--rows", row, "-o", rep]) == 2
    assert (capsys.readouterr().err
            == "error: row index out of range for size 40\n")
    assert not rep.exists()


def test_compare_rows_not_an_int_list_is_a_usage_error(tmp_path, capsys):
    mat = tmp_path / "m.csv"
    write_matrix_csv(mat, gen_example2(40, 8, 3, 2.0, 1, 10, 4))
    rep = tmp_path / "rep.csv"
    with pytest.raises(SystemExit) as exc:
        run(["compare", mat, "--p", 8, "--k", 3, "--rows", "1,x",
             "-o", rep])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not a comma-separated int list: '1,x'" in err
    assert not rep.exists()


def test_bench_epsilon_is_a_usage_error(tmp_path):
    # bench fixes p, so epsilon and delta changed none of its output
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--epsilon", 0.3, "-o", tmp_path / "b.csv"])
    assert exc.value.code == 2


def test_compare_overflowing_matrix_exits_two(tmp_path, capsys):
    # every squared entry overflows: the store build refuses the matrix
    # before any sketch, and no numpy warning adds a second stderr line
    mat = tmp_path / "big.csv"
    write_matrix_csv(mat, standard_normal(stream(1), (40, 8)) * 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["compare", mat, "--p", 10, "--k", 2,
                    "-o", tmp_path / "rep.csv"]) == 2
    assert capsys.readouterr().err == "error: squared norm overflows\n"


@pytest.mark.parametrize("mode", ["exact-dot", "sampled-dot"])
def test_compare_at_a_huge_power_of_two_scale_gives_the_unscaled_scores(
        tmp_path, mode):
    # times 2^505 the entries are near 1e152, which the store accepts, but
    # the squares of the norms overflow in the parameter formulas: compare
    # ended in a ZeroDivisionError
    a = gen_example2(200, 40, 10, 5.0, 1, 10, 3)
    reports = []
    for scale in (0, 505):
        mat, rep = tmp_path / f"m{scale}.csv", tmp_path / f"r{scale}.csv"
        write_matrix_csv(mat, np.ldexp(a, scale))
        assert run(["compare", mat, "--mode", mode, "--p", 20, "--k", 5,
                    "--trials", 2, "--seed", 3, "-o", rep]) == 0
        reports.append(read_report_csv(rep))
    for name in ("rows", "approx", "exact"):
        assert np.array_equal(getattr(reports[0], name),
                              getattr(reports[1], name))


@pytest.mark.parametrize("scale", [-300, 300])
def test_concentration_at_a_power_of_two_scale_writes_the_unscaled_file(
        tmp_path, scale):
    # at 2^300 the squared differences overflowed, every ratio was inf and
    # the command wrote exceed_aat=1.0; at 2^-300 they underflowed and it
    # wrote 0.0. The ratios are scale-free, and so is the whole file
    a = gen_example2(200, 40, 10, 5.0, 1, 10, 3)
    outs = []
    for s in (0, scale):
        mat, out = tmp_path / f"m{s}.csv", tmp_path / f"c{s}.csv"
        write_matrix_csv(mat, np.ldexp(a, s))
        assert run(["concentration", mat, "--theta", 0.2, "--p", 20,
                    "--trials", 5, "--seed", 3, "-o", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
