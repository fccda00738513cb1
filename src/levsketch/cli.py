"""Command-line harness: dataset generation, score comparison, deviation
Monte Carlo, and query-count benchmarking.

Every command is deterministic given --seed; rerunning writes byte-identical
files, with the single exception of the wall_ms column of bench output.
Trials run one after another, and trial t draws from the stream seeded
with seed XOR t. Row and trial indices on the command line and in files
are 1-based; the Python API is 0-based.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import textfile
from .diagnostics import concentration_ratios, deviation_bound
from .estimator import LeverageReport, qisls_all, write_report_csv
from .oracle import gen_example1, gen_example2, oracle_facts
from .rng import trial_stream
from .sample_store import MatrixSampleStore, read_matrix_csv, write_matrix_csv
from .sketch import compute_params, qisvd

# sampled-dot floor: theoretical xi at desk scale implies sample counts
# beyond any budget, so the CLI never estimates below this precision
XI_FLOOR = 0.1


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="levsketch",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark matrix")
    gen.add_argument("--family", choices=("example1", "example2"),
                     default="example1")
    gen.add_argument("--m", type=_int_list, default=(1000,))
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--zero", type=int, default=0,
                     help="columns to zero out (example1)")
    gen.add_argument("--r", type=int, default=10, help="rank (example2)")
    gen.add_argument("--kappa", type=float, default=1.0,
                     help="condition number (example2)")
    gen.add_argument("--a", type=int, default=1)
    gen.add_argument("--b", type=int, default=10,
                     help="largest singular value drawn from [a, b]")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", dest="output", required=True)

    cmp_ = sub.add_parser("compare",
                          help="approximate scores vs the exact oracle")
    cmp_.add_argument("input", help="matrix CSV")
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--trials", type=int, default=1)
    cmp_.add_argument("--epsilon", type=float, default=0.5)
    cmp_.add_argument("--delta", type=float, default=0.1)
    cmp_.add_argument("--k", type=int, default=10)
    cmp_.add_argument("--p", type=int, default=None,
                      help="practical sample count (omit for theoretical p)")
    cmp_.add_argument("--mode", choices=("exact-dot", "sampled-dot"),
                      default="exact-dot")
    cmp_.add_argument("--rows", type=_int_list, default=None,
                      help="1-based row subset, e.g. 5,17,99")
    cmp_.add_argument("-o", dest="output", required=True)

    conc = sub.add_parser("concentration",
                          help="Monte Carlo check of the deviation bound")
    conc.add_argument("input", help="matrix CSV")
    conc.add_argument("--theta", type=float, required=True)
    conc.add_argument("--p", type=int, required=True)
    conc.add_argument("--trials", type=int, required=True)
    conc.add_argument("--seed", type=int, default=0)
    conc.add_argument("-o", dest="output", required=True)

    bench = sub.add_parser("bench", help="per-score query counts and wall "
                           "time across matrix sizes")
    bench.add_argument("--m", type=_int_list, default=(1000, 4000, 16000))
    bench.add_argument("--n", type=int, default=100)
    bench.add_argument("--zero", type=int, default=70)
    bench.add_argument("--p", type=int, default=60)
    bench.add_argument("--k", type=int, default=20)
    bench.add_argument("--trials", type=int, default=1)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("-o", dest="output", required=True)
    return top


def parse_argv(argv) -> argparse.Namespace:
    """The flags of one command line; each subcommand's namespace holds
    exactly the flags its parser defines."""
    return _build_parser().parse_args(argv)


def _check_paths(cfg: argparse.Namespace) -> None:
    # bench reads no input file, so its namespace has no input
    inp = getattr(cfg, "input", None)
    if inp is not None and os.path.abspath(inp) == os.path.abspath(cfg.output):
        raise ValueError("input and output paths must be distinct")
    if cfg.trials < 1:
        raise ValueError("trials must be >= 1")


def cmd_gen(cfg: argparse.Namespace) -> int:
    if len(cfg.m) != 1:
        raise ValueError("gen takes a single --m value")
    m = cfg.m[0]
    if cfg.family == "example1":
        a = gen_example1(m, cfg.n, cfg.zero, cfg.seed)
        meta = {"family": cfg.family, "seed": cfg.seed, "zero": cfg.zero}
    else:
        a = gen_example2(m, cfg.n, cfg.r, cfg.kappa, cfg.a, cfg.b, cfg.seed)
        meta = {"family": cfg.family, "seed": cfg.seed, "r": cfg.r,
                "kappa_target": cfg.kappa, "a": cfg.a, "b": cfg.b}
    _, rank, spectral, kappa = oracle_facts(a)
    frob = float(np.sqrt((a * a).sum()))
    meta.update(rank=rank, frob_norm=frob, spectral_norm=spectral,
                kappa=kappa)
    write_matrix_csv(cfg.output, a, metadata=meta)
    print(f"wrote {cfg.output}: rank={rank} frob_norm={frob!r} kappa={kappa!r}")
    return 0


def cmd_compare(cfg: argparse.Namespace) -> int:
    _check_paths(cfg)
    a, _ = read_matrix_csv(cfg.input)
    store = MatrixSampleStore(a)
    exact, _, spectral, kappa = oracle_facts(a)
    frob = float(np.sqrt(store.sq_frobenius))
    params = compute_params(cfg.epsilon, cfg.delta, cfg.k, kappa, spectral,
                            frob, p_override=cfg.p)
    if cfg.mode == "sampled-dot" and params.xi < XI_FLOOR:
        params = replace(params, xi_override=XI_FLOOR)
    rows = None
    if cfg.rows is not None:
        rows = np.asarray(cfg.rows, dtype=np.int64) - 1
    print(f"oracle-assisted: kappa={kappa!r} spectral_norm={spectral!r}")

    reports = []
    for t in range(cfg.trials):
        rng = trial_stream(cfg.seed, t)
        sketch = qisvd(store, params, rng)
        reports.append(qisls_all(store, sketch, params, rows=rows,
                                 mode=cfg.mode, rng=rng, seed=cfg.seed ^ t,
                                 exact=exact))
    mean_approx = np.mean([r.approx for r in reports], axis=0)
    agg = LeverageReport.from_scores(reports[0].rows, mean_approx, exact,
                                     cfg.mode, cfg.seed, params)
    write_report_csv(cfg.output, agg)
    abs_err = agg.abs_err
    oracle_top = agg.rows[int(np.argmax(agg.exact))]
    agreement = float(np.mean([r.coherence_row == oracle_top for r in reports]))
    print(f"rows={agg.rows.size} trials={cfg.trials} "
          f"max_abs_err={float(abs_err.max())!r} "
          f"mean_abs_err={float(abs_err.mean())!r} "
          f"median_abs_err={float(np.median(abs_err))!r} "
          f"coherence_agreement={agreement!r} "
          f"coherence_row={agg.coherence_row + 1}")
    return 0


def cmd_concentration(cfg: argparse.Namespace) -> int:
    _check_paths(cfg)
    a, _ = read_matrix_csv(cfg.input)
    store = MatrixSampleStore(a)
    bound = deviation_bound(cfg.theta, cfg.p)

    ratios = [concentration_ratios(store, cfg.p, trial_stream(cfg.seed, t))
              for t in range(cfg.trials)]
    aat = np.array([r[0] for r in ratios])
    wtw = np.array([r[1] for r in ratios])
    exceed_aat = float(np.mean(aat >= cfg.theta))
    exceed_wtw = float(np.mean(wtw >= cfg.theta))
    lines = textfile.meta_lines(
        theta=cfg.theta, p=cfg.p, trials=cfg.trials, seed=cfg.seed,
        bound=bound, exceed_aat=exceed_aat, exceed_wtw=exceed_wtw)
    lines.append("trial,aat_ratio,wtw_ratio")
    lines += [f"{t + 1},{textfile.floats(pair)}"
              for t, pair in enumerate(zip(aat, wtw))]
    textfile.write(cfg.output, lines)
    print(f"bound={bound!r} exceed_aat={exceed_aat!r} exceed_wtw={exceed_wtw!r}")
    return 0


def cmd_bench(cfg: argparse.Namespace) -> int:
    _check_paths(cfg)
    rows_out = []
    for m in cfg.m:
        a = gen_example1(m, cfg.n, cfg.zero, cfg.seed ^ m)
        store = MatrixSampleStore(a)
        frob = float(np.sqrt(store.sq_frobenius))
        # any valid epsilon, delta: p_override fixes p, exact-dot reads no xi
        params = compute_params(0.5, 0.1, cfg.k, 1.0, frob, frob,
                                p_override=cfg.p)
        per_score = np.empty(cfg.trials)
        wall = np.empty(cfg.trials)
        for t in range(cfg.trials):
            rng = trial_stream(cfg.seed ^ m, t)
            sketch = qisvd(store, params, rng)
            before = store.queries
            start = time.perf_counter()
            qisls_all(store, sketch, params, mode="exact-dot",
                      rng=rng, seed=cfg.seed ^ m ^ t)
            wall[t] = (time.perf_counter() - start) * 1e3
            per_score[t] = (store.queries - before) / store.m
        rows_out.append((m, cfg.n, float(per_score.mean()), float(wall.mean())))
    lines = textfile.meta_lines(p=cfg.p, k=cfg.k, zero=cfg.zero,
                                trials=cfg.trials, seed=cfg.seed)
    lines.append("m,n,queries,wall_ms")
    lines += [f"{m},{n},{textfile.floats(qw)}" for m, n, *qw in rows_out]
    textfile.write(cfg.output, lines)
    for m, n, q, w in rows_out:
        print(f"m={m} n={n} queries_per_score={q!r} wall_ms={w!r}")
    return 0


_DISPATCH = {"gen": cmd_gen, "compare": cmd_compare,
             "concentration": cmd_concentration, "bench": cmd_bench}


def main(argv=None) -> int:
    cfg = parse_argv(argv if argv is not None else sys.argv[1:])
    try:
        return _DISPATCH[cfg.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
