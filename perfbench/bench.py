"""The levsketch benchmark: three single-threaded, closed-loop workloads.

A run makes its inputs from ``--seed``, then repeats one pass of the chosen
workload until ``--seconds`` are spent. One caller issues each public-API or
CLI call only after the previous one returned. Every pass does the same
seeded work, so counts and errors repeat exactly for a seed. Timings are
means over the run, scaled to a reference host speed (see hostspeed.py).
Input generation, the numpy reference and every correctness check run
outside the timed passes.

With ``--trace 0`` only the store constructor, ``qisvd`` and ``qisls_all``
are wrapped, which is what the end-to-end metrics need. With ``--trace 1``
passes alternate between that and wrapping every layer; the per-layer
metrics come from the fully traced passes and the spans are written to
``.bench_out/`` when the run ends. See NOTES.md for the workloads and the
layer-to-metric map.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from levsketch import cli, estimator, oracle, sample_store
from levsketch import sketch as sketch_mod
from levsketch.rng import standard_normal, stream, trial_stream
from hostspeed import HostSpeed
from tracer import Tracer, totals_by_name

# relative to the largest singular value, as in levsketch.oracle
RANK_TOL = 1e-10
# key of the stream that draws the point writes, apart from the matrix's
WRITES_STREAM = 0x57A7E
# traced runs make at least two untraced and two fully traced passes;
# untraced runs make at least Config.fixed_passes passes
MIN_TRACED_PASSES = 4


@dataclass(frozen=True)
class Config:
    family: str          # "example1" or "example2"
    shape: tuple         # generator arguments other than the seed
    p: int
    k: int
    rounds: int          # qisvd + qisls_all rounds per pass; CLI: --trials
    writes: int          # seeded store.update point writes per pass
    err_tol: float       # gate on the median |approx - reference| score
    cli: bool = False    # run `levsketch compare` instead of the API calls
    # counts and the score error come from this many first passes, which
    # every untraced run makes, so they repeat exactly for a seed
    fixed_passes: int = 5


# "tiny" sizes exist for the benchmark's own smoke test. Each err_tol sits
# above the errors seen over 20 seeds (run medians about 1.4e-7 on
# banded-tall, 0.26 to 0.32 on factor-core, where single sketches reached
# 0.42, and 0.008 to 0.010 on compare-cli) and far below the error against
# a reference replaced by 1 - reference.
WORKLOADS = {
    "banded-tall": {
        "full": Config("example1", (64000, 100, 70), p=60, k=20, rounds=3,
                       writes=20000, err_tol=1e-6),
        "tiny": Config("example1", (400, 20, 10), p=12, k=6, rounds=2,
                       writes=200, err_tol=1e-2),
    },
    "factor-core": {
        "full": Config("example2", (2000, 500, 100, 1.0, 1, 1000), p=100,
                       k=88, rounds=4, writes=2000, err_tol=0.6),
        "tiny": Config("example2", (120, 40, 8, 1.0, 1, 1000), p=16, k=6,
                       rounds=2, writes=100, err_tol=0.6),
    },
    "compare-cli": {
        "full": Config("example2", (1000, 100, 30, 1.0, 1, 10), p=60, k=20,
                       rounds=6, writes=6000, err_tol=0.1, cli=True,
                       fixed_passes=3),
        "tiny": Config("example2", (80, 20, 5, 1.0, 1, 10), p=10, k=4,
                       rounds=2, writes=100, err_tol=0.5, cli=True,
                       fixed_passes=3),
    },
}

END_TO_END_UNITS = {
    "run_s": "s", "setup_s": "s", "sketch_s": "s",
    "score_rows_per_s": "1/s", "update_us": "us", "queries_per_score": "count",
    "sketch_reads": "count", "median_abs_err": "score", "peak_rss_mb": "MB",
}
# end-to-end metrics that are times, printed as raw wall times as well
TIMINGS = ("run_s", "setup_s", "sketch_s", "score_rows_per_s", "update_us")

SPANS = ("bench.pass", "bench.writes", "cli.compare", "cli.read", "cli.write",
         "sample_store.build", "sample_store.update", "sketch.qisvd",
         "sketch.columns", "sketch.rows", "sketch.w", "svd.core", "oracle.svd",
         "estimator.score", "estimator.inner")
READ_SPANS = ("sketch.qisvd", "sketch.columns", "sketch.rows", "sketch.w")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    for name in READ_SPANS:
        units[f"{name}_reads"] = "count"
    units.update({"estimator.rows": "count", "estimator.reads": "count",
                  "estimator.draws": "count",
                  "sample_store.build_alloc_mb": "MB",
                  "trace.overhead_s": "s"})
    return units


PER_LAYER_UNITS = per_layer_units()


def _rows_of(report) -> int:
    return int(report.rows.size)


# (owner, attribute, span name, Tracer.wrap keywords); the first block is
# what the end-to-end metrics need, the second adds every layer
COARSE_TARGETS = (
    (sample_store.MatrixSampleStore, "__init__", "sample_store.build",
     {"registers_store": True}),
    (sketch_mod, "qisvd", "sketch.qisvd", {}),
    (cli, "qisvd", "sketch.qisvd", {}),
    (estimator, "qisls_all", "estimator.score", {"result": ("rows", _rows_of)}),
    (cli, "qisls_all", "estimator.score", {"result": ("rows", _rows_of)}),
)
LAYER_TARGETS = COARSE_TARGETS + (
    (sample_store.MatrixSampleStore, "update", "sample_store.update", {}),
    (sketch_mod, "sample_columns", "sketch.columns", {}),
    (sketch_mod, "sample_rows", "sketch.rows", {}),
    (sketch_mod, "build_w", "sketch.w", {}),
    (sketch_mod, "svd_dense", "svd.core", {}),
    (oracle, "svd_dense", "oracle.svd", {}),
    (estimator, "estimate_inner", "estimator.inner",
     {"delta": ("draws", lambda args: args[0].touches)}),
    (cli, "read_matrix_csv", "cli.read", {}),
    (cli, "write_report_csv", "cli.write", {}),
)


# ---------------------------------------------------------------- inputs

def make_matrix(cfg: Config, seed: int) -> np.ndarray:
    if cfg.family == "example1":
        m, n, zero = cfg.shape
        return oracle.gen_example1(m, n, zero, seed)
    m, n, r, kappa, a, b = cfg.shape
    return oracle.gen_example2(m, n, r, kappa, a, b, seed)


def reference_scores(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(leverage scores, singular values) from numpy's LAPACK SVD, so the
    library's own svd_dense is not its own judge."""
    u, sigma, _ = np.linalg.svd(a, full_matrices=False)
    r = int((sigma > RANK_TOL * sigma[0]).sum())
    return (u[:, :r] ** 2).sum(axis=1), sigma


@dataclass
class Inputs:
    seed: int
    a: np.ndarray
    ref: np.ndarray
    params: object
    # store.update arguments (i, j, value), 0-based: one burst per round
    # (CLI: per trial, all after the command); every burst but the last
    # writes the input's own values back, so each round sketches the input
    # matrix
    bursts: list
    argv: list | None = None
    report: Path | None = None


def make_inputs(cfg: Config, seed: int, workdir: Path) -> Inputs:
    a = make_matrix(cfg, seed)
    ref, sigma = reference_scores(a)
    r = int((sigma > RANK_TOL * sigma[0]).sum())
    params = sketch_mod.compute_params(
        0.5, 0.1, cfg.k, float(sigma[0] / sigma[r - 1]), float(sigma[0]),
        float(np.sqrt((a * a).sum())), p_override=cfg.p)
    rng = stream(seed ^ WRITES_STREAM)
    m, n = a.shape
    rows = rng.integers(0, m, cfg.writes)
    cols = rng.integers(0, n, cfg.writes)
    vals = standard_normal(rng, cfg.writes)
    writes = list(zip(rows.tolist(), cols.tolist(), vals.tolist()))
    # 2 * rounds - 1 chunks keep the update count at cfg.writes
    size = cfg.writes // (2 * cfg.rounds - 1)
    chunks = [writes[r * size:(r + 1) * size] for r in range(cfg.rounds - 1)]
    bursts = [chunk + [(i, j, float(a[i, j])) for i, j, _ in chunk]
              for chunk in chunks]
    bursts.append(writes[(cfg.rounds - 1) * size:cfg.rounds * size])
    inp = Inputs(seed, a, ref, params, bursts)
    if cfg.cli:
        matrix_csv = workdir / "matrix.csv"
        sample_store.write_matrix_csv(matrix_csv, a)
        inp.report = workdir / "report.csv"
        every_4th = ",".join(str(i) for i in range(1, m + 1, 4))
        inp.argv = ["compare", str(matrix_csv), "--p", str(cfg.p),
                    "--k", str(cfg.k), "--trials", str(cfg.rounds),
                    "--mode", "sampled-dot", "--rows", every_4th,
                    "-o", str(inp.report)]
    return inp


# ---------------------------------------------------------------- passes

@dataclass
class Pass:
    index: int
    full_trace: bool
    spans: range = range(0)
    approx: list = field(default_factory=list)
    sketches: list = field(default_factory=list)
    writes: int = 0
    ops: int = 0
    rc: int = 0
    store: object = None
    # ru_maxrss when the pass ends, before its checks allocate anything
    rss_mb: float = 0.0
    # |approx - reference| of every score, set by the checks
    err: np.ndarray | None = None


def sketch_seed(inp: Inputs, out: Pass) -> int:
    """Each pass draws other sketches, so timings cover many sketches of
    the matrix; pass i draws the same ones in every run of a seed.

    Round (or CLI trial) t of a pass draws from stream(seed ^ t), so pass
    seeds are 64 apart and no two passes share a stream.
    """
    return (inp.seed << 16) + 64 * out.index


def apply_writes(tracer: Tracer, store, writes, out: Pass) -> None:
    with tracer.span("bench.writes"):
        for i, j, value in writes:
            store.update(i, j, value)
    out.writes += len(writes)
    out.ops += len(writes)


def api_pass(cfg: Config, inp: Inputs, tracer: Tracer, out: Pass) -> None:
    store = sample_store.MatrixSampleStore(inp.a)
    out.ops += 1
    for r in range(cfg.rounds):
        sk = sketch_mod.qisvd(store, inp.params,
                              trial_stream(sketch_seed(inp, out), r))
        report = estimator.qisls_all(store, sk, inp.params)
        out.sketches.append(sk)
        out.approx.append(report.approx)
        out.ops += 2
        apply_writes(tracer, store, inp.bursts[r], out)
    out.store = store


def cli_pass(cfg: Config, inp: Inputs, tracer: Tracer, out: Pass) -> None:
    argv = inp.argv + ["--seed", str(sketch_seed(inp, out))]
    with tracer.span("cli.compare"), contextlib.redirect_stdout(io.StringIO()):
        out.rc = cli.main(argv)
    out.ops += 1
    out.store = tracer.store
    # one burst per trial, so a run times as many bursts as on the other
    # workloads
    for burst in inp.bursts:
        apply_writes(tracer, out.store, burst, out)


def run_pass(cfg: Config, inp: Inputs, tracer: Tracer, index: int,
             full: bool) -> Pass:
    out = Pass(index, full)
    first = len(tracer.spans)
    for owner, attr, name, kw in (LAYER_TARGETS if full else COARSE_TARGETS):
        tracer.wrap(owner, attr, name, **kw)
    try:
        with tracer.span("bench.pass"):
            (cli_pass if cfg.cli else api_pass)(cfg, inp, tracer, out)
    finally:
        tracer.restore()
        tracer.store = None
    out.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.spans = range(first, len(tracer.spans))
    return out


# ---------------------------------------------------------------- checks

class Checks:
    """Counts correctness checks; every failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def dense_w(a: np.ndarray, sk) -> np.ndarray:
    """The core W rebuilt from the dense matrix and the sketch's indices."""
    rows = a[np.ix_(sk.row_indices, sk.col_indices)] * sk.col_scale
    return rows / np.sqrt(sk.p * sk.row_probs)[:, None]


def dense_scores(a: np.ndarray, sk) -> np.ndarray:
    """Exact-dot scores of every row, as one dense matmul."""
    u = (a[:, sk.col_indices] * sk.col_scale) @ sk.v / sk.sigma
    return (u * u).sum(axis=1)


def check_pass(cfg: Config, inp: Inputs, tracer: Tracer, out: Pass,
               checks: Checks) -> None:
    """Run every check on one pass and keep its absolute score errors."""
    for i in out.spans:
        span = tracer.spans[i]
        if span.name == "estimator.score":
            checks.expect(span.reads == cfg.p * span.counts["rows"],
                          f"queries per score {span.reads / span.counts['rows']}"
                          f" != p={cfg.p}")
    check_writes(inp, out.store, checks)
    out.store = None
    if cfg.cli:
        checks.expect(out.rc == 0, f"compare exited with {out.rc}")
        report = estimator.read_report_csv(inp.report)
        exact = inp.ref[report.rows]
        checks.expect(np.abs(report.exact - exact).max() <= 1e-8,
                      "compare's exact scores differ from the numpy reference")
        out.err = np.abs(report.approx - exact)
    else:
        for sk, approx in zip(out.sketches, out.approx):
            # qisvd keeps fewer than k triplets when W has lower rank
            top = np.linalg.svd(dense_w(inp.a, sk),
                                compute_uv=False)[:sk.sigma.size]
            checks.expect(np.abs(top - sk.sigma).max() <= 1e-8 * top[0],
                          "core singular values differ from numpy's")
            checks.expect(np.allclose(approx, dense_scores(inp.a, sk),
                                      rtol=1e-9, atol=1e-12),
                          "scores differ from a dense recomputation")
        out.err = np.abs(np.concatenate(out.approx)
                         - np.tile(inp.ref, len(out.approx)))
        out.sketches = []
        out.approx = []
    median = float(np.median(out.err))
    checks.expect(median <= cfg.err_tol,
                  f"median abs score error {median!r} > {cfg.err_tol!r}")


def check_writes(inp: Inputs, store, checks: Checks) -> None:
    """The store after the writes against a dense recomputation."""
    expected = inp.a.copy()
    for i, j, value in inp.bursts[-1]:
        expected[i, j] = value
    sq = float((expected * expected).sum())
    checks.expect(np.array_equal(store.to_array(), expected),
                  "store entries after the writes")
    checks.expect(abs(store.sq_frobenius - sq) <= 1e-9 * sq,
                  f"sq_frobenius {store.sq_frobenius!r} != {sq!r}")


# ---------------------------------------------------------------- metrics

def spans_named(tracer: Tracer, passes: list[Pass], name: str) -> list:
    return [tracer.spans[i] for p in passes for i in p.spans
            if tracer.spans[i].name == name]


def pass_time(tracer: Tracer, p: Pass) -> float:
    return tracer.spans[p.spans[0]].duration


def end_to_end(cfg: Config, tracer: Tracer, passes: list[Pass],
               speed: HostSpeed | None = None) -> dict:
    """Timings from every pass, in reference-host seconds given the run's
    ``speed`` and as wall times without it; counts and the score error from
    the first ``cfg.fixed_passes`` passes, which every run makes, so they
    repeat exactly.

    Timings other than setup_s are means (total time over work done): the
    host's speed switches between two levels for seconds at a time, and a
    median over one run's samples jumps between them, while the mean moves
    with the share of time spent at each, as the HostSpeed slices' mean
    does.
    """
    builds = spans_named(tracer, passes, "sample_store.build")
    sketches = spans_named(tracer, passes, "sketch.qisvd")
    scores = spans_named(tracer, passes, "estimator.score")
    writes = spans_named(tracer, passes, "bench.writes")
    fixed = passes[:cfg.fixed_passes]
    factor = 1.0 if speed is None else speed.factor()
    local = (lambda s: s.duration) if speed is None else speed.local
    return {
        "run_s": factor * statistics.fmean(pass_time(tracer, p)
                                           for p in passes),
        "setup_s": statistics.median(local(s) for s in builds),
        "sketch_s": factor * statistics.fmean(s.duration for s in sketches),
        "score_rows_per_s": (sum(s.counts["rows"] for s in scores)
                             / sum(s.duration for s in scores) / factor),
        "update_us": 1e6 * (sum(local(s) for s in writes)
                            / sum(p.writes for p in passes)),
        "queries_per_score": statistics.median(s.reads / s.counts["rows"]
                                               for s in scores),
        "sketch_reads": statistics.fmean(
            s.reads for s in spans_named(tracer, fixed, "sketch.qisvd")),
        "median_abs_err": float(np.median(np.concatenate(
            [p.err for p in fixed]))),
        "peak_rss_mb": passes[0].rss_mb,
    }


def per_layer(tracer: Tracer, passes: list[Pass], alloc_mb: float) -> dict:
    full = [p for p in passes if p.full_trace]
    coarse = [p for p in passes if not p.full_trace]
    rows = []
    for p in full:
        totals = totals_by_name(tracer.spans, p.spans)
        row = {}
        for name in SPANS:
            agg = totals.get(name, {})
            row[f"{name}_s"] = agg.get("s", 0.0)
            row[f"{name}_self_s"] = agg.get("self_s", 0.0)
            row[f"{name}_calls"] = agg.get("calls", 0)
        for name in READ_SPANS:
            row[f"{name}_reads"] = totals.get(name, {}).get("reads", 0)
        score = totals.get("estimator.score", {})
        row["estimator.rows"] = score.get("rows", 0)
        row["estimator.reads"] = score.get("reads", 0)
        row["estimator.draws"] = totals.get("estimator.inner", {}).get("draws", 0)
        rows.append(row)
    out = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    out["sample_store.build_alloc_mb"] = alloc_mb
    out["trace.overhead_s"] = (
        statistics.median(pass_time(tracer, p) for p in full)
        - statistics.median(pass_time(tracer, p) for p in coarse))
    return out


def build_alloc_mb(a: np.ndarray) -> float:
    """tracemalloc peak while one store is built, in MiB."""
    tracemalloc.start()
    try:
        store = sample_store.MatrixSampleStore(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del store
    return peak / 2 ** 20


# ---------------------------------------------------------------- run

def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment(root: Path, seed: int, pinned: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "levsketch").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "pinned_env": pinned, "git_commit": git_commit(root),
            "src_sha256": digest.hexdigest(), "seed": seed}


def parse_args(argv):
    ap = argparse.ArgumentParser(description="levsketch benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's smoke test")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def measure(cfg: Config, inp: Inputs, seconds: int, traced: bool,
            checks: Checks, tracer: Tracer) -> list[Pass]:
    """Run passes until ``seconds`` are spent; traced runs alternate a
    coarse and a fully traced pass and need two of each."""
    need = MIN_TRACED_PASSES if traced else cfg.fixed_passes
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        out = run_pass(cfg, inp, tracer, index, traced and index % 2 == 1)
        check_pass(cfg, inp, tracer, out, checks)
        passes.append(out)
        elapsed = time.perf_counter() - start
        if len(passes) >= need and elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def main(argv, root: Path, pinned: dict) -> int:
    args = parse_args(argv)
    cfg = WORKLOADS[args.workload]["tiny" if args.tiny else "full"]
    env = environment(root, args.seed, pinned)
    print("env " + json.dumps(env, sort_keys=True))
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    checks = Checks()
    tracer = Tracer()
    if not args.trace:
        tracer.probe = HostSpeed()
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        inp = make_inputs(cfg, args.seed, Path(workdir))
        alloc_mb = build_alloc_mb(inp.a) if args.trace else 0.0
        try:
            passes = measure(cfg, inp, args.seconds, bool(args.trace),
                             checks, tracer)
        except Exception:
            # an operation that raises ends the run as one failure
            traceback.print_exc()
            checks.attempted += 1
            checks.failed += 1
            passes = []
    ops = sum(p.ops for p in passes)
    if not passes:
        metrics = {}
    elif args.trace:
        values = per_layer(tracer, passes, alloc_mb)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in PER_LAYER_UNITS.items()}
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_path, "w") as fh:
            json.dump({"env": env, "workload": args.workload,
                       "passes": [{"full_trace": p.full_trace,
                                   "first_span": p.spans.start,
                                   "end_span": p.spans.stop} for p in passes],
                       "spans": [s.to_json(t0) for s in tracer.spans]}, fh)
        print(f"spans written to {trace_path}")
    else:
        speed = tracer.probe
        print(f"host_factor {speed.factor()!r} ({speed.count} calibration "
              f"slices, mean {speed.total / speed.count!r} s)")
        wall = end_to_end(cfg, tracer, passes)
        for name in TIMINGS:
            print(f"wall_{name} {wall[name]!r}")
        values = end_to_end(cfg, tracer, passes, speed)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    attempted = ops + checks.attempted
    failed = checks.failed
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)} "
          f"operations {ops} checks {checks.attempted}")
    print(f"error_rate {failed / attempted!r} ({failed} of {attempted} "
          f"operations and checks failed)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    correct = failed == 0 and bool(passes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
