"""Run one workload of the levsketch benchmark from a source checkout.

    python3 perfbench/run.py --workload banded-tall --seed 1 --seconds 30 --trace 0

Pins every thread pool to one thread before numpy loads, puts ``src/`` on
the import path and prints the metrics; the last line of standard output is
one JSON object. Exits 1 if a correctness check fails and 2 if the
levsketch sources are missing.
"""
import os
import sys
from pathlib import Path

PINNED_ENV = {var: "1" for var in (
    "LEVSKETCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS")}


def main(argv=None) -> int:
    os.environ.update(PINNED_ENV)
    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "levsketch" / "__init__.py").is_file():
        print(f"error: no levsketch sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(here)]
    import bench
    return bench.main(sys.argv[1:] if argv is None else argv, root,
                      PINNED_ENV)


if __name__ == "__main__":
    sys.exit(main())
