"""Sample-model sketching for statistical leverage scores of low-rank
matrices: a matrix store whose column and row draws walk stacked trees of
squared entries, two-stage subsampling, and per-row score estimation whose
query cost is independent of the matrix height.
"""

from .diagnostics import (concentration_ratios, counted_sketch_spectrum,
                          deviation_bound, sigma_min_bound)
from .estimator import (LeverageReport, estimate_inner, mom_group_shape,
                        orthogonality_defect, qisls_all, qisls_score,
                        read_report_csv, write_report_csv)
from .oracle import gen_example1, gen_example2, oracle_facts
from .rng import standard_normal, stream, trial_stream
from .sample_store import MatrixSampleStore, read_matrix_csv, write_matrix_csv
from .sketch import (Params, SketchDescription, build_w, compute_params,
                     draw_sketch, qisvd, read_sketch_csv, s_matrix,
                     sample_columns, sample_rows, theta_upper, write_sketch_csv)
from .svd import SvdResult, householder_qr, svd_dense, truncate_top_k

__version__ = "0.1.0"

__all__ = [
    "LeverageReport", "MatrixSampleStore", "Params", "SketchDescription",
    "SvdResult", "build_w", "compute_params", "concentration_ratios",
    "counted_sketch_spectrum", "deviation_bound", "draw_sketch",
    "estimate_inner", "gen_example1", "gen_example2", "householder_qr",
    "mom_group_shape", "oracle_facts", "orthogonality_defect", "qisls_all",
    "qisls_score", "qisvd", "read_matrix_csv", "read_report_csv",
    "read_sketch_csv", "s_matrix", "sample_columns", "sample_rows",
    "sigma_min_bound", "standard_normal", "stream", "svd_dense", "theta_upper",
    "trial_stream", "truncate_top_k", "write_matrix_csv", "write_report_csv",
    "write_sketch_csv", "__version__",
]
