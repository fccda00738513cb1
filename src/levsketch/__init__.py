"""Sample-model sketching for statistical leverage scores of low-rank
matrices: weighted sample trees, two-stage subsampling, and per-row score
estimation whose query cost is independent of the matrix height.
"""

from .diagnostics import (concentration_ratios, counted_sketch_spectrum,
                          deviation_bound, sigma_min_bound)
from .estimator import (LeverageReport, estimate_inner, mom_group_shape,
                        orthogonality_defect, qisls_all, qisls_score,
                        read_report_csv, write_report_csv)
from .oracle import (exact_leverage, gen_example1, gen_example2,
                     numerical_rank, spectral_norm_and_kappa)
from .rng import standard_normal, stream, trial_stream
from .sample_store import (MatrixSampleStore, SampleTree, read_matrix_csv,
                           write_matrix_csv)
from .sketch import (Params, SketchDescription, build_w, compute_params,
                     qisvd, read_sketch_csv, s_entry, s_row, sample_columns,
                     sample_rows, theta_upper, write_sketch_csv)
from .svd import SvdResult, householder_qr, svd_dense, truncate_top_k

__version__ = "0.1.0"

__all__ = [
    "LeverageReport", "MatrixSampleStore", "Params", "SampleTree",
    "SketchDescription", "SvdResult", "build_w", "compute_params",
    "concentration_ratios", "counted_sketch_spectrum", "deviation_bound",
    "estimate_inner", "exact_leverage", "gen_example1", "gen_example2",
    "householder_qr", "mom_group_shape", "numerical_rank",
    "orthogonality_defect", "qisls_all",
    "qisls_score", "qisvd", "read_matrix_csv", "read_report_csv",
    "read_sketch_csv", "s_entry", "s_row", "sample_columns", "sample_rows",
    "sigma_min_bound", "spectral_norm_and_kappa", "standard_normal",
    "stream", "svd_dense", "theta_upper", "trial_stream", "truncate_top_k",
    "write_matrix_csv", "write_report_csv", "write_sketch_csv",
    "__version__",
]
