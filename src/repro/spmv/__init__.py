"""Distributed sparse matrix-vector multiplication (Table III).

The paper runs 100 SpMVs with Trilinos/Epetra under eight data layouts:
1-D row distributions {Block, Random, ParMETIS, XtraPuLP} and 2-D
distributions {Block, Random, and the Boman-Devine-Rajamanickam mapping of
the 1-D ParMETIS/XtraPuLP partitions}.  This package reproduces the
experiment: per-rank blocks are real ``scipy.sparse`` matrices, every
expand/fold message goes through the metered simulated-MPI collectives, and
the modeled time shows exactly the communication-volume effect the paper's
table demonstrates.
"""

from repro.spmv.layout import Layout2D, grid_shape
from repro.spmv.dist_spmv import SpmvResult, run_spmv

__all__ = ["Layout2D", "grid_shape", "run_spmv", "SpmvResult"]
