"""Chain-adapted exact representations: local blocks, traces, oracle.

Generators and rho are stored only as sparse GT block data (see `core`).
"""

from .core import (
    DEFAULT_Q,
    AdaptedRep,
    SemisimplicityReport,
    adapted_rep,
    local_blocks,
    naive_transform_matrix,
    verify_semisimple,
)
from .oracle import OracleIrrep, OracleRep, oracle_irreps, oracle_matrix
from .seminormal import chebyshev_u, sn_block_table, tl_block_table

__all__ = [
    "DEFAULT_Q",
    "AdaptedRep",
    "SemisimplicityReport",
    "adapted_rep",
    "local_blocks",
    "naive_transform_matrix",
    "verify_semisimple",
    "OracleIrrep",
    "OracleRep",
    "oracle_irreps",
    "oracle_matrix",
    "chebyshev_u",
    "sn_block_table",
    "tl_block_table",
]
