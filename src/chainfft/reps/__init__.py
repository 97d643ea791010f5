"""Chain-adapted exact representations: local blocks, traces and the dual basis.

Generators and rho are stored only as sparse GT block data (see `core`).  The
independent regular-module oracle and the semisimplicity certificate that check
this data live with their tests, in `tests/oracle.py` and `tests/test_reps.py`.
"""

from .core import DEFAULT_Q, AdaptedRep, adapted_rep, local_blocks
from .seminormal import chebyshev_u, sn_block_table, tl_block_table

__all__ = [
    "DEFAULT_Q",
    "AdaptedRep",
    "adapted_rep",
    "local_blocks",
    "chebyshev_u",
    "sn_block_table",
    "tl_block_table",
]
