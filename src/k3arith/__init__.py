"""Computational arithmetic of K3 surfaces.

Exact point counts over finite fields (ff, count), zeta-function assembly
and Picard bounds (zeta), binary quadratic forms and class groups (bqf),
elliptic-surface fiber bookkeeping (ellsurf), singular K3 surfaces and
Inose pencils (singk3), modularity checks and CM parameter sieves (cmmod),
and a persistent count cache (cache).  The `k3` console script fronts the
same operations with JSON reports.

Importing the package loads none of these layers: each loads when it is
first imported (`from k3arith import bqf`), so a `k3` job pays only for the
layers its subcommand calls.
"""

__version__ = "0.1.0"
