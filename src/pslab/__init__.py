"""Desk-scale laboratory for Piatetski-Shapiro primes and circle-method experiments.

Subpackages:
    exponents   -- exact rational calculus for every admissibility exponent
    ps_core     -- exact floor-power sequence membership and prime sieving
    wtrick      -- small-modulus residue trick: the prime majorant and mu
    expsum      -- exponential sums, FFT torus grids, arc classification
    diophantine -- solution counting and triviality classification
    residues    -- residue classes mod small q: the counts' filter
    batches     -- ragged ranges and sorted runs, a bounded number at a time
    cli         -- experiment orchestration and reproducible sweeps
"""

__version__ = "0.1.0"
