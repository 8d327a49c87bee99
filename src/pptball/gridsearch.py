"""Grid sizes kept only for the benchmark; pptball computes nothing here.

The dense-grid overlap search is gone: the descent of ``pptball.witness``
gives the upper estimate of the minimum overlap and ``pptball.proof`` bounds
it from below.  ``perfbench/kernels.py`` still reads these three constants for
its ``kernel.grid_pair_*`` rows, and ``perfbench/spans.py`` imports this
module.  The benchmark-only change of ROADMAP item 1 deletes this stub
together with those rows.
"""

THETA_POINTS = {2: 13, 3: 9}
PHI_POINTS = {2: 16, 3: 12}
PAIR_BLOCK_DOUBLES = 2**17
