"""Mini columnar query engine.

Executes the paper's workloads (Table 4) for real over generated data while
counting the work performed: rows touched, bytes moved, instruction
estimates, and a sampled DRAM-level access trace that drives the MEE and
cache simulations.

The package exports no names: import from ``repro.query.table``,
``.trace`` or ``.operators``. The platform schemes use ``.trace`` alone,
and it must not pay for numpy, which ``.table`` loads.
"""
