"""Reference implementations the test suite and benchmarks compare against.

Nothing here runs in production: these are the pre-packing per-read
paths, kept verbatim so the packed hot path can be held byte-identical
to them (``tests/test_packed_equivalence.py``) and timed against them
(``benchmarks/bench_micro_pipeline.py``).
"""
