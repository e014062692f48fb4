"""Reference implementations kept out of ``src/``: slow-but-obvious oracles
that the production kernels are asserted equal to."""
