"""The repository benchmark: seeded workloads over the ``repro`` simulator.

``python -m bench.run`` (or ``python3 bench/run.py``) runs the workloads
defined in :mod:`bench.workloads`, each pass in a fresh child process
(:mod:`bench.child`), and reports the end-to-end and per-layer metrics
that ``BENCHMARK.json`` declares.  ``python -m bench.compare`` judges two
sets of result files against the bounds in ``BENCHMARK.json``.  See
``bench/README.md``.

The package only calls into ``repro``; it changes nothing under ``src/``.
"""
