"""The repo's one end-to-end + per-layer benchmark (see README.md here).

``python3 -m benchmarks.e2e --workload W --seed S --seconds T --trace 0|1``
runs one workload through the public front door (``TrainSession.build`` /
``session.fit`` / ``session.serve``) and prints one JSON result line;
without ``--workload`` it runs all five, checks the cross-workload
released-model digest and writes one report.  ``BENCHMARK.json`` at the
repo root fixes the workload and metric names every later claim uses.

Importing this package starts nothing and imports neither numpy nor
``repro``: the BLAS thread pins in :mod:`benchmarks.e2e.__main__` must
land before numpy loads.
"""
