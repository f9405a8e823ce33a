"""The ospd benchmark: workloads, oracles and the external layer tracer.

Run one workload with ``python3 bench/run.py --workload NAME``; see
``bench/README.md``.
"""
