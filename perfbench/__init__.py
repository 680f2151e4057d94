"""Session benchmark for noisepad: delivered key rate, cycle latency, per-layer trace.

Run one workload with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`; see run.py.
"""
