"""The repository benchmark: workloads, tracing and gates.

Run ``python3 perfbench/run.py --help`` from the checkout root.
"""
