"""One fresh set-up: import semifd.cli and generate a config stream.

Usage: python3 perfbench/probe.py <workload> <seed>

Prints "ready" once the stream exists; run.py times this from process start.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import semifd.cli  # noqa: E402,F401
import workloads  # noqa: E402

STREAM_LENGTH = 256

workloads.configs(sys.argv[1], int(sys.argv[2]), STREAM_LENGTH)
sys.stdout.write("ready\n")
sys.stdout.flush()
