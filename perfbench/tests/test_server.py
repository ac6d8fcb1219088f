"""Reading a process's CPU time, and the metric built on it."""

import os
import time

import layers
import server
from workloads import Segment


def test_cpu_s_counts_the_process_work():
    before = server.cpu_s(os.getpid())
    began = time.process_time()
    while time.process_time() - began < 0.3:
        pass
    assert 0.2 <= server.cpu_s(os.getpid()) - before <= 1.0


def test_interactive_op_ms_is_server_cpu_time_per_query():
    seg = Segment(start=0.0, end=10.0, answered=1000, setups_s=[1.0],
                  latencies_ms=[9.0] * 1000, server_cpu_s=2.5)
    assert layers.end_to_end("interactive", seg)["op_ms"] == 2.5
