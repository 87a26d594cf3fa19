"""CPU speed probe, run beside every pass on the same CPU (started by ``run.py``).

    python3 speed_probe.py

Runs a fixed pure-Python loop in short bursts (``BURST_S`` of every
``PERIOD_S``) until it is killed.  Every ``BURSTS_PER_LINE`` bursts it
prints one line: the start and end of those bursts on the monotonic clock,
the loop chunks they finished and the CPU seconds they used.  Sharing one
CPU with the worker, it measures that CPU's speed in the same tens of
milliseconds as the pass, so ``run.py`` can express the pass's CPU time in
seconds of a CPU of fixed speed (``REF_CHUNKS_PER_S`` chunks per CPU second).
"""

import time

BURST_S = 0.002
PERIOD_S = 0.01
BURSTS_PER_LINE = 5
REF_CHUNKS_PER_S = 4000.0  # about the median on the 2-vCPU cloud VM the benchmark was built on


def chunk(table: dict) -> None:
    """Dictionary reads and writes with integer keys, as the solver does."""
    for i in range(1000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1


def main() -> None:
    table: dict = {}
    while True:
        start, chunks, cpu = time.monotonic(), 0, 0.0
        for _ in range(BURSTS_PER_LINE):
            t0, c0 = time.monotonic(), time.process_time()
            while time.monotonic() - t0 < BURST_S:
                chunk(table)
                chunks += 1
            cpu += time.process_time() - c0
            time.sleep(max(0.0, t0 + PERIOD_S - time.monotonic()))
        print(start, time.monotonic(), chunks, cpu, flush=True)


if __name__ == "__main__":
    main()
