"""Machine-speed correction for timings taken on a shared, noisy host.

On the shared 2-CPU machine the benchmark was written on, the same pass
took up to 40% longer in one process than in the next, in wall and CPU
time alike, because other tenants' load on the host comes and goes. A
`Meter` cuts the work into steps of about a second. Before each step it
runs a fixed reference loop (pure Python, no lipogram code) and scales the
step's time by REFERENCE_S over the loop's time: a scaled time is what the
step would have taken with the machine at the speed where the loop takes
REFERENCE_S. Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import re
import time

clock = time.perf_counter

# Median time of the loop on the machine the benchmark was written on.
REFERENCE_S = 0.045
REFERENCE_WORDS = 20000


class Meter:
    def __init__(self, corpus: str, tracer=None):
        self.words = re.findall(r"[a-z]+", corpus.lower())[:REFERENCE_WORDS]
        self.tracer = tracer  # loops show up as harness spans in a trace
        self.loop_s: list[float] = []
        self.steps: list[tuple[float, float]] = []  # (raw seconds, loop time before)
        self._open = None  # (start of the current step, loop time before it)

    def loop(self) -> float:
        """Time one run of the reference loop: count word pairs, sort them."""
        start = clock()
        pairs: dict[tuple[str, str], int] = {}
        for pair in zip(self.words, self.words[1:]):
            pairs[pair] = pairs.get(pair, 0) + 1
        sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        return clock() - start

    def mark(self, final: bool = False) -> None:
        """End the current step, if any; unless final, probe and start the next."""
        end = clock()
        if self._open is not None:
            start, speed = self._open
            self.steps.append((end - start, speed))
            self._open = None
        if final:
            return
        if self.tracer:
            self.tracer.open("bench.reference")
        speed = self.loop()
        if self.tracer:
            self.tracer.close()
        self.loop_s.append(speed)
        self._open = (clock(), speed)

    def totals(self, first: int = 0) -> tuple[float, float]:
        """(raw, scaled) seconds of the steps from index `first` on."""
        steps = self.steps[first:]
        raw = sum(seconds for seconds, _ in steps)
        scaled = sum(seconds * REFERENCE_S / speed for seconds, speed in steps)
        return raw, scaled
