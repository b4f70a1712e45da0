"""Literal shift-register realization of the reference family.

Hardware derives the 2N references by clocking one telegraph wave into
a register with 2N-1 storage stages and tapping every stage plus the
live input.  This module steps that construction sample by sample with
an actual deque of stages.  The package reads shifted streams by index
offset instead; the two realizations are equivalent, and the
conformance tests hold this one against the other bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from noisebits.source import NoiseSource, as_source, sample_block


class DelayLineRegister:
    """Depth-``depth`` delay line fed by the wave, tapped at every stage.

    At output step t the live input carries offset ``depth`` and stage
    age j carries offset ``depth - j``, so the line is fed with the
    wave advanced by ``depth`` periods: input(t) = u(t + depth).
    """

    def __init__(self, source: NoiseSource | int, depth: int):
        if depth < 0:
            raise ValueError(f"register depth must be >= 0, got {depth}")
        self.source = as_source(source)
        self.depth = depth

    def run(self, start: int, length: int) -> np.ndarray:
        """Clock the line for ``length`` steps after priming.

        Returns an int8 array of shape (depth + 1, length); row d holds
        the output at shift offset d.
        """
        feed = sample_block(self.source.seed, start, length + self.depth)
        stages: deque[int] = deque(maxlen=self.depth or None)
        pos = 0
        if self.depth:
            for _ in range(self.depth):  # prime: fill every stage
                stages.append(int(feed[pos]))
                pos += 1
        out = np.empty((self.depth + 1, length), dtype=np.int8)
        for t in range(length):
            live = int(feed[pos])
            pos += 1
            # stages[0] is the oldest entry, i.e. offset 0
            for d, v in enumerate(stages):
                out[d, t] = v
            out[self.depth, t] = live
            if self.depth:
                stages.append(live)
        return out


def delay_line_reference_values(source: NoiseSource | int, n_eff: int,
                                start: int, length: int) -> np.ndarray:
    """All 2 * n_eff reference streams as rows, produced by the register."""
    register = DelayLineRegister(source, 2 * n_eff - 1)
    return register.run(start, length)
