"""Seeded op streams: each op is the argv of one ``noisebits`` CLI call.

A workload is a fixed list of slots.  Block ``b`` of a stream runs every
slot once, in an order shuffled by ``(workload, seed, b)``, and each slot
draws its data (noise seed, strings, gate choices) from the same random
generator.  The sizes that set an op's cost (n_eff, member count,
window length) are stratified by slot, so every block carries the same
cost mix whatever the seed, while the inputs differ from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

Slot = Callable[[random.Random], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]


def _noise_seed(rng: random.Random) -> str:
    return str(rng.randrange(1 << 32))


def _bits(value: int, width: int) -> str:
    """The CLI's bit-string form: least significant bit first."""
    return "".join(str((value >> i) & 1) for i in range(width))


def _encode_decode(rng: random.Random, n_eff: int, m_lo: int, m_hi: int) -> list[str]:
    argv = ["encode-decode"]
    # An even n_eff is reached both directly and as one expansion round.
    if n_eff % 2 == 0 and rng.random() < 0.5:
        argv += ["--n", str(n_eff // 2), "--k", "1"]
    else:
        argv += ["--n", str(n_eff)]
    return argv + ["--m-strings", str(rng.randint(m_lo, m_hi)), "--seeds", "1",
                   "--seed", _noise_seed(rng)]


def _holographic(rng: random.Random) -> list[str]:
    strings = rng.sample(range(1 << 10), rng.randint(1, 6))
    return ["holographic", "--n", "5", "--k", "1", "--d", str(rng.randint(1, 3)),
            "--strings", ",".join(_bits(v, 10) for v in strings),
            "--seed", _noise_seed(rng)]


def _noncommute(rng: random.Random, length: int) -> list[str]:
    # x carries offset 2j + x_j for each bit j.  Picking (i, b) and d so
    # that reference offset o is in neither x nor x shifted by d keeps
    # both gate orders at 9 factors: an op's cost is set by L alone.
    x = [rng.randint(0, 1) for _ in range(8)]
    i = rng.randint(1, 8)
    o = 2 * (i - 1) + 1 - x[i - 1]
    d = rng.choice([d for d in range(1, 5) if o < d or x[(o - d) // 2] != (o - d) % 2])
    return ["noncommute", "--n", "8", "--i", str(i), "--b", str(o % 2), "--d", str(d),
            "--x", "".join(map(str, x)), "--l", str(length), "--seed", _noise_seed(rng)]


def _ortho(rng: random.Random, length: int) -> list[str]:
    return ["ortho", "--n", "4", "--l", str(length), "--format", "json",
            "--seed", _noise_seed(rng)]


def _randshift(rng: random.Random, length: int) -> list[str]:
    return ["randshift", "--n", "3", "--assign-seed", str(rng.randrange(1 << 16)),
            "--i", str(rng.randint(1, 3)), "--b", str(rng.randint(0, 1)),
            "--l", str(length), "--seed", _noise_seed(rng)]


L18, L19, L20 = 1 << 18, 1 << 19, 1 << 20

WORKLOADS = {w.name: w for w in (
    Workload(
        "decode-wide",
        "encode-decode at n_eff 12-14 and m 1-16 plus holographic at n_eff 10: "
        "the 2^n_eff readout sweep is most of each op",
        # n_eff 14 twice: the sweep is over 2/3 of the mix's op time.
        (_holographic,) * 4
        + tuple(partial(_encode_decode, n_eff=n, m_lo=lo, m_hi=hi)
                for n in (12, 13, 14, 14) for lo, hi in ((1, 5), (6, 11), (12, 16))),
    ),
    Workload(
        "encode-dense",
        "encode-decode at n_eff 6-8 with 24-64 members: materializing the "
        "superposition is most of each op, the sweep is small",
        tuple(partial(_encode_decode, n_eff=n, m_lo=lo, m_hi=hi)
              for n in (6, 7, 8) for lo, hi in ((24, 33), (34, 43), (44, 53), (54, 64))),
    ),
    Workload(
        "gates-long",
        "noncommute, ortho and randshift on packed windows of 2^18-2^20 "
        "samples: hash, XOR-fold and popcount only, no readout sweep",
        # Cheapest first.  p50 falls inside the four 2^19 noncommute slots
        # and p90 inside the two 2^20 ones, not on a gap between sizes.
        (partial(_randshift, length=L18), partial(_ortho, length=L18))
        + (partial(_noncommute, length=L18),) * 2
        + (partial(_randshift, length=L20),)
        + (partial(_noncommute, length=L19),) * 4
        + (partial(_ortho, length=L20),)
        + (partial(_noncommute, length=L20),) * 2,
    ),
)}


def block(workload: Workload, seed: int, index: int) -> list[list[str]]:
    """Ops of block ``index``: every slot once, in a seeded order."""
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    order = list(range(len(workload.slots)))
    rng.shuffle(order)
    return [workload.slots[j](rng) for j in order]


def first_ops(workload: Workload, seed: int, count: int) -> list[list[str]]:
    """The first ``count`` ops of the stream, whole blocks first."""
    ops: list[list[str]] = []
    index = 0
    while len(ops) < count:
        ops += block(workload, seed, index)
        index += 1
    return ops[:count]


def warmup_ops(workload: Workload, seed: int) -> list[list[str]]:
    """Two ops from a block the timed stream never uses: the first slot and
    the last.  Slots are listed cheapest first, so the warm-up makes the
    largest allocations of the mix before timing starts."""
    rng = random.Random(f"{workload.name}:{seed}:warmup")
    return [workload.slots[0](rng), workload.slots[-1](rng)]
