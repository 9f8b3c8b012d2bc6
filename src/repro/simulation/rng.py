"""Deterministic random-stream management for the simulator.

Every stochastic component (each source's arrival process, each
gateway's service process, each gateway's Fair Share thinning) draws
from its own named substream spawned from a single root seed, so results
are reproducible and adding a component never perturbs the draws of the
others.

The engines draw through two surfaces over each substream: the
refillable :class:`VariateBuffer` that the fast kernel's Python loop
pops one variate at a time, and the :class:`VariateRows` the compiled
loop reads.  Both cross into numpy once per *block* of variates, not
once per variate.

**Buffering contract** (what makes the two surfaces bit-identical): a
numpy ``Generator`` fills an array with the same bitstream consumption
as the equivalent sequence of scalar draws (also when it fills an ``out=``
row in place), and ``Generator.exponential(scale)`` equals
``scale * Generator.standard_exponential()`` exactly.  So the k-th
variate popped from a buffer equals the k-th scalar draw from the same
stream (``stream(name).exponential(scale)`` or ``stream(name).random()``)
— provided each named stream is used for **one draw kind only**
(exponential *or* uniform, never both).  The simulator's stream naming
(``arrival:c{i}``, ``service:{g}``, ``thinning:{g}``) guarantees this.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

import numpy as np

from ..errors import SimulationError

__all__ = ["RandomStreams", "VariateBuffer", "VariateRows"]

#: Default number of variates drawn per buffer refill.
_BLOCK = 512


class VariateBuffer:
    """A refillable block of variates from one ``Generator``.

    The hot loop calls :meth:`next_exponential` /
    :meth:`next_uniform` — plain attribute arithmetic on a prefetched
    Python list — and only crosses into
    ``Generator.standard_exponential(size=block)`` (or
    ``Generator.random(size=block)``) once per ``block`` draws.

    One buffer must serve one draw kind only; mixing exponential and
    uniform pops on the same buffer would interleave two block caches
    over one bitstream and break reproducibility, so it raises.
    """

    __slots__ = ("_gen", "_block", "_values", "_index", "_kind")

    def __init__(self, generator: np.random.Generator, block: int = _BLOCK):
        if block < 1:
            raise SimulationError(
                f"buffer block size must be >= 1, got {block!r}")
        self._gen = generator
        self._block = int(block)
        self._values: list = []
        self._index = 0
        self._kind: str = ""

    def _refill(self, kind: str) -> None:
        if self._kind and self._kind != kind:
            raise SimulationError(
                f"variate buffer already serves {self._kind!r} draws; "
                f"a stream must be used for one draw kind only")
        self._kind = kind
        if kind == "exponential":
            block = self._gen.standard_exponential(self._block)
        else:
            block = self._gen.random(self._block)
        self._values = block.tolist()
        self._index = 0

    def next_exponential(self, scale: float) -> float:
        """The next ``Exp(1/scale)`` variate: ``scale * Exp(1)``."""
        i = self._index
        if i >= len(self._values) or self._kind != "exponential":
            self._refill("exponential")
            i = 0
        self._index = i + 1
        return scale * self._values[i]

    def next_uniform(self) -> float:
        """The next U(0,1) variate."""
        i = self._index
        if i >= len(self._values) or self._kind != "uniform":
            self._refill("uniform")
            i = 0
        self._index = i + 1
        return self._values[i]


class VariateRows:
    """Variate blocks of several streams as the rows of one ndarray.

    The compiled packet loop reads row ``s`` of :attr:`values` at
    :attr:`index` ``[s]`` and advances the index itself; when a row is
    spent it returns to Python, which calls :meth:`refill` to draw the
    stream's next block into the same row (``Generator.
    standard_exponential(out=row)`` or ``Generator.random(out=row)``,
    the bits of a sized draw).  Nothing is copied per call, and each
    row serves the one draw kind it was built with.  Every row is
    filled at construction; a row holds ``_BLOCK`` variates.
    """

    __slots__ = ("values", "index", "_gens", "_exponential")

    def __init__(self, generators, exponential):
        self._gens = list(generators)
        self._exponential = [bool(e) for e in exponential]
        self.values = np.empty((len(self._gens), _BLOCK))
        self.index = np.zeros(len(self._gens), dtype=np.int64)
        for s in range(len(self._gens)):
            self.refill(s)

    def refill(self, s: int) -> None:
        """Draw stream ``s``'s next block into its row."""
        if self._exponential[s]:
            self._gens[s].standard_exponential(out=self.values[s])
        else:
            self._gens[s].random(out=self.values[s])
        self.index[s] = 0


class RandomStreams:
    """A registry of independent named :class:`numpy.random.Generator` s."""

    __slots__ = ("_root", "_streams", "_buffers")

    def __init__(self, seed: int):
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._buffers: Dict[Tuple[str, int], VariateBuffer] = {}

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name``, created and cached on first use.

        The substream seed is derived from the root seed and the name,
        so the mapping is stable across runs and independent of the
        order in which streams are first requested.  Repeat lookups are
        a single dict hit — the ``SeedSequence`` spawn happens once per
        name.
        """
        try:
            return self._streams[name]
        except KeyError:
            pass
        digest = hashlib.md5(name.encode("utf-8")).digest()
        key = (int.from_bytes(digest[:8], "little"),
               int.from_bytes(digest[8:], "little"))
        child = np.random.SeedSequence(entropy=self._root.entropy,
                                       spawn_key=key)
        gen = np.random.default_rng(child)
        self._streams[name] = gen
        return gen

    def buffer(self, name: str, block: int = _BLOCK) -> VariateBuffer:
        """The (cached) :class:`VariateBuffer` over stream ``name``.

        The buffer wraps the *same* generator :meth:`stream` returns,
        so buffered draws and direct draws on the generator consume one
        bitstream; per the buffering contract, do not mix the two on
        the same stream within one simulation.
        """
        key = (name, int(block))
        try:
            return self._buffers[key]
        except KeyError:
            buf = VariateBuffer(self.stream(name), block=block)
            self._buffers[key] = buf
            return buf
