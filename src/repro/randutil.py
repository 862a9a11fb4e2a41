"""Buffered random-number helpers.

Per-call overhead on ``numpy.random.Generator`` dominates hot loops that
need one or two variates per simulated object.  :class:`BufferedUniform`
pre-draws blocks of uniforms and hands them out one at a time, preserving
determinism (the stream depends only on the seed and the draw order).
"""


from repro.errors import ConfigurationError


class BufferedUniform:
    """A fast source of U(0,1) variates backed by block draws.

    The current block is the drawn NumPy block (``array``), a
    ``memoryview`` of it (``buf``: indexing yields plain Python floats,
    with no second copy of the block) and a read cursor (``pos``).  Hot
    loops may draw inline — read ``buf[pos]`` (or a slice of ``array``)
    and advance ``pos`` while ``pos < block`` — instead of calling
    :meth:`next` per variate, as long as they write ``pos`` back and
    refill only through :meth:`next`.  The stream (which variate is
    drawn when, and when the generator is asked for the next block) is
    then exactly the one a sequence of :meth:`next` calls produces.
    """

    def __init__(self, rng, block=4096):
        if block < 16:
            raise ConfigurationError("block size too small")
        self.rng = rng
        self.block = block
        self._refill()

    def _refill(self):
        self.array = self.rng.random(self.block)
        self.buf = memoryview(self.array)
        self.pos = 0

    def next(self):
        """One U(0,1) variate."""
        if self.pos >= self.block:
            self._refill()
        value = self.buf[self.pos]
        self.pos += 1
        return value

    def next_index(self, n):
        """One uniform integer in ``[0, n)``."""
        return int(self.next() * n)
