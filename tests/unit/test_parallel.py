"""Unit tests for the deterministic parallel sweep runner."""

import numpy as np
import pytest

from repro.observability import collect
from repro.parallel import chunk_indices, sweep
from repro.errors import RateVectorError, SweepError


def _square(x):
    return x * x


def _vector_point(x):
    return np.array([x, 2.0 * x])


class TestChunkIndices:
    def test_partitions_exactly(self):
        for n_items in (0, 1, 5, 16, 17, 100):
            for n_chunks in (1, 2, 3, 7, 32):
                chunks = chunk_indices(n_items, n_chunks)
                flat = [i for r in chunks for i in r]
                assert flat == list(range(n_items))
                if chunks:
                    sizes = [len(r) for r in chunks]
                    assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        assert chunk_indices(10, 3) == chunk_indices(10, 3)

    def test_validation(self):
        with pytest.raises(SweepError):
            chunk_indices(-1, 2)
        with pytest.raises(SweepError):
            chunk_indices(5, 0)

    def test_more_chunks_than_items_clamps(self):
        chunks = chunk_indices(3, 10)
        assert len(chunks) <= 3
        assert [i for r in chunks for i in r] == [0, 1, 2]


class TestSweep:
    GRID = list(range(23))

    def test_serial_matches_comprehension(self):
        assert sweep(_square, self.GRID, workers=1) == \
            [_square(x) for x in self.GRID]

    def test_thread_pool_preserves_order(self):
        out = sweep(_square, self.GRID, workers=4, executor="thread")
        assert out == [_square(x) for x in self.GRID]

    def test_process_pool_preserves_order(self):
        out = sweep(_square, self.GRID, workers=2, executor="process")
        assert out == [_square(x) for x in self.GRID]

    def test_chunk_size_respected(self):
        out = sweep(_square, self.GRID, workers=3, executor="thread",
                    chunk_size=2)
        assert out == [_square(x) for x in self.GRID]

    def test_array_results_come_back_intact(self):
        out = sweep(_vector_point, [0.5, 1.5], workers=2,
                    executor="thread")
        assert np.allclose(out[1], [1.5, 3.0])

    def test_empty_and_singleton_grids(self):
        assert sweep(_square, [], workers=4) == []
        assert sweep(_square, [3], workers=4) == [9]

    def test_unpicklable_work_falls_back_to_serial(self):
        with pytest.warns(RuntimeWarning):
            out = sweep(lambda x: x + 1, self.GRID, workers=2,
                        executor="process")
        assert out == [x + 1 for x in self.GRID]

    def test_fallback_warns_exactly_once_and_results_identical(self):
        fn = lambda x: x * 3  # noqa: E731 — unpicklable on purpose
        with pytest.warns(RuntimeWarning) as caught:
            out = sweep(fn, self.GRID, workers=2, executor="process")
        fallback_warnings = [w for w in caught
                             if issubclass(w.category, RuntimeWarning)]
        assert len(fallback_warnings) == 1
        assert "fell back to serial" in str(fallback_warnings[0].message)
        assert out == sweep(fn, self.GRID, workers=1)

    def test_fallback_reason_recorded(self):
        with collect() as session:
            with pytest.warns(RuntimeWarning):
                sweep(lambda x: x, self.GRID, workers=2,
                      executor="process")
        rec = session.sweep_records[0]
        assert rec.serial
        assert rec.fallback_reason is not None
        assert rec.executor == "process"
        assert rec.chunk_sizes == [len(self.GRID)]

    def test_validation(self):
        with pytest.raises(RateVectorError):
            sweep(_square, self.GRID, executor="greenlet")
        with pytest.raises(RateVectorError):
            sweep(_square, self.GRID, workers=-1)
        with pytest.raises(RateVectorError):
            sweep(_square, self.GRID, workers=2, chunk_size=0)
