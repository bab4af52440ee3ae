"""Tests for the FIFO channel and register-file models."""

import pytest

from repro.errors import SimulationError
from repro.sim.fifo import StreamFIFO
from repro.sim.rf import RegisterFileModel


class TestStreamFIFO:
    def test_fifo_ordering(self):
        fifo = StreamFIFO("ch", capacity=4)
        fifo.push((0, 1, 10))
        fifo.push((0, 2, 20))
        assert fifo.pop() == (0, 1, 10)
        assert fifo.pop() == (0, 2, 20)

    def test_capacity_and_overflow(self):
        fifo = StreamFIFO("ch", capacity=2)
        fifo.push((0, 1, 1))
        fifo.push((0, 2, 2))
        assert fifo.is_full
        with pytest.raises(SimulationError):
            fifo.push((0, 3, 3))

    def test_unbounded_when_capacity_zero(self):
        fifo = StreamFIFO("input", capacity=0)
        for i in range(100):
            fifo.push((0, i, i))
        assert not fifo.is_full
        assert len(fifo) == 100

    def test_underflow_raises(self):
        with pytest.raises(SimulationError):
            StreamFIFO("ch").pop()

    def test_peek_does_not_consume(self):
        fifo = StreamFIFO("ch")
        fifo.push((1, 2, 3))
        assert fifo.peek() == (1, 2, 3)
        assert len(fifo) == 1

    def test_high_water_mark_tracks_peak_occupancy(self):
        fifo = StreamFIFO("ch", capacity=8)
        for i in range(5):
            fifo.push((0, i, i))
        for _ in range(5):
            fifo.pop()
        assert fifo.high_water_mark == 5


class TestRegisterFileModel:
    def test_write_read_consume_cycle(self):
        rf = RegisterFileModel("rf")
        rf.write(block=0, value_id=7, value=42, reads=2)
        assert rf.has(0, 7)
        assert rf.read(0, 7) == 42
        assert rf.consume(0, 7) == 42
        assert rf.has(0, 7)          # one read left
        assert rf.consume(0, 7) == 42
        assert not rf.has(0, 7)      # freed after the last read

    def test_missing_value_raises(self):
        rf = RegisterFileModel("rf")
        with pytest.raises(SimulationError):
            rf.read(0, 1)

    def test_constants_are_always_resident(self):
        rf = RegisterFileModel("rf")
        rf.preload_constant(5, 99)
        assert rf.has(123, 5)
        assert rf.consume(123, 5) == 99
        assert rf.consume(456, 5) == 99  # never freed

    def test_zero_read_values_are_dropped(self):
        rf = RegisterFileModel("rf")
        rf.write(0, 1, 10, reads=0)
        assert not rf.has(0, 1)

    def test_per_block_values_are_independent(self):
        rf = RegisterFileModel("rf")
        rf.write(0, 1, 10, reads=1)
        rf.write(1, 1, 20, reads=1)
        assert rf.read(0, 1) == 10
        assert rf.read(1, 1) == 20

    def test_high_water_marks(self):
        rf = RegisterFileModel("rf", physical_depth=8, frame_capacity=4)
        for value_id in range(3):
            rf.write(0, value_id, value_id, reads=1)
        for value_id in range(2):
            rf.write(1, 10 + value_id, value_id, reads=1)
        assert rf.high_water_mark == 5
        assert rf.per_block_high_water_mark == 3
        assert rf.check_capacity()

    def test_capacity_violation_detected(self):
        rf = RegisterFileModel("rf", physical_depth=4, frame_capacity=2)
        for value_id in range(3):
            rf.write(0, value_id, value_id, reads=1)
        assert not rf.check_capacity()
        with pytest.raises(SimulationError):
            rf.check_capacity(strict=True)
