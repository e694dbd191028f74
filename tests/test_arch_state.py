"""Register file, predicate file, and scratchpad."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.predicates import PredicateFile
from repro.arch.regfile import RegisterFile
from repro.arch.scratchpad import Scratchpad
from repro.errors import SimMemoryError, SimulationError
from repro.isa.instruction import PredUpdate
from repro.params import DEFAULT_PARAMS as P


class TestRegisterFile:
    def test_initializes_to_zero(self):
        regs = RegisterFile(P)
        assert all(regs.read(i) == 0 for i in range(len(regs)))

    def test_write_read(self):
        regs = RegisterFile(P)
        regs.write(3, 42)
        assert regs.read(3) == 42

    def test_write_truncates_to_word(self):
        regs = RegisterFile(P)
        regs.write(0, 1 << 40)
        assert regs.read(0) == 0

    def test_out_of_range_raises(self):
        regs = RegisterFile(P)
        with pytest.raises(SimulationError):
            regs.read(8)
        with pytest.raises(SimulationError):
            regs.write(-1, 0)

    def test_reset_and_snapshot(self):
        regs = RegisterFile(P)
        regs.write(1, 5)
        assert regs.snapshot()[1] == 5
        regs.reset()
        assert regs.snapshot() == (0,) * 8

    def test_restore_overwrites_every_register(self):
        regs = RegisterFile(P)
        regs.write(3, 9)
        regs.restore((1, 2, 3, 4, 5, 6, 7, 8))
        assert regs.snapshot() == (1, 2, 3, 4, 5, 6, 7, 8)
        with pytest.raises(SimulationError):
            regs.restore((0,) * (P.num_regs - 1))
        assert len(regs) == P.num_regs


class TestPredicateFile:
    def test_initial_state(self):
        assert PredicateFile(P).state == 0
        assert PredicateFile(P, initial=0b101).state == 0b101

    def test_bit_access(self):
        preds = PredicateFile(P)
        preds.write_bit(3, 1)
        assert preds.read_bit(3) == 1
        assert preds.state == 0b1000
        preds.write_bit(3, 0)
        assert preds.state == 0

    def test_nonzero_value_sets_bit(self):
        preds = PredicateFile(P)
        preds.write_bit(0, 7)
        assert preds.read_bit(0) == 1

    def test_apply_update(self):
        preds = PredicateFile(P, initial=0b0110)
        preds.apply_update(PredUpdate(set_mask=0b0001, clear_mask=0b0100))
        assert preds.state == 0b0011

    def test_out_of_range_raises(self):
        with pytest.raises(SimulationError):
            PredicateFile(P).read_bit(8)

    def test_rejects_oversized_initial(self):
        with pytest.raises(SimulationError):
            PredicateFile(P, initial=1 << 8)

    @given(state=st.integers(0, 255), set_mask=st.integers(0, 255),
           clear_mask=st.integers(0, 255))
    def test_update_is_set_then_clear(self, state, set_mask, clear_mask):
        preds = PredicateFile(P, initial=state)
        preds.apply_update(PredUpdate(set_mask=set_mask & ~clear_mask,
                                      clear_mask=clear_mask))
        expected = (state | (set_mask & ~clear_mask)) & ~clear_mask
        assert preds.state == expected & 0xFF


class TestScratchpad:
    def test_load_store(self):
        pad = Scratchpad(P)
        pad.store(10, 99)
        assert pad.load(10) == 99

    def test_preload_and_dump(self):
        pad = Scratchpad(P)
        pad.preload([1, 2, 3], base=5)
        assert pad.dump(5, 3) == [1, 2, 3]

    def test_bounds(self):
        pad = Scratchpad(P)
        with pytest.raises(SimMemoryError):
            pad.load(P.scratchpad_words)
        with pytest.raises(SimMemoryError):
            pad.preload([0] * 10, base=P.scratchpad_words - 5)

    def test_store_truncates(self):
        pad = Scratchpad(P)
        pad.store(0, 1 << 35)
        assert pad.load(0) == 0

    def test_reset(self):
        pad = Scratchpad(P)
        pad.store(0, 1)
        pad.reset()
        assert pad.load(0) == 0

    def test_reset_after_preload_and_store_clears_everything(self):
        pad = Scratchpad(P)
        pad.preload([4, 5, 6], base=20)
        pad.store(200, 7)
        pad.store(21, 0)
        assert pad.nonzero() == ((20, 4), (22, 6), (200, 7))
        pad.reset()
        assert pad.dump() == [0] * P.scratchpad_words
        assert pad.nonzero() == ()

    def test_nonzero_matches_a_full_scan(self):
        pad = Scratchpad(P)
        pad.store(9, 3)
        pad.store(2, 1 << 32)      # truncates to zero
        pad.preload([0, 8], base=100)
        assert pad.nonzero() == tuple(
            (address, word) for address, word in enumerate(pad.dump())
            if word)

    def test_dump_range(self):
        pad = Scratchpad(P)
        assert pad.dump(0, 0) == []
        assert pad.dump(P.scratchpad_words - 1, 1) == [0]
        with pytest.raises(SimMemoryError):
            pad.dump(0, P.scratchpad_words + 1)
        with pytest.raises(SimMemoryError):
            pad.dump(4, -1)
        with pytest.raises(SimMemoryError):
            pad.dump(P.scratchpad_words, 0)
