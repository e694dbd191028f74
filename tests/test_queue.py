"""Tagged queue semantics: staged commit, capacity, FIFO order."""

import pytest
from hypothesis import given, strategies as st

from repro.arch.queue import QueueEntry, TaggedQueue
from repro.errors import QueueError


class TestBasics:
    def test_empty_on_construction(self):
        q = TaggedQueue(4)
        assert q.is_empty and q.occupancy == 0 and q.free_slots == 4

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(QueueError):
            TaggedQueue(0)

    def test_staged_enqueue_invisible_until_commit(self):
        q = TaggedQueue(4)
        q.enqueue(1, tag=2)
        assert q.is_empty            # consumer can't see it yet
        assert q.free_slots == 3     # but the slot is taken
        q.commit()
        assert q.occupancy == 1
        assert q.peek(0) == QueueEntry(1, 2)

    def test_enqueue_to_full_raises(self):
        q = TaggedQueue(2)
        q.enqueue(1)
        q.enqueue(2)
        with pytest.raises(QueueError, match="full"):
            q.enqueue(3)

    def test_staged_entries_count_against_capacity(self):
        q = TaggedQueue(2)
        q.enqueue(1)
        q.commit()
        q.enqueue(2)          # staged
        assert q.is_full
        with pytest.raises(QueueError):
            q.enqueue(3)

    def test_dequeue_from_empty_raises(self):
        with pytest.raises(QueueError, match="empty"):
            TaggedQueue(4).dequeue()

    def test_peek_beyond_occupancy_raises(self):
        q = TaggedQueue(4)
        q.enqueue(1)
        q.commit()
        with pytest.raises(QueueError, match="peek"):
            q.peek(1)

    def test_head_and_neck_visibility(self):
        q = TaggedQueue(4)
        q.enqueue(10, tag=0)
        q.enqueue(20, tag=1)
        q.commit()
        assert q.peek(0).value == 10        # head
        assert q.peek(1).value == 20        # neck (Section 5.3)

    def test_dequeue_is_immediate(self):
        q = TaggedQueue(4)
        q.enqueue(1)
        q.commit()
        entry = q.dequeue()
        assert entry.value == 1 and q.is_empty

    def test_drain_and_reset(self):
        q = TaggedQueue(4)
        for value in (1, 2, 3):
            q.enqueue(value)
        q.commit()
        assert [e.value for e in q.drain()] == [1, 2, 3]
        q.enqueue(9)
        q.reset()
        q.commit()
        assert q.is_empty


class TestFifoProperty:
    @given(st.lists(st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 3)),
                    min_size=1, max_size=32))
    def test_order_preserved_across_commits(self, items):
        q = TaggedQueue(len(items))
        for value, tag in items:
            q.enqueue(value, tag)
            q.commit()
        seen = [q.dequeue() for _ in range(len(items))]
        assert [(e.value, e.tag) for e in seen] == items

    @given(st.data())
    def test_interleaved_operations_never_lose_entries(self, data):
        q = TaggedQueue(8)
        reference = []   # entries the consumer can currently see
        staged = []
        for _ in range(data.draw(st.integers(1, 60))):
            action = data.draw(st.sampled_from(["enq", "deq", "commit"]))
            if action == "enq" and q.free_slots > 0:
                value = data.draw(st.integers(0, 1000))
                q.enqueue(value)
                staged.append(value)
            elif action == "deq" and reference:
                assert q.dequeue().value == reference.pop(0)
            elif action == "commit":
                q.commit()
                reference.extend(staged)
                staged.clear()
            assert q.occupancy == len(reference)
            assert q.free_slots == q.capacity - len(reference) - len(staged)


class TestVersionCounter:
    """The monotone version counter backing memoized trigger decisions.

    Soundness of the scheduler's decision cache rests on one invariant:
    any mutation that can change what a queue-status view observes bumps
    ``version``, and the counter never decreases.
    """

    def test_every_mutation_bumps_the_version(self):
        q = TaggedQueue(4)
        v = q.version
        q.enqueue(1)
        assert q.version > v; v = q.version
        q.commit()
        assert q.version > v; v = q.version
        q.dequeue()
        assert q.version > v; v = q.version
        q.enqueue(2)
        q.commit()
        q.drain()
        assert q.version > v; v = q.version
        q.reset()
        assert q.version > v

    def test_empty_commit_leaves_version_alone(self):
        q = TaggedQueue(4)
        v = q.version
        q.commit()
        assert q.version == v

    @given(st.data())
    def test_version_is_strictly_monotone(self, data):
        q = TaggedQueue(4)
        last = q.version
        for _ in range(data.draw(st.integers(1, 40))):
            action = data.draw(st.sampled_from(["enq", "deq", "commit"]))
            if action == "enq" and q.free_slots > 0:
                q.enqueue(data.draw(st.integers(0, 100)))
            elif action == "deq" and q.occupancy:
                q.dequeue()
            elif action == "commit":
                q.commit()
            assert q.version >= last
            last = q.version


def _uncached(q):
    """The :meth:`TaggedQueue.arch_state` encoding, read from the deques."""
    return (tuple((e.value, e.tag) for e in q._live),
            tuple((e.value, e.tag) for e in q._staged))


class TestArchStateCache:
    """``arch_state`` is cached against ``version``: every mutation must
    invalidate it, or the checker would explore stale states."""

    @staticmethod
    def _loaded():
        q = TaggedQueue(4)
        for value in (1, 2):
            q.enqueue(value, tag=value)
        q.commit()
        q.enqueue(3, tag=3)
        return q

    @pytest.mark.parametrize("mutate", [
        lambda q: q.enqueue(7, tag=1),
        lambda q: q.dequeue(),
        lambda q: q.commit(),
        lambda q: q.reset(),
        lambda q: q.drain(),
        lambda q: q.inject_tag_flip(0, 1),
        lambda q: q.inject_value_flip(1, 0),
        lambda q: q.inject_drop(0),
        lambda q: q.inject_duplicate(0),
    ], ids=["enqueue", "dequeue", "commit", "reset", "drain",
            "inject_tag_flip", "inject_value_flip", "inject_drop",
            "inject_duplicate"])
    def test_every_mutation_invalidates(self, mutate):
        q = self._loaded()
        before = q.arch_state()
        mutate(q)
        after = q.arch_state()
        assert after != before
        assert after == _uncached(q)

    def test_enqueue_after_restore_invalidates(self):
        q = self._loaded()
        q.restore_arch((((5, 0),), ()))
        restored = q.arch_state()
        assert restored == (((5, 0),), ())
        q.enqueue(6)
        assert q.arch_state() != restored
        assert q.arch_state() == _uncached(q)

    def test_restore_of_current_state_still_bumps_version(self):
        q = self._loaded()
        version = q.version
        q.restore_arch(q.arch_state())
        assert q.version > version
        assert q.arch_state() == _uncached(q)

    def test_restore_rebuilds_entries(self):
        q = self._loaded()
        target = (((9, 1), (8, 0)), ((7, 2),))
        q.restore_arch(target)
        assert _uncached(q) == target
        assert q.dequeue() == QueueEntry(9, 1)
