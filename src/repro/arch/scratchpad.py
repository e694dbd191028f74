"""PE-local scratchpad memory (word addressed)."""

from __future__ import annotations

from repro.errors import SimMemoryError
from repro.params import ArchParams


class Scratchpad:
    """A small word-addressed local store for ``lsw`` / ``ssw``.

    The store remembers which addresses :meth:`store` and :meth:`preload`
    have written since the last :meth:`reset`; every other word is zero.
    :meth:`nonzero` and :meth:`reset` visit only those addresses, so a
    program that never touches the scratchpad pays nothing to snapshot
    or clear it.
    """

    def __init__(self, params: ArchParams) -> None:
        self._params = params
        self._words = [0] * params.scratchpad_words
        self._written: set[int] = set()

    def load(self, address: int) -> int:
        self._check(address)
        return self._words[address]

    def store(self, address: int, value: int) -> None:
        self._check(address)
        self._words[address] = value & self._params.word_mask
        self._written.add(address)

    def preload(self, values: list[int], base: int = 0) -> None:
        """Host-side bulk initialization (the userspace library's role)."""
        if base < 0 or base + len(values) > len(self._words):
            raise SimMemoryError(
                f"preload of {len(values)} words at {base} exceeds scratchpad "
                f"size {len(self._words)}"
            )
        for offset, value in enumerate(values):
            self._words[base + offset] = value & self._params.word_mask
        self._written.update(range(base, base + len(values)))

    def dump(self, base: int = 0, count: int | None = None) -> list[int]:
        if count is None:
            count = len(self._words) - base
        self._check(base)
        if count < 0 or base + count > len(self._words):
            raise SimMemoryError(
                f"dump of {count} words at {base} exceeds scratchpad "
                f"size {len(self._words)}"
            )
        return self._words[base:base + count]

    def nonzero(self) -> tuple[tuple[int, int], ...]:
        """``(address, word)`` for every non-zero word, by address."""
        if not self._written:
            return ()
        words = self._words
        return tuple((address, words[address])
                     for address in sorted(self._written) if words[address])

    def reset(self) -> None:
        words = self._words
        for address in self._written:
            words[address] = 0
        self._written.clear()

    def _check(self, address: int) -> None:
        if not 0 <= address < len(self._words):
            raise SimMemoryError(
                f"scratchpad address {address} out of range "
                f"0..{len(self._words) - 1}"
            )

    def __len__(self) -> int:
        return len(self._words)
