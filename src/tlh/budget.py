"""The memory pre-flight: every estimate is checked here against physical memory.

A caller names what it is about to hold, part by part, in bytes, before it
allocates any of it; :func:`_room` sums the parts and refuses the sum by
name, with :class:`MemoryBudgetExceeded`, when it exceeds physical memory.
Each caller measures its own bytes per unit, next to the code that holds
them; this module knows none of their data layouts.
"""

from __future__ import annotations

import os

__all__ = ["MemoryBudgetExceeded"]


class MemoryBudgetExceeded(MemoryError):
    """A run's estimated peak working set exceeds physical memory.

    Raised before anything is allocated, its message naming the parts of
    the estimate; ``need`` is their sum in bytes.  The raisers:

    * every reader of packed runs of :mod:`tlh.shuffle`, from their
      closures alone, for every run it holds at once and the slot table it
      decodes with, in one check before any of those runs steps; a run's
      stream checks nothing;
    * the closure walk of :mod:`tlh.shuffle` (``_plan``), as soon as the
      keys and dependency entries it holds would outgrow physical memory,
      and before 0^n is built, for its closure of every word of length
      <= n (``_zeros_closure``); and :func:`tlh.shuffle.all_sequences`;
    * :func:`tlh.tableaux.standard_tableaux` and
      :func:`tlh.tableaux.partitions_of`, from their counts;
    * a quotient's running sums in :mod:`tlh.poly`, before each fill;
    * ``tlh fulltwist --cache``, for the series terms of its expansion,
      before it reads or writes the cache (:mod:`tlh.cli`);
    * the closed form's walk (:mod:`tlh.closed_form`), for its level
      counts and placed strands;
    * :func:`tlh.links.two_strand_superpoly`, for the terms of T(2, m).
    """

    def __init__(self, message: str, need: int):
        super().__init__(message)
        self.need = need


def _memory_budget() -> int:
    """Physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _mib(size: int) -> str:
    # past 2^64 bytes, a power of two: a float overflows at 2^1024, and str()
    # refuses an int of over 4,300 digits
    if size.bit_length() > 64:
        return f"2^{size.bit_length() - 21} MiB"
    return f"{size / 2**20:,.1f} MiB"


def _room(what: str, parts: dict[str, int]) -> int:
    """Bytes of physical memory left over ``parts``, or the error naming them."""
    need = sum(parts.values())
    budget = _memory_budget()
    if need > budget:
        raise MemoryBudgetExceeded(
            f"evaluating {what} would hold about {_mib(need)} at once, over the "
            f"{_mib(budget)} of physical memory: "
            + ", ".join(f"{_mib(size)} of {part}" for part, size in parts.items()),
            need,
        )
    return budget - need
