"""EpochColumn: one byte column of a run's records, held flat.

A run appends one row of k per-class counts per epoch to each of its
columns (SimMetrics.arrived, delivered, dropped and queued). A column holds
them in one array('q'), 8 bytes a count, where a list of tuples of ints
takes about 40. It needs nothing of the simulator, so it is kept apart
from netsim.
"""

from __future__ import annotations

from array import array


class EpochColumn:
    """One byte column of a run: a k-tuple of ints per epoch, in class
    order, held as one flat array('q') of k values per epoch.

    It reads as the list of tuples it stands for: len, [e] (a k-tuple),
    slices (a list of tuples), iteration, append, equality with such a
    list, and its repr. Bulk readers and the simulator read and write
    `flat`, where epoch e's row is flat[e * k:(e + 1) * k]. A count outside
    int64 raises OverflowError.
    """

    __slots__ = ("k", "flat")

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"an epoch column needs at least one class, got k={k}")
        self.k = k
        self.flat = array("q")

    def __len__(self) -> int:
        return len(self.flat) // self.k

    def __iter__(self):
        return zip(*[iter(self.flat)] * self.k)

    def __getitem__(self, e):
        if isinstance(e, slice):
            return list(self)[e]
        n = len(self)
        if not -n <= e < n:
            raise IndexError(f"epoch {e} of a column of {n} epochs")
        k = self.k
        e %= n
        return tuple(self.flat[e * k:(e + 1) * k])

    def append(self, row) -> None:
        if len(row) != self.k:
            raise ValueError(f"a row of {len(row)} values for {self.k} classes")
        self.flat.fromlist(list(row))  # all or nothing

    def __eq__(self, other) -> bool:
        if isinstance(other, EpochColumn):  # the same rows; columns with none are equal
            return self.flat == other.flat and (self.k == other.k or not self.flat)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))
