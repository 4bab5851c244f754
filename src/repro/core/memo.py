"""What a category-tree build derives from each node, and how long it lives.

Building one level (Figure 6) counts every oversized node on every
candidate attribute — value counts, histograms, candidate sizes — and
partitions it on the chosen one.  A build files these per node: the
engine hands its partitioners a :data:`NodeMemos` map from each node's
row set to the node's memo dict, and :func:`memoized` files a derivation
there.  Without a :class:`BuildMemo`, the dicts are the build's own: a
level's are released once the level is attached (only the root's
histograms, which every level's numeric range resolution reads, live for
the whole build), and the chosen partitionings are not kept at all.

A caller that categorizes one result set more than once passes a
:class:`BuildMemo` handle, which keeps every node's dict, partitionings
included, reached from the root's along the node's label path.  A label
path names the same rows in every tree over the result, so builds with
different settings (an M sweep) share exactly the nodes they have in
common.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, MutableMapping, TypeVar

from repro.relational.table import RowSet

#: One node's derivations, by key; a key's first item names its kind.
NodeMemo = MutableMapping[Any, Any]

#: The row set of each node a build is deriving from → that node's memo.
NodeMemos = Mapping[RowSet, NodeMemo]

_Value = TypeVar("_Value")


def memo_of(memos: NodeMemos | None, rows: RowSet) -> NodeMemo | None:
    """The memo ``memos`` keeps for ``rows``, if any."""
    return None if memos is None else memos.get(rows)


def memoized(memo: NodeMemo | None, key: Any, build: Callable[[], _Value]) -> _Value:
    """``memo[key]``, built on first use; with no memo, built afresh.

    Values are shared by every later lookup and must not be mutated.
    """
    if memo is None:
        return build()
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = build()
        return value


class BuildMemo:
    """Per-node derivations kept across the builds over one result set.

    Pass the same handle to every ``categorize(rows, ..., memo=handle)``
    that re-categorizes ``rows``.  It holds the root's memo; every node's
    memo holds, per attribute the node was partitioned on, the sizes it
    was partitioned for and its children's positions and memos, so a
    node's memo is reached from the root's along its label path.  Entries
    never go stale: a derivation that depends on the workload statistics
    carries what it read of them in its key.  Not thread-safe; one handle
    serves one caller.
    """

    __slots__ = ("_rows", "root")

    def __init__(self) -> None:
        self._rows: RowSet | None = None
        #: The root's memo; empty until the first build.
        self.root: NodeMemo = {}

    def root_of(self, rows: RowSet) -> NodeMemo:
        """The root's memo for a build over ``rows``.

        Raises:
            ValueError: if the handle already serves another row set.
        """
        if self._rows is None:
            self._rows = rows
        elif rows is not self._rows:
            raise ValueError(
                "a BuildMemo serves the one result set it was first used with"
            )
        return self.root
