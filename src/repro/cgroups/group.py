"""Cgroup tree nodes.

A :class:`CgroupNode` is one directory in the cgroup hierarchy.  KVM
creates, per VM, a slice directory containing one child cgroup per vCPU,
each holding exactly one thread (paper §III-B1); the generic tree here
supports arbitrary nesting so the same code also models the root slice.

The root owns the tree's :class:`~repro.cgroups.columns.CgroupColumns`:
every node's CPU controller state is one row of it, allocated by
:meth:`CgroupNode.add_child` and released by :meth:`CgroupNode.remove_child`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.cgroups.columns import CgroupColumns
from repro.cgroups.cpu import CpuController

_NAME_FORBIDDEN = set("/\x00")


class CgroupNode:
    """One cgroup directory: children, member threads, CPU controller."""

    def __init__(self, name: str, parent: Optional["CgroupNode"] = None) -> None:
        if parent is not None:
            if not name or any(ch in _NAME_FORBIDDEN for ch in name):
                raise ValueError(f"invalid cgroup name: {name!r}")
        self.name = name
        self.parent = parent
        self.children: Dict[str, CgroupNode] = {}
        self.threads: List[int] = []
        self._root: CgroupNode = self if parent is None else parent._root
        if parent is None:
            #: The tree's CPU state columns (kept on the root).
            self.table = CgroupColumns()
        table = self._root.table
        self.cpu = CpuController(table, table.alloc())
        #: Tree-shape counter, kept on the root: every ``add_child`` and
        #: ``remove_child`` below it bumps it, so a cached walk of the
        #: tree (the scheduler's compiled plan) or a cached row of its
        #: columns knows when it is stale.
        self.generation = 0

    # -- tree structure ---------------------------------------------------------

    @property
    def path(self) -> str:
        """Absolute cgroupfs path of this node (root is ``/``)."""
        if self.parent is None:
            return "/"
        parent_path = self.parent.path
        return parent_path + self.name if parent_path == "/" else parent_path + "/" + self.name

    def add_child(self, name: str) -> "CgroupNode":
        if name in self.children:
            raise FileExistsError(f"cgroup already exists: {self.path}/{name}")
        child = CgroupNode(name, parent=self)
        self.children[name] = child
        self._root.generation += 1
        return child

    def remove_child(self, name: str) -> None:
        child = self.children.get(name)
        if child is None:
            raise FileNotFoundError(f"no such cgroup: {self.path}/{name}")
        if child.children:
            raise OSError(f"cgroup not empty: {child.path}")
        if child.threads:
            raise OSError(f"cgroup still has threads: {child.path}")
        del self.children[name]
        child.cpu.detach()
        self._root.generation += 1

    def walk(self) -> Iterator["CgroupNode"]:
        """Depth-first iteration over this node and all descendants."""
        yield self
        for child in self.children.values():
            yield from child.walk()

    def find(self, relpath: str) -> Optional["CgroupNode"]:
        """Resolve a ``/``-separated relative path; None when missing."""
        node: CgroupNode = self
        for part in relpath.strip("/").split("/"):
            if not part:
                continue
            nxt = node.children.get(part)
            if nxt is None:
                return None
            node = nxt
        return node

    # -- thread membership --------------------------------------------------------

    def attach_thread(self, tid: int) -> None:
        if tid in self.threads:
            raise ValueError(f"tid {tid} already in cgroup {self.path}")
        self.threads.append(tid)

    def detach_thread(self, tid: int) -> None:
        try:
            self.threads.remove(tid)
        except ValueError:
            raise ValueError(f"tid {tid} not in cgroup {self.path}") from None

    def all_threads(self) -> List[int]:
        """All tids in this subtree (the v1 hierarchical view)."""
        tids: List[int] = []
        for node in self.walk():
            tids.extend(node.threads)
        return tids

    # -- file renderings ------------------------------------------------------------

    def threads_file(self) -> str:
        """Render ``cgroup.threads`` (v2) / ``tasks`` (v1): one tid per line."""
        return "".join(f"{tid}\n" for tid in sorted(self.threads))

    def procs_file(self) -> str:
        """Render ``cgroup.procs``; in this model each thread is a process."""
        return self.threads_file()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CgroupNode({self.path!r}, threads={self.threads}, children={list(self.children)})"
