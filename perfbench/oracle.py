"""Answer oracle, computed apart from the program under test.

Everything here works from the benchmark's own copy of the node labels and
the edge list; nothing is imported from ``repro``.  Node sets are Python
ints used as bitsets (bit ``v`` set means node ``v`` is in the set).

* Reachability is strict: ``u`` reaches ``v`` when a path of length >= 1
  leads from ``u`` to ``v``, so ``(u, u)`` holds only on a cycle through
  ``u`` (a self-loop included).  It is one pass over the strongly connected
  components in reverse topological order.
* Homomorphism counts are exact for tree-shaped patterns (a dynamic
  programme over the pattern tree) and capped for the rest (a backtracking
  search over bitset candidates that stops at the cap).
* :meth:`Oracle.check` verifies one answer of the program: every
  occurrence sound, occurrences distinct, the count equal to
  ``min(cap, oracle)`` and the status ``match_limit`` exactly when the
  oracle count reaches the cap.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A hybrid pattern: ``labels[i]`` is query node ``i``'s label and each
#: edge is ``(source, target, descendant)``, ``descendant`` a bool.
Pattern = namedtuple("Pattern", "name labels edges")


class AnswerMismatch(Exception):
    """The program returned an answer the oracle disagrees with."""


def _bits(mask: int) -> Iterable[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _strongly_connected(n: int, succ: Sequence[Sequence[int]]) -> List[List[int]]:
    """Tarjan's algorithm, iterative; components come out sinks first."""
    index = [0] * n
    low = [0] * n
    visited = [False] * n
    on_stack = [False] * n
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 1
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            node, child_at = work.pop()
            if child_at == 0:
                visited[node] = True
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            children = succ[node]
            descended = False
            while child_at < len(children):
                child = children[child_at]
                child_at += 1
                if not visited[child]:
                    work.append((node, child_at))
                    work.append((child, 0))
                    descended = True
                    break
                if on_stack[child] and index[child] < low[node]:
                    low[node] = index[child]
            if descended:
                continue
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return components


def strict_reach(n: int, succ: Sequence[Sequence[int]]) -> List[int]:
    """``reach[u]``: bitset of the nodes ``u`` reaches by a path of length >= 1."""
    component_of = [0] * n
    components = _strongly_connected(n, succ)
    for number, members in enumerate(components):
        for member in members:
            component_of[member] = number
    member_mask = [0] * len(components)
    for number, members in enumerate(components):
        for member in members:
            member_mask[number] |= 1 << member
    below = [0] * len(components)
    for number, members in enumerate(components):  # sinks first
        mask = 0
        cyclic = len(members) > 1
        for member in members:
            for child in succ[member]:
                other = component_of[child]
                if other == number:
                    cyclic = True
                else:
                    mask |= member_mask[other] | below[other]
        if cyclic:
            mask |= member_mask[number]
        below[number] = mask
    return [below[component_of[node]] for node in range(n)]


class Oracle:
    """Reference answers over one version of the data graph."""

    def __init__(self, labels: Sequence[str], edges: Iterable[Tuple[int, int]]) -> None:
        self.labels = list(labels)
        n = self.n = len(self.labels)
        self.edge_set = set()
        succ: List[List[int]] = [[] for _ in range(n)]
        pred: List[List[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if (u, v) in self.edge_set:
                continue
            self.edge_set.add((u, v))
            succ[u].append(v)
            pred[v].append(u)
        self.succ_mask = [sum(1 << v for v in targets) for targets in succ]
        self.pred_mask = [sum(1 << u for u in sources) for sources in pred]
        self.reach = strict_reach(n, succ)
        self.anc = strict_reach(n, pred)
        self.label_mask: Dict[str, int] = {}
        for node, label in enumerate(self.labels):
            self.label_mask[label] = self.label_mask.get(label, 0) | (1 << node)

    # ------------------------------------------------------------------ #
    # edges
    # ------------------------------------------------------------------ #

    def reaches(self, u: int, v: int) -> bool:
        return (self.reach[u] >> v) & 1 == 1

    def edge_holds(self, u: int, v: int, descendant: bool) -> bool:
        if descendant:
            return self.reaches(u, v)
        return (u, v) in self.edge_set

    def _forward_mask(self, u: int, descendant: bool) -> int:
        return self.reach[u] if descendant else self.succ_mask[u]

    def _backward_mask(self, v: int, descendant: bool) -> int:
        return self.anc[v] if descendant else self.pred_mask[v]

    # ------------------------------------------------------------------ #
    # counting
    # ------------------------------------------------------------------ #

    @staticmethod
    def is_tree(pattern: Pattern) -> bool:
        pairs = {frozenset((s, t)) for s, t, _ in pattern.edges}
        return len(pairs) == len(pattern.edges) == len(pattern.labels) - 1

    def count(self, pattern: Pattern, cap: Optional[int] = None) -> int:
        """Homomorphism count; exact on trees, else at most ``cap`` (exact if None)."""
        if self.is_tree(pattern):
            total = self.tree_count(pattern)
            return total if cap is None else min(total, cap)
        return self.search_count(pattern, cap)

    def tree_count(self, pattern: Pattern) -> int:
        """Exact count by a DP over the pattern tree rooted at node 0."""
        n = len(pattern.labels)
        incident: List[List[Tuple[int, int, bool, bool]]] = [[] for _ in range(n)]
        for s, t, desc in pattern.edges:
            incident[s].append((s, t, desc, True))  # other end t, edge leaves s
            incident[t].append((s, t, desc, False))
        order, parent_edge = [0], {0: None}
        for node in order:
            for s, t, desc, outgoing in incident[node]:
                other = t if outgoing else s
                if other not in parent_edge:
                    parent_edge[other] = (node, desc, outgoing)
                    order.append(other)
        if len(order) != n:
            raise ValueError(f"pattern {pattern.name} is not connected")
        counts: Dict[int, Dict[int, int]] = {}
        for node in reversed(order):
            table = {v: 1 for v in _bits(self.label_mask.get(pattern.labels[node], 0))}
            for child, link in parent_edge.items():
                if link is None or link[0] != node or not table:
                    continue
                _, desc, outgoing = link
                child_counts = counts.pop(child)
                for v in list(table):
                    if outgoing:  # node -> child
                        mask = self._forward_mask(v, desc)
                    else:  # child -> node
                        mask = self._backward_mask(v, desc)
                    total = 0
                    if desc:
                        for w, c in child_counts.items():
                            if (mask >> w) & 1:
                                total += c
                    else:
                        for w in _bits(mask):
                            total += child_counts.get(w, 0)
                    if total:
                        table[v] *= total
                    else:
                        del table[v]
            counts[node] = table
        return sum(counts[0].values())

    @staticmethod
    def _adjacency(edges, n: int) -> List[List[Tuple[int, bool, bool]]]:
        """Per query node: (other node, descendant, this node is the source)."""
        adjacent: List[List[Tuple[int, bool, bool]]] = [[] for _ in range(n)]
        for s, t, desc in edges:
            adjacent[s].append((t, desc, True))
            adjacent[t].append((s, desc, False))
        return adjacent

    def _narrow(self, masks, adjacent, q: int, v: int, open_nodes) -> Optional[list]:
        """Candidate masks after binding ``q`` to ``v``; None if one empties."""
        narrowed = list(masks)
        for other, desc, q_is_source in adjacent[q]:
            if other not in open_nodes:
                continue
            if q_is_source:
                mask = narrowed[other] & self._forward_mask(v, desc)
            else:
                mask = narrowed[other] & self._backward_mask(v, desc)
            if not mask:
                return None
            narrowed[other] = mask
        return narrowed

    def search_count(self, pattern: Pattern, cap: Optional[int] = None) -> int:
        """Backtracking count with forward checking, stopping at ``cap``.

        Binding a node narrows its open neighbours' candidate bitsets; once
        no pattern edge joins two open nodes the rest of the count is the
        product of their candidate counts.
        """
        n = len(pattern.labels)
        adjacent = self._adjacency(pattern.edges, n)
        limit = cap if cap is not None else float("inf")
        masks = [self.label_mask.get(label, 0) for label in pattern.labels]

        def count(masks, open_nodes) -> int:
            linked = [
                q for q in open_nodes
                if any(other in open_nodes for other, _, _ in adjacent[q])
            ]
            if not linked:
                product = 1
                for q in open_nodes:
                    product *= masks[q].bit_count()
                return product
            q = min(linked, key=lambda node: masks[node].bit_count())
            rest = open_nodes - {q}
            found = 0
            for v in _bits(masks[q]):
                narrowed = self._narrow(masks, adjacent, q, v, rest)
                if narrowed is not None:
                    found += count(narrowed, rest)
                    if found >= limit:
                        break
            return found

        if any(not mask for mask in masks):
            return 0
        found = count(masks, frozenset(range(n)))
        return found if cap is None else min(found, cap)

    def _random_member(self, mask: int, rng) -> int:
        """A uniformly drawn member of a non-empty bitset."""
        size = mask.bit_count()
        if size * 16 >= self.n:
            while True:
                v = rng.randrange(self.n)
                if (mask >> v) & 1:
                    return v
        members = list(_bits(mask))
        return members[rng.randrange(size)]

    def plant(self, shape_edges, n: int, rng, attempts: int = 50) -> Optional[List[int]]:
        """A random homomorphism of an unlabelled shape, or None.

        Used to draw patterns whose answer is non-empty by construction:
        the data nodes found here lend the pattern its labels.
        """
        adjacent = self._adjacency(shape_edges, n)
        everything = (1 << self.n) - 1
        for _ in range(attempts):
            masks = [everything] * n
            assignment = [0] * n
            open_nodes = set(range(n))
            q = rng.randrange(n)
            while True:
                open_nodes.discard(q)
                assignment[q] = self._random_member(masks[q], rng)
                masks = self._narrow(masks, adjacent, q, assignment[q], open_nodes)
                if masks is None or not open_nodes:
                    break
                q = min(open_nodes, key=lambda node: masks[node].bit_count())
            if masks is not None:
                return assignment
        return None

    # ------------------------------------------------------------------ #
    # checking the program's answers
    # ------------------------------------------------------------------ #

    def first_unsound(self, pattern: Pattern, occurrences) -> Optional[Tuple[int, ...]]:
        """The first occurrence that is not a homomorphism, or None."""
        labels = self.labels
        wanted = pattern.labels
        width = len(wanted)
        for occurrence in occurrences:
            if len(occurrence) != width:
                return tuple(occurrence)
            for q, v in enumerate(occurrence):
                if not (0 <= v < self.n) or labels[v] != wanted[q]:
                    return tuple(occurrence)
            for s, t, desc in pattern.edges:
                if not self.edge_holds(occurrence[s], occurrence[t], desc):
                    return tuple(occurrence)
        return None

    def check(
        self,
        pattern: Pattern,
        version: int,
        status: str,
        num_matches: int,
        occurrences,
        cap: int,
        expected: int,
    ) -> None:
        """Raise :class:`AnswerMismatch` unless the answer is right.

        ``expected`` is the oracle count capped at ``cap``; ``occurrences``
        may be None when only the count and status are to be checked.
        """
        where = f"pattern {pattern.name} at graph version {version}"
        if num_matches != expected:
            raise AnswerMismatch(f"{where}: {num_matches} matches, oracle says {expected}")
        want_status = "match_limit" if expected >= cap else "ok"
        if status != want_status:
            raise AnswerMismatch(f"{where}: status {status}, oracle says {want_status}")
        if occurrences is None:
            return
        if len(occurrences) != num_matches:
            raise AnswerMismatch(
                f"{where}: {len(occurrences)} occurrences returned for count {num_matches}"
            )
        bad = self.first_unsound(pattern, occurrences)
        if bad is not None:
            raise AnswerMismatch(f"{where}: unsound occurrence {bad}")
        seen = set()
        for occurrence in occurrences:
            key = tuple(occurrence)
            if key in seen:
                raise AnswerMismatch(f"{where}: duplicate occurrence {key}")
            seen.add(key)
