"""MJoin: multiway-intersection occurrence enumeration (Algorithm 5).

Given a runtime index graph, MJoin enumerates the query's occurrences by a
backtracking search that matches one query node per step.  At step ``i`` the
local candidate set of the current query node is obtained by intersecting
its RIG candidate set with the RIG adjacency lists of every already-matched
neighbour — a node-at-a-time (worst-case-optimal-style) multiway join that
never materialises intermediate relations.

The enumerator supports the paper's match cap and wall-clock budget, and an
``injective`` flag that adds the one-to-one constraint of subgraph
isomorphism (the extension the paper calls "promising" in §7.2).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import TimeoutExceeded
from repro.matching.ordering import OrderingMethod, search_order
from repro.matching.result import Budget
from repro.rig.graph import RuntimeIndexGraph


def _local_candidates(
    rig: RuntimeIndexGraph,
    order: Sequence[int],
    assignment: List[Optional[int]],
    position: int,
    counters: Optional[List[int]] = None,
) -> List[int]:
    """Compute ``cos_i`` for the query node at ``order[position]``.

    Intersects the node's RIG candidate set with the adjacency lists of the
    already-matched neighbours, smallest operand first.  ``counters`` is an
    optional two-slot accumulator ``[candidates_scanned, intersections]``
    the enumerator threads through to count work without touching shared
    state on the hot path.
    """
    query = rig.query
    current = order[position]
    operands = []
    for earlier_position in range(position):
        previous = order[earlier_position]
        value = assignment[earlier_position]
        if query.has_edge(current, previous):
            operands.append(rig.backward_adjacency(current, previous, value))
        if query.has_edge(previous, current):
            operands.append(rig.forward_adjacency(previous, current, value))
    base = rig.candidates(current)
    if not operands:
        if counters is not None:
            counters[0] += len(base)
        return list(base)
    operands.sort(key=len)  # type: ignore[arg-type]
    result = None
    for operand in operands:
        if result is None:
            result = set(operand)
        else:
            result &= set(operand) if not isinstance(operand, (set, frozenset)) else operand
        if not result:
            if counters is not None:
                counters[1] += len(operands)
            return []
    # Finally restrict to the candidate set (cheap when result is small).
    if counters is not None:
        counters[1] += len(operands)
    if isinstance(base, (set, frozenset)):
        local = [value for value in result if value in base]
    else:
        local = [value for value in result if value in base]
    if counters is not None:
        counters[0] += len(local)
    return local


def mjoin_iter(
    rig: RuntimeIndexGraph,
    order: Optional[Sequence[int]] = None,
    budget: Optional[Budget] = None,
    injective: bool = False,
    stats: Optional[dict] = None,
    step_stats: Optional[List[dict]] = None,
) -> Iterator[Tuple[int, ...]]:
    """Lazily enumerate occurrences from ``rig``.

    Yields tuples indexed by *query node id* (not search-order position), so
    the tuple layout is stable across orderings.  Raises
    :class:`TimeoutExceeded` if the budget's time limit is hit; the match cap
    is handled by the caller simply stopping iteration.

    ``stats`` (a mutable mapping) receives the enumeration's work counters
    — ``candidates`` (local candidate vertices produced across all search
    positions) and ``intersections`` (multiway set intersections performed)
    — accumulated in plain local integers and flushed once when the
    generator finishes or is closed, so instrumentation adds no per-step
    synchronisation to the inner loop.

    ``step_stats`` (a mutable list, EXPLAIN ANALYZE only) additionally
    receives one dict per search-order position — ``{"node", "candidates",
    "intersections", "rows"}`` where ``rows`` counts the partial assignments
    accepted at that position (at the last position: occurrences yielded).
    Per-position counters live in plain local lists and are flushed in the
    same ``finally`` block, so the extra cost is one list increment per
    accepted candidate.
    """
    query = rig.query
    if rig.is_empty():
        if stats is not None:
            stats["candidates"] = stats.get("candidates", 0)
            stats["intersections"] = stats.get("intersections", 0)
        return
    if order is None:
        order = search_order(query, rig, OrderingMethod.JO)
    order = list(order)
    n = query.num_nodes
    clock = budget.start_clock() if budget is not None else None

    counters: List[int] = [0, 0]  # [candidates scanned, intersections]
    # EXPLAIN ANALYZE: per-position [candidates, intersections, rows] slots
    # (``_local_candidates`` only ever touches slots 0 and 1).
    per_position: Optional[List[List[int]]] = None
    if step_stats is not None:
        per_position = [[0, 0, 0] for _ in range(n)]
    assignment: List[Optional[int]] = [None] * n
    used: set = set()
    try:
        # Iterative backtracking: stack of candidate iterators per position.
        iterators: List[Iterator[int]] = [
            iter(
                _local_candidates(
                    rig, order, assignment, 0,
                    counters if per_position is None else per_position[0],
                )
            )
        ]
        position = 0
        while position >= 0:
            if clock is not None:
                clock.check_time()
            try:
                candidate = next(iterators[position])
            except StopIteration:
                position -= 1
                if position >= 0 and assignment[position] is not None and injective:
                    used.discard(assignment[position])
                if position >= 0:
                    assignment[position] = None
                iterators.pop()
                continue
            if injective and candidate in used:
                continue
            assignment[position] = candidate
            if per_position is not None:
                per_position[position][2] += 1
            if injective:
                used.add(candidate)
            if position + 1 == n:
                occurrence = [0] * n
                for index, query_node in enumerate(order):
                    occurrence[query_node] = assignment[index]  # type: ignore[assignment]
                yield tuple(occurrence)
                if injective:
                    used.discard(candidate)
                assignment[position] = None
                continue
            position += 1
            iterators.append(
                iter(
                    _local_candidates(
                        rig, order, assignment, position,
                        counters if per_position is None else per_position[position],
                    )
                )
            )
    finally:
        if per_position is not None:
            for slots in per_position:
                counters[0] += slots[0]
                counters[1] += slots[1]
            if step_stats is not None:
                del step_stats[:]
                step_stats.extend(
                    {
                        "node": order[index],
                        "candidates": slots[0],
                        "intersections": slots[1],
                        "rows": slots[2],
                    }
                    for index, slots in enumerate(per_position)
                )
        if stats is not None:
            stats["candidates"] = stats.get("candidates", 0) + counters[0]
            stats["intersections"] = stats.get("intersections", 0) + counters[1]

