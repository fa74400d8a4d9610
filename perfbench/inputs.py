"""Seeded inputs: the data graph, the pattern sets and the write stream.

All inputs derive from fixed seeds and the ``--seed`` argument through
``random.Random`` instances, so one seed always gives the same graph,
patterns and deltas.
The program receives only the generated labels, edges, patterns and deltas.

The data graph has the shape of the ``em`` stand-in at scale 1.0 (a
uniform random digraph, 2,600 nodes, 6,760 edges, 20 labels), generated
here rather than by the program so that a change to the program's own
generators cannot change the benchmark's inputs.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

from oracle import Oracle, Pattern

NUM_NODES = 2600
NUM_EDGES = 6760
NUM_LABELS = 20
#: The data graph and the pattern sets come from these seeds; ``--seed``
#: draws the write stream and the order in which the patterns are asked.
#: Different random graphs of this shape and different pattern sets differ
#: in cost by more than the benchmark's bounds, so they stay put.
GRAPH_SEED = 0
PATTERN_SEED = 0

#: Unlabelled pattern shapes by structural class; each edge is an
#: undirected pair, given a direction and a type when a pattern is drawn.
SHAPES: Dict[str, Tuple[str, int, Tuple[Tuple[int, int], ...]]] = {
    "path3": ("acyclic", 3, ((0, 1), (1, 2))),
    "path4": ("acyclic", 4, ((0, 1), (1, 2), (2, 3))),
    "path5": ("acyclic", 5, ((0, 1), (1, 2), (2, 3), (3, 4))),
    "star5": ("acyclic", 5, ((0, 1), (0, 2), (0, 3), (0, 4))),
    "star4": ("acyclic", 4, ((0, 1), (0, 2), (0, 3))),
    "tree5": ("acyclic", 5, ((0, 1), (0, 2), (1, 3), (1, 4))),
    "triangle": ("cyclic", 3, ((0, 1), (1, 2), (0, 2))),
    "square": ("cyclic", 4, ((0, 1), (1, 2), (2, 3), (0, 3))),
    "kite": ("cyclic", 4, ((0, 1), (1, 2), (0, 2), (2, 3))),
    "clique4": ("clique", 4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))),
    "combo5": ("combo", 5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (1, 3))),
}


def make_graph() -> Tuple[List[str], List[Tuple[int, int]]]:
    """Labels and a sorted edge list: G(n, m) without self-loops."""
    rng = random.Random(f"graph-{GRAPH_SEED}")
    labels = [f"L{rng.randrange(NUM_LABELS)}" for _ in range(NUM_NODES)]
    edges = set()
    while len(edges) < NUM_EDGES:
        u = rng.randrange(NUM_NODES)
        v = rng.randrange(NUM_NODES)
        if u != v:
            edges.add((u, v))
    return labels, sorted(edges)


def _orient(shape: str, rng: random.Random, descendant_share: Optional[float]):
    """Random directions; each edge descendant with ``descendant_share``,
    or, for None, exactly half the edges (the odd one out by a coin)."""
    _, size, pairs = SHAPES[shape]
    if descendant_share is None:
        half = len(pairs) // 2 + (len(pairs) % 2 if rng.random() < 0.5 else 0)
        kinds = [True] * half + [False] * (len(pairs) - half)
        rng.shuffle(kinds)
    else:
        kinds = [rng.random() < descendant_share for _ in pairs]
    edges = []
    for (a, b), kind in zip(pairs, kinds):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((a, b, kind))
    return size, edges


def planted_pattern(
    oracle: Oracle,
    shape: str,
    rng: random.Random,
    name: str,
    descendant_share: Optional[float] = 0.5,
    tries: int = 40,
) -> Pattern:
    """A pattern of ``shape`` whose answer is non-empty by construction.

    Directions and edge types are drawn at random and the labels are read
    off a random homomorphism of the shape into the graph.  A draw with no
    homomorphism (a child-edge cycle absent from a sparse graph) is
    redrawn.
    """
    for _ in range(tries):
        size, edges = _orient(shape, rng, descendant_share)
        image = oracle.plant(edges, size, rng)
        if image is not None:
            return Pattern(name, tuple(oracle.labels[v] for v in image), tuple(edges))
    raise RuntimeError(f"could not plant shape {shape}")


def random_pattern(oracle: Oracle, shape: str, rng: random.Random, name: str) -> Pattern:
    """A pattern of ``shape`` with uniformly drawn labels (often empty)."""
    size, edges = _orient(shape, rng, None)
    alphabet = sorted(oracle.label_mask)
    labels = tuple(alphabet[rng.randrange(len(alphabet))] for _ in range(size))
    return Pattern(name, labels, tuple(edges))


# ---------------------------------------------------------------------- #
# per-workload pattern sets
# ---------------------------------------------------------------------- #

#: cold_hybrid draws its stream in blocks: one planted pattern of every
#: shape here, then this many random-label patterns (often empty answers).
COLD_SHAPES = ("path4", "star4", "tree5", "triangle", "square", "kite", "clique4", "combo5")
COLD_RANDOM_PER_BLOCK = 2


def cold_block(oracle: Oracle, seed: int, block: int) -> List[Pattern]:
    """Block ``block`` of the cold set drawn from ``seed``."""
    rng = random.Random(f"cold-{seed}-{block}")
    shapes = COLD_SHAPES
    patterns = [
        planted_pattern(oracle, shape, rng, f"c{block}.{shape}", descendant_share=None)
        for shape in shapes
    ]
    for index in range(COLD_RANDOM_PER_BLOCK):
        shape = shapes[rng.randrange(len(shapes))]
        patterns.append(random_pattern(oracle, shape, rng, f"c{block}.r{index}.{shape}"))
    rng.shuffle(patterns)
    return patterns


def cold_stream(oracle: Oracle, seed: int, rounds: int) -> List[List[Pattern]]:
    """The cold stream, ``rounds`` rounds of distinct hybrid patterns.

    The set is the first ``rounds`` blocks drawn from the pattern seed, any
    repeat dropped; ``seed`` only shuffles the order.  A run's time is
    dominated by its few most expensive patterns, so a set drawn per seed
    would make the run's cost depend on the seed.
    """
    seen = set()
    pool: List[Pattern] = []
    for block in range(rounds):
        for pattern in cold_block(oracle, PATTERN_SEED, block):
            key = (pattern.labels, pattern.edges)
            if key not in seen:
                seen.add(key)
                pool.append(pattern)
    random.Random(f"cold-order-{seed}").shuffle(pool)
    size = len(COLD_SHAPES) + COLD_RANDOM_PER_BLOCK
    return [pool[index * size:(index + 1) * size] for index in range(rounds)]


#: Tree shapes, whose exact oracle count is a cheap DP.
TREE_SHAPES = ("path3", "path4", "star4", "tree5", "path5", "star5")
#: The enumeration-bound set: sixteen trees of these shapes with exactly
#: half their edges descendant, each known to exceed its cap.
ENUM_SHAPES = TREE_SHAPES[1:]
ENUM_PATTERNS = 16


def enum_caps(low: int, high: int) -> List[int]:
    """One match cap per enumeration pattern, spread evenly over [low, high]."""
    step = (high - low) / (ENUM_PATTERNS - 1)
    return [int(round(low + step * index)) for index in range(ENUM_PATTERNS)]


def enum_patterns(oracle: Oracle, caps: Sequence[int], factor: int = 4) -> List[Pattern]:
    """Planted tree patterns; pattern ``i`` has more than ``factor * caps[i]`` occurrences."""
    rng = random.Random(f"enum-{PATTERN_SEED}")
    chosen: List[Pattern] = []
    for index, cap in enumerate(caps):
        shape = ENUM_SHAPES[index % len(ENUM_SHAPES)]
        for _ in range(500):
            pattern = planted_pattern(
                oracle, shape, rng, f"e{index}.{shape}", descendant_share=None
            )
            if oracle.tree_count(pattern) > factor * cap:
                chosen.append(pattern)
                break
        else:
            raise RuntimeError(f"no {shape} pattern above {factor * cap} occurrences")
    return chosen


def rw_patterns(oracle: Oracle, low: int, high: int, count: int = 8) -> List[Pattern]:
    """Planted hybrid tree patterns, fully enumerated by mixed_rw.

    ``[low, high]`` is cut into ``count`` bins evenly in log space and each
    bin gets the first drawn pattern whose count falls in it, so that the
    read costs spread without gaps.
    """
    rng = random.Random(f"rw-{PATTERN_SEED}")
    ratio = (high / low) ** (1.0 / count)
    bins: List[Optional[Pattern]] = [None] * count
    for attempt in range(20000):
        shape = TREE_SHAPES[attempt % len(TREE_SHAPES)]
        pattern = planted_pattern(oracle, shape, rng, "rw")
        total = oracle.tree_count(pattern)
        if not low <= total < high:
            continue
        index = min(count - 1, int(math.log(total / low, ratio)))
        if bins[index] is None:
            bins[index] = pattern._replace(name=f"w{index}.{shape}")
            if all(bins):
                return bins
    raise RuntimeError("could not fill every occurrence bin of the mixed_rw set")


# ---------------------------------------------------------------------- #
# the write stream (mixed_rw)
# ---------------------------------------------------------------------- #


class Mirror:
    """The benchmark's own copy of the evolving graph, for drawing deltas."""

    def __init__(self, labels: Sequence[str], edges: Sequence[Tuple[int, int]]) -> None:
        self.labels = list(labels)
        self.edges = set(edges)

    def draw_delta(
        self, rng: random.Random, inserts: int, removals: int, new_nodes: int
    ) -> Tuple[List[str], List[Tuple[int, int]], List[Tuple[int, int]]]:
        """Seeded small delta; applies it to the mirror and returns it."""
        alphabet = sorted(set(self.labels))
        added_labels = [alphabet[rng.randrange(len(alphabet))] for _ in range(new_nodes)]
        self.labels.extend(added_labels)
        n = len(self.labels)
        added: List[Tuple[int, int]] = []
        while len(added) < inserts:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and (u, v) not in self.edges and (u, v) not in added:
                added.append((u, v))
        existing = sorted(self.edges)
        removed: List[Tuple[int, int]] = []
        for _ in range(removals):
            edge = existing[rng.randrange(len(existing))]
            if edge not in removed:
                removed.append(edge)
        self.edges.update(added)
        self.edges.difference_update(removed)
        return added_labels, added, removed


def pattern_summary(patterns: Sequence[Pattern]) -> Dict[str, float]:
    """Share of descendant edges and sizes, for the run's detail line."""
    edges = [edge for pattern in patterns for edge in pattern.edges]
    return {
        "patterns": len(patterns),
        "descendant_edge_share": round(
            sum(1 for edge in edges if edge[2]) / max(1, len(edges)), 3
        ),
    }
