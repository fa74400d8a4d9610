"""The benchmark's oracle against the program's brute-force enumerator.

    python3 -m pytest perfbench/test_oracle.py -q

Small generated graphs with cycles and self-loops; every pattern shape the
benchmark draws, with random directions and edge types.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))

import inputs  # noqa: E402
from oracle import AnswerMismatch, Oracle, Pattern, strict_reach  # noqa: E402
from repro import DataGraph, PatternQuery, bruteforce_homomorphisms  # noqa: E402


def small_graph(rng: random.Random):
    n = rng.randrange(3, 12)
    labels = [rng.choice("AB") for _ in range(n)]
    edges = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3 * n))})
    return labels, edges


def brute_reach(n, edges):
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    reach = []
    for u in range(n):
        seen, todo = set(), list(succ[u])
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(succ[v])
        reach.append(sum(1 << v for v in seen))
    return reach


def to_query(pattern: Pattern) -> PatternQuery:
    return PatternQuery(
        pattern.labels, [(s, t, "descendant" if d else "child") for s, t, d in pattern.edges]
    )


@pytest.mark.parametrize("seed", range(40))
def test_strict_reach_matches_search(seed):
    rng = random.Random(seed)
    labels, edges = small_graph(rng)
    n = len(labels)
    succ = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
    assert strict_reach(n, succ) == brute_reach(n, edges)


def test_self_loop_and_cycle_rule():
    oracle = Oracle(["A", "A", "A"], [(0, 0), (1, 2)])
    assert oracle.reaches(0, 0)  # self-loop: a path of length 1
    assert not oracle.reaches(1, 1)  # no cycle through 1
    cyclic = Oracle(["A", "A"], [(0, 1), (1, 0)])
    assert cyclic.reaches(0, 0) and cyclic.reaches(1, 1)


@pytest.mark.parametrize("seed", range(150))
def test_counts_match_bruteforce(seed):
    rng = random.Random(seed)
    labels, edges = small_graph(rng)
    oracle = Oracle(labels, edges)
    shape = sorted(inputs.SHAPES)[seed % len(inputs.SHAPES)]
    size, pattern_edges = inputs._orient(shape, rng, 0.5)
    pattern = Pattern("p", tuple(rng.choice("AB") for _ in range(size)), tuple(pattern_edges))
    answers = bruteforce_homomorphisms(DataGraph(labels, edges), to_query(pattern))
    truth = len(answers)
    assert oracle.search_count(pattern) == truth
    if oracle.is_tree(pattern):
        assert oracle.tree_count(pattern) == truth
    assert oracle.count(pattern, cap=3) == min(3, truth)
    assert oracle.first_unsound(pattern, answers) is None


def test_check_rejects_bad_answers():
    oracle = Oracle(["A", "B", "B"], [(0, 1), (1, 2)])
    pattern = Pattern("p", ("A", "B"), ((0, 1, True),))  # A => B: (0,1), (0,2)
    oracle.check(pattern, 0, "ok", 2, [(0, 1), (0, 2)], cap=10, expected=2)
    oracle.check(pattern, 0, "match_limit", 2, [(0, 1), (0, 2)], cap=2, expected=2)
    with pytest.raises(AnswerMismatch, match="unsound occurrence"):
        oracle.check(pattern, 3, "ok", 2, [(0, 1), (1, 2)], cap=10, expected=2)
    with pytest.raises(AnswerMismatch, match="duplicate"):
        oracle.check(pattern, 0, "ok", 2, [(0, 1), (0, 1)], cap=10, expected=2)
    with pytest.raises(AnswerMismatch, match="status"):
        oracle.check(pattern, 0, "ok", 2, [(0, 1), (0, 2)], cap=2, expected=2)
    with pytest.raises(AnswerMismatch, match="version 7"):
        oracle.check(pattern, 7, "ok", 1, [(0, 1)], cap=10, expected=2)


def test_planted_patterns_are_not_empty():
    rng = random.Random(3)
    labels, edges = inputs.make_graph()
    oracle = Oracle(labels, edges)
    for shape in sorted(inputs.SHAPES):
        pattern = inputs.planted_pattern(oracle, shape, rng, shape, descendant_share=None)
        assert oracle.count(pattern, cap=1) == 1
