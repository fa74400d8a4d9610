"""Tests for search ordering, MJoin enumeration and the GM pipeline."""

from itertools import islice

import pytest

from repro.baselines.bruteforce import bruteforce_homomorphisms, bruteforce_isomorphisms
from repro.exceptions import MatchingError
from repro.matching.gm import GMVariant, GraphMatcher
from repro.matching.mjoin import mjoin_iter
from repro.matching.ordering import OrderingMethod, bj_order, jo_order, ri_order, search_order
from repro.matching.result import Budget, MatchReport, MatchStatus
from repro.query.generators import random_pattern_query, template_query
from repro.query.pattern import PatternQuery
from repro.rig.build import build_rig

from fixtures_paper import A1, A2, B0, B2, C0, C1, C2, PAPER_ANSWER


@pytest.fixture()
def paper_rig(paper_context, paper_query):
    return build_rig(paper_context, paper_query).rig


class TestOrdering:
    def test_jo_starts_with_smallest_candidate_set(self, paper_query, paper_rig):
        order = jo_order(paper_query, paper_rig)
        assert len(order) == 3
        # cos(A) and cos(B) both have 2 candidates; ties break by node id -> A first.
        assert order[0] == 0
        assert set(order) == {0, 1, 2}

    def test_jo_connected_prefixes(self, small_context, small_random_graph):
        query = random_pattern_query(small_random_graph, 6, seed=3)
        rig = build_rig(small_context, query).rig
        order = jo_order(query, rig)
        placed = set()
        for index, node in enumerate(order):
            if index:
                assert any(neighbor in placed for neighbor in query.neighbors(node))
            placed.add(node)

    def test_ri_is_data_independent(self, paper_query, paper_rig):
        order = ri_order(paper_query)
        assert sorted(order) == [0, 1, 2]
        # RI only looks at the query: repeated calls give the same order.
        assert ri_order(paper_query) == order

    def test_ri_prefers_high_connectivity(self):
        query = template_query("HQ11")  # 4-clique
        order = ri_order(query)
        assert len(order) == 4
        assert len(set(order)) == 4

    def test_bj_order_valid_permutation(self, paper_query, paper_rig):
        order = bj_order(paper_query, paper_rig)
        assert sorted(order) == [0, 1, 2]

    def test_bj_rejects_large_queries(self, paper_rig):
        big = PatternQuery(
            ["L"] * 20, [(i, i + 1, "child") for i in range(19)], name="big"
        )
        from repro.rig.graph import RuntimeIndexGraph

        rig = RuntimeIndexGraph(big)
        for node in big.nodes():
            rig.set_candidates(node, [0])
        with pytest.raises(MatchingError):
            bj_order(big, rig, max_nodes=18)

    def test_search_order_dispatch(self, paper_query, paper_rig):
        for method in OrderingMethod:
            order = search_order(paper_query, paper_rig, method)
            assert sorted(order) == [0, 1, 2]


class TestMJoin:
    def test_paper_answer(self, paper_rig, paper_answer):
        occurrences = list(mjoin_iter(paper_rig))
        assert frozenset(occurrences) == paper_answer
        assert len(occurrences) == len(paper_answer)

    def test_all_orders_give_same_answer(self, paper_rig, paper_query, paper_answer):
        from itertools import permutations

        for order in permutations(paper_query.nodes()):
            occurrences = list(mjoin_iter(paper_rig, order=list(order)))
            assert frozenset(occurrences) == paper_answer, order

    def test_tuples_indexed_by_query_node(self, paper_rig):
        occurrences = list(mjoin_iter(paper_rig, order=[2, 1, 0]))
        # Regardless of the search order, position 0 of the tuple is node A.
        assert all(occ[0] in {A1, A2} for occ in occurrences)
        assert all(occ[1] in {B0, B2} for occ in occurrences)

    def test_match_limit(self, paper_rig):
        iterator = mjoin_iter(paper_rig, budget=Budget(max_matches=2))
        occurrences = list(islice(iterator, 2))
        assert len(occurrences) == 2
        # The cap, not exhaustion, ended the enumeration.
        assert next(iterator, None) is not None

    def test_lazy_iterator(self, paper_rig, paper_answer):
        iterator = mjoin_iter(paper_rig)
        first = next(iterator)
        assert first in paper_answer
        rest = set(iterator)
        assert rest | {first} == set(paper_answer)

    def test_count_matches(self, paper_graph, paper_query):
        matcher = GraphMatcher(paper_graph)
        assert matcher.count(paper_query) == 4
        assert matcher.count(paper_query, budget=Budget(max_matches=3)) == 3

    def test_empty_rig_yields_nothing(self, paper_context):
        query = PatternQuery(["Z", "A"], [(0, 1, "child")])
        rig = build_rig(paper_context, query).rig
        assert list(mjoin_iter(rig)) == []

    def test_injective_enumeration(self, paper_context, paper_query, paper_graph):
        rig = build_rig(paper_context, paper_query).rig
        occurrences = list(mjoin_iter(rig, injective=True))
        expected = set(bruteforce_isomorphisms(paper_graph, paper_query))
        assert set(occurrences) == expected
        # All paper-answer occurrences are injective here, so they coincide.
        assert set(occurrences) == set(PAPER_ANSWER)

    def test_single_node_query(self, paper_context):
        query = PatternQuery(["A"], [])
        rig = build_rig(paper_context, query).rig
        occurrences = list(mjoin_iter(rig))
        assert {occ[0] for occ in occurrences} == set(paper_context.graph.inverted_list("A"))


class TestGraphMatcher:
    def test_gm_reproduces_paper_answer(self, paper_graph, paper_context, paper_query, paper_answer):
        matcher = GraphMatcher(paper_graph, context=paper_context)
        report = matcher.match(paper_query)
        assert report.occurrence_set() == paper_answer
        assert report.status is MatchStatus.OK
        assert report.algorithm == "GM"
        assert report.num_matches == 4

    def test_all_variants_agree(self, paper_graph, paper_context, paper_query, paper_answer):
        for variant in GMVariant:
            matcher = GraphMatcher(paper_graph, context=paper_context, variant=variant)
            assert matcher.match(paper_query).occurrence_set() == paper_answer, variant

    def test_all_orderings_agree(self, paper_graph, paper_context, paper_query, paper_answer):
        for ordering in OrderingMethod:
            matcher = GraphMatcher(paper_graph, context=paper_context, ordering=ordering)
            assert matcher.match(paper_query).occurrence_set() == paper_answer, ordering

    def test_algorithm_name_includes_ordering(self, paper_graph, paper_context):
        matcher = GraphMatcher(paper_graph, context=paper_context, ordering=OrderingMethod.RI)
        assert matcher.algorithm_name() == "GM-RI"
        assert GraphMatcher(paper_graph, context=paper_context).algorithm_name() == "GM"

    def test_empty_answer_query(self, paper_graph, paper_context):
        query = PatternQuery(["C", "A"], [(0, 1, "child")])  # no C -> A edges
        report = GraphMatcher(paper_graph, context=paper_context).match(query)
        assert report.num_matches == 0
        assert report.status is MatchStatus.OK
        assert report.extra.get("empty_rig") is True

    def test_match_limit_status(self, paper_graph, paper_context, paper_query):
        matcher = GraphMatcher(paper_graph, context=paper_context, budget=Budget(max_matches=1))
        report = matcher.match(paper_query)
        assert report.status is MatchStatus.MATCH_LIMIT
        assert report.num_matches == 1
        assert report.solved

    def test_injective_match(self, paper_graph, paper_context, paper_query):
        matcher = GraphMatcher(paper_graph, context=paper_context)
        report = matcher.match(paper_query, injective=True)
        expected = set(bruteforce_isomorphisms(paper_graph, paper_query))
        assert report.occurrence_set() == frozenset(expected)

    def test_count_convenience(self, paper_graph, paper_context, paper_query):
        assert GraphMatcher(paper_graph, context=paper_context).count(paper_query) == 4

    def test_explicit_order_override(self, paper_graph, paper_context, paper_query, paper_answer):
        matcher = GraphMatcher(paper_graph, context=paper_context)
        report = matcher.match(paper_query, order=[2, 0, 1])
        assert report.occurrence_set() == paper_answer

    def test_build_rig_exposed(self, paper_graph, paper_context, paper_query):
        matcher = GraphMatcher(paper_graph, context=paper_context)
        build_report = matcher.build_rig(paper_query)
        assert not build_report.rig.is_empty()

    def test_report_extras(self, paper_graph, paper_context, paper_query):
        report = GraphMatcher(paper_graph, context=paper_context).match(paper_query)
        assert report.extra["rig_nodes"] == 7
        assert "search_order" in report.extra
        assert report.total_seconds >= 0.0
        assert "GM" in report.summary()

    def test_timeout_reported(self, small_random_graph):
        from repro.query.generators import random_pattern_query, to_descendant_only

        query = to_descendant_only(random_pattern_query(small_random_graph, 5, seed=1))
        matcher = GraphMatcher(
            small_random_graph,
            budget=Budget(max_matches=None, time_limit_seconds=0.0),
        )
        report = matcher.match(query)
        # With a zero time budget, either the RIG is empty fast or we time out.
        assert report.status in (MatchStatus.TIMEOUT, MatchStatus.OK)


class TestBudgetAndReport:
    def test_budget_clock_matches(self):
        budget = Budget(max_matches=5)
        clock = budget.start_clock()
        assert not clock.check_matches(4)
        assert clock.check_matches(5)

    def test_budget_clock_intermediate(self):
        from repro.exceptions import MemoryBudgetExceeded

        clock = Budget(max_intermediate_results=10).start_clock()
        clock.check_intermediate(10)
        with pytest.raises(MemoryBudgetExceeded):
            clock.check_intermediate(11)

    def test_budget_unlimited(self):
        clock = Budget(max_matches=None, max_intermediate_results=None, time_limit_seconds=None).start_clock()
        assert not clock.check_matches(10**9)
        clock.check_intermediate(10**9)
        clock.check_time()

    def test_status_solved_classification(self):
        assert MatchStatus.OK.is_solved()
        assert MatchStatus.MATCH_LIMIT.is_solved()
        assert not MatchStatus.TIMEOUT.is_solved()
        assert not MatchStatus.OUT_OF_MEMORY.is_solved()

    def test_report_properties(self):
        report = MatchReport(
            query_name="q",
            algorithm="GM",
            status=MatchStatus.OK,
            occurrences=[(1, 2)],
            num_matches=1,
            matching_seconds=0.5,
            enumeration_seconds=0.25,
        )
        assert report.total_seconds == pytest.approx(0.75)
        assert report.solved
        assert report.occurrence_set() == frozenset({(1, 2)})
