"""Property tests for the UBTree (set-trie) counterexample index.

The solver's soundness rests on three containment properties:

* **subset soundness** — ``find_subset`` only ever reports sets that really
  are subsets of the query (an UNSAT subset proves the query UNSAT);
* **superset soundness** — ``find_superset`` only ever reports sets that
  contain every queried element, so a SAT superset's model can never
  violate a queried constraint;
* **lookup completeness** — after inserting a set, every subset query must
  find it via ``find_superset``, every superset query via ``find_subset``,
  and ``contains`` must round-trip under arbitrary element orderings.

The properties are checked on randomized constraint sets drawn from the
same expression shapes the symbolic executor produces.
"""

import random

import pytest

from repro.symex import ExprOp, UBTree, binary, const, not_expr, var

_COMPARISONS = [ExprOp.EQ, ExprOp.NE, ExprOp.ULT, ExprOp.ULE]


def _constraint_pool(rng, size=40):
    """Distinct comparison constraints over a handful of byte variables."""
    pool = set()
    names = ["a", "b", "c", "d"]
    while len(pool) < size:
        op = rng.choice(_COMPARISONS)
        lhs = var(8, rng.choice(names))
        if rng.random() < 0.4:
            lhs = binary(ExprOp.AND, lhs, const(8, rng.randrange(1, 256)))
        constraint = binary(op, lhs, const(8, rng.randrange(256)))
        if rng.random() < 0.2:
            constraint = not_expr(constraint)
        if constraint.is_constant:
            continue
        pool.add(constraint)
    return sorted(pool, key=lambda c: c.render())


def _random_subsets(rng, pool, count):
    return [frozenset(rng.sample(pool, rng.randrange(1, min(8, len(pool)))))
            for _ in range(count)]


class TestInsertLookupRoundTrip:
    def test_contains_is_order_independent(self):
        rng = random.Random(1)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = _random_subsets(rng, pool, 60)
        for index, elements in enumerate(stored):
            shuffled = list(elements)
            rng.shuffle(shuffled)
            tree.insert(shuffled, index)
        for elements in stored:
            shuffled = list(elements)
            rng.shuffle(shuffled)
            assert tree.contains(shuffled)
        assert len(tree) == len(set(stored))

    def test_absent_sets_are_not_contained(self):
        rng = random.Random(2)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = set(_random_subsets(rng, pool, 40))
        for index, elements in enumerate(stored):
            tree.insert(elements, index)
        for candidate in _random_subsets(rng, pool, 200):
            assert tree.contains(candidate) == (candidate in stored)

    def test_reinsert_replaces_payload(self):
        rng = random.Random(3)
        pool = _constraint_pool(rng)
        tree = UBTree()
        elements = pool[:3]
        tree.insert(elements, "first")
        tree.insert(list(reversed(elements)), "second")
        assert len(tree) == 1
        assert tree.find_superset(elements) == "second"


class TestSupersetLookup:
    def test_inserted_model_found_for_every_subset_of_its_constraints(self):
        """Inserting a model keyed by the constraint set it satisfies must
        make every subset query hit."""
        rng = random.Random(4)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = frozenset(rng.sample(pool, 7))
        tree.insert(stored, {"a": 1})
        for _ in range(100):
            subset = frozenset(rng.sample(
                sorted(stored, key=lambda c: c.render()),
                rng.randrange(1, len(stored) + 1)))
            assert tree.find_superset(subset) == {"a": 1}

    def test_superset_lookup_never_violates_a_queried_constraint(self):
        """Whatever ``find_superset`` returns was stored with a set
        containing every queried constraint, so the attached model — which
        satisfies the stored set by construction — satisfies the query."""
        rng = random.Random(5)
        pool = _constraint_pool(rng)
        tree = UBTree()
        payloads = {}
        for index, elements in enumerate(_random_subsets(rng, pool, 80)):
            model = {name: rng.randrange(256) for name in "abcd"}
            if all(c.evaluate(model) == 1 for c in elements):
                tree.insert(elements, dict(model))
                payloads[index] = (elements, model)
        assert payloads, "generator never produced a satisfied set"
        hits = 0
        for query in _random_subsets(rng, pool, 400):
            model = tree.find_superset(query)
            if model is None:
                continue
            hits += 1
            assert all(c.evaluate(model) == 1 for c in query), \
                ([c.render() for c in query], model)
        assert hits > 0, "no superset lookup ever hit"

    def test_no_false_negatives_against_linear_scan(self):
        rng = random.Random(6)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = _random_subsets(rng, pool, 60)
        for index, elements in enumerate(stored):
            tree.insert(elements, index)
        for query in _random_subsets(rng, pool, 300):
            expected = any(query <= candidate for candidate in stored)
            assert (tree.find_superset(query) is not None) == expected


class TestSubsetLookup:
    def test_found_payload_is_a_real_subset(self):
        rng = random.Random(7)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = _random_subsets(rng, pool, 60)
        for elements in stored:
            tree.insert(elements, elements)
        for query in _random_subsets(rng, pool, 300):
            found = tree.find_subset(query)
            if found is not None:
                assert found <= query
            else:
                assert not any(candidate <= query for candidate in stored)

    def test_iter_subsets_enumerates_exactly_the_stored_subsets(self):
        rng = random.Random(8)
        pool = _constraint_pool(rng)
        tree = UBTree()
        stored = set(_random_subsets(rng, pool, 50))
        for elements in stored:
            tree.insert(elements, elements)
        for query in _random_subsets(rng, pool, 120):
            found = set(map(frozenset, tree.iter_subsets(query)))
            expected = {candidate for candidate in stored
                        if candidate <= query}
            assert found == expected

    def test_unknown_elements_do_not_block_subset_search(self):
        rng = random.Random(9)
        pool = _constraint_pool(rng, size=12)
        tree = UBTree()
        tree.insert(pool[:2], "hit")
        never_inserted = binary(ExprOp.ULT, var(8, "zz"), const(8, 7))
        assert tree.find_subset(pool[:2] + [never_inserted]) == "hit"
        # ...but a superset lookup over an unknown element must miss.
        assert tree.find_superset([never_inserted]) is None


class TestBoundedCapacity:
    """The size cap (ROADMAP follow-on): long runs must not grow the
    set-tries without bound, and eviction may only ever cost a future
    re-solve, never an answer."""

    def _sets(self, count, size=3):
        rng = random.Random(31)
        pool = _constraint_pool(rng, size=count * size)
        return [frozenset(pool[i * size:(i + 1) * size])
                for i in range(count)]

    def test_capacity_bounds_stored_sets(self):
        tree = UBTree(capacity=8)
        for index, elements in enumerate(self._sets(50)):
            tree.insert(elements, index)
            assert len(tree) <= 8
        assert tree.evictions == 50 - 8

    def test_oldest_unhit_set_is_evicted_first(self):
        tree = UBTree(capacity=2)
        first, second, third = self._sets(3)
        tree.insert(first, "first")
        tree.insert(second, "second")
        tree.insert(third, "third")
        assert tree.contains(second) and tree.contains(third)
        assert not tree.contains(first)
        assert tree.find_subset(first) is None

    def test_containment_hit_refreshes_recency(self):
        tree = UBTree(capacity=2)
        first, second, third = self._sets(3)
        tree.insert(first, "first")
        tree.insert(second, "second")
        # A decisive hit on `first` makes `second` the eviction victim.
        assert tree.find_superset(first) == "first"
        tree.insert(third, "third")
        assert tree.contains(first) and tree.contains(third)
        assert not tree.contains(second)

    def test_evicted_sets_never_poison_lookups(self):
        rng = random.Random(33)
        pool = _constraint_pool(rng)
        tree = UBTree(capacity=6)
        live = {}
        for index, elements in enumerate(_random_subsets(rng, pool, 80)):
            tree.insert(elements, elements)
            live[elements] = index
        for query in _random_subsets(rng, pool, 200):
            found = tree.find_subset(query)
            if found is not None:
                assert found <= query
            found_super = tree.find_superset(query)
            if found_super is not None:
                assert query <= found_super

    def test_unbounded_by_default(self):
        tree = UBTree()
        for elements in self._sets(40):
            tree.insert(elements, True)
        assert len(tree) == 40
        assert tree.evictions == 0

    def test_reinsert_refreshes_instead_of_duplicating(self):
        tree = UBTree(capacity=2)
        first, second, third = self._sets(3)
        tree.insert(first, "a")
        tree.insert(second, "b")
        tree.insert(first, "a2")  # refresh: first becomes most recent
        tree.insert(third, "c")
        assert tree.contains(first)
        assert not tree.contains(second)
        assert tree.find_superset(first) == "a2"

    def test_solver_honors_capacity_flag(self):
        from repro.symex import Solver, SolverConfig, binary, const, var
        from repro.symex.expr import ExprOp as Op
        solver = Solver(config=SolverConfig(ubtree_capacity=4))
        for value in range(20):
            name = var(8, f"cap_{value}")
            assert solver.check(
                [binary(Op.ULT, const(8, 1), name),
                 binary(Op.NE, name, const(8, value))]).satisfiable
        assert len(solver._shared.sat_index) <= 4
        assert len(solver._shared.unsat_index) <= 4
