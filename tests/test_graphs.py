"""Graph constructions, edge parameters, and step-sequence codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomax import graphs as gr
from rhomax.errors import Degenerate, OrderTooSmall


def sorted_degrees(g: gr.ThresholdGraph) -> tuple[int, ...]:
    return tuple(sorted(gr.adjacency(g).degree_sequence(), reverse=True))


class TestEdgeParams:
    @pytest.mark.parametrize("e,k,t,b", [
        (4, 3, 1, 5),
        (10, 5, 0, 6),
        (130, 16, 10, 18),
        (0, 1, 0, 1),
    ])
    def test_known_values(self, e, k, t, b):
        p = gr.edge_params(e)
        assert (p.k, p.t, p.b) == (k, t, b)

    @given(st.integers(min_value=0, max_value=5000))
    def test_invariants(self, e):
        p = gr.edge_params(e)
        assert p.k * (p.k - 1) // 2 <= e < (p.k + 1) * p.k // 2
        assert 0 <= p.t <= p.k - 1 or e == 0
        assert p.t == e - p.k * (p.k - 1) // 2
        if e == 0:
            assert p.b == 1
        elif p.t == 0:
            assert p.b == p.k + 1
        else:
            assert p.b == p.k + 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gr.edge_params(-1)


class TestStepSequence:
    def test_must_decrease(self):
        with pytest.raises(ValueError):
            gr.StepSequence((3, 3))
        with pytest.raises(ValueError):
            gr.StepSequence((2, 3))

    def test_must_be_positive(self):
        with pytest.raises(ValueError):
            gr.StepSequence((3, 0))

    def test_surplus(self):
        assert gr.StepSequence((4, 2, 1)).e == 7
        assert gr.StepSequence(()).e == 0


class TestBuildD:
    def test_n5_e4(self):
        g = gr.build_D(5, 4)
        assert sorted_degrees(g) == (4, 4, 3, 3, 2)
        assert gr.adjacency(g).size == 8

    def test_n6_e4(self):
        g = gr.build_D(6, 4)
        assert sorted_degrees(g) == (5, 4, 3, 3, 2, 1)
        assert gr.adjacency(g).size == 9

    def test_small_n_is_complete(self):
        # below k+2 the family degenerates to the complete graph
        g = gr.adjacency(gr.build_D(5, 6))
        assert g.degree_sequence() == (4, 4, 4, 4, 4)

    def test_too_small_rejected(self):
        with pytest.raises(OrderTooSmall):
            gr.build_D(4, 4)

    def test_d_steps_sum(self):
        for e in range(1, 200):
            assert gr.d_step_sequence(e).e == e


class TestBuildV:
    def test_n6_e4(self):
        g = gr.build_V(6, 4)
        assert sorted_degrees(g) == (5, 5, 2, 2, 2, 2)
        assert gr.adjacency(g).size == 9

    def test_n7_e4(self):
        g = gr.build_V(7, 4)
        assert sorted_degrees(g) == (6, 5, 2, 2, 2, 2, 1)
        assert gr.adjacency(g).size == 10

    def test_minimum_order(self):
        g = gr.build_V(7, 5)
        assert g.n == 7 and g.size == 11
        with pytest.raises(OrderTooSmall):
            gr.build_V(6, 5)


class TestTsubRoundtrip:
    def test_star_is_v(self):
        g = gr.ThresholdGraph(7, gr.StepSequence((4,)))
        assert g == gr.build_V(7, 4)

    def test_d_step_sequences(self):
        assert gr.ThresholdGraph(5, gr.StepSequence((3, 1))) == gr.build_D(5, 4)
        assert gr.ThresholdGraph(7, gr.StepSequence((3, 2))) == gr.build_D(7, 5)

    def test_tsubgraph_of(self):
        assert gr.build_V(9, 5).steps.steps == (5,)
        assert gr.build_D(9, 5).steps.steps == (3, 2)

    def test_tree_rejected(self):
        with pytest.raises(Degenerate):
            gr.tsub_adjacency(gr.build_V(5, 0).steps)

    @given(st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                    max_size=5, unique=True))
    def test_roundtrip(self, parts):
        steps = gr.StepSequence(sorted(parts, reverse=True))
        n = steps[0] + 5
        assert gr.ThresholdGraph(n, steps).steps == steps


class TestAdjacency:
    def test_complete_triangle(self):
        a = gr.adjacency(gr.ThresholdGraph(3, gr.StepSequence((1,)))).a
        assert np.array_equal(a, np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8))

    def test_v64_structure(self):
        a = gr.adjacency(gr.build_V(6, 4)).a
        assert a[0].sum() == 5 and a[1].sum() == 5
        assert np.all(a[2:, 2:] == 0)

    def test_stepwise(self):
        assert gr.is_stepwise(gr.adjacency(gr.build_D(5, 4)).a)

    @given(st.lists(st.integers(min_value=1, max_value=10), min_size=0,
                    max_size=4, unique=True),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=60)
    def test_properties(self, parts, extra):
        steps = gr.StepSequence(sorted(parts, reverse=True))
        n = (steps[0] + 2 if steps.steps else 1) + extra
        g = gr.ThresholdGraph(n, steps)
        dense = gr.adjacency(g)
        assert gr.is_stepwise(dense.a)
        degs = dense.degree_sequence()
        assert all(x >= y for x, y in zip(degs, degs[1:]))
        if n >= 2:
            assert dense.size == n - 1 + g.e

    def test_size_matches_both_families(self):
        for n, e in [(7, 4), (8, 5), (10, 6), (9, 7)]:
            assert gr.adjacency(gr.build_D(n, e)).size == n - 1 + e
            assert gr.adjacency(gr.build_V(n, e)).size == n - 1 + e


class TestGraph6:
    def test_known_encodings(self):
        # path P_2 and triangle, standard values
        tri = gr.DenseGraph(3, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.int8))
        assert gr.graph6(tri) == "Bw"
        p2 = gr.DenseGraph(2, np.array([[0, 1], [1, 0]], dtype=np.int8))
        assert gr.graph6(p2) == "A_"


class TestDenseGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            gr.DenseGraph(2, np.array([[0, 1], [0, 0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            gr.DenseGraph(1, np.array([[1]]))
