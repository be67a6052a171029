"""Numeric and brute-force ground truth."""

import itertools
import math
import random

import numpy as np
import pytest

from brute_reference import all_subsets_max
from rhomax import graphs as gr
from rhomax import oracle as orc
from rhomax import tsubenum as te
from rhomax.errors import BudgetExceeded, NotConnected


class TestSpectralRadius:
    def test_complete_k4(self):
        g = gr.adjacency(gr.ThresholdGraph(4, gr.StepSequence((2, 1))))
        assert abs(orc.spectral_radius(g).rho - 3) < 1e-9

    def test_star_k14(self):
        g = gr.adjacency(gr.build_V(5, 0))
        assert abs(orc.spectral_radius(g).rho - 2) < 1e-9

    def test_k2_join_4k1(self):
        g = gr.adjacency(gr.build_V(6, 4))
        assert abs(orc.spectral_radius(g).rho - (1 + math.sqrt(33)) / 2) < 1e-9

    def test_disconnected_rejected(self):
        a = np.zeros((4, 4), dtype=np.int8)
        a[0, 1] = a[1, 0] = a[2, 3] = a[3, 2] = 1
        with pytest.raises(NotConnected):
            orc.spectral_radius(gr.DenseGraph(4, a))

    def test_residual_invariant(self):
        g = gr.adjacency(gr.build_D(9, 7))
        pd = orc.spectral_radius(g)
        a = g.a.astype(float)
        assert np.max(np.abs(a @ pd.vector - pd.rho * pd.vector)) < 1e-9

    def test_perron_vector_positive_unit_norm(self):
        graphs = [gr.DenseGraph(1, np.zeros((1, 1), dtype=np.int8))]
        graphs += [gr.adjacency(gr.build_D(n, e)) for n, e in ((5, 4), (9, 7))]
        graphs += [gr.adjacency(gr.build_V(n, e)) for n, e in ((6, 0), (8, 4))]
        for g in graphs:
            v = orc.spectral_radius(g).vector
            assert v.shape == (g.n,)
            assert np.all(v > 0)
            assert abs(np.linalg.norm(v) - 1) < 1e-12

    def test_perron_entries_weakly_decreasing_on_stepwise(self):
        rng = random.Random(2)
        for _ in range(100):
            e = rng.randint(1, 14)
            steps = rng.choice(list(te.enumerate_S(e)))
            n = steps[0] + 2 + rng.randint(0, 4)
            g = gr.adjacency(gr.ThresholdGraph(n, steps))
            v = orc.spectral_radius(g).vector
            assert all(x >= y - 1e-9 for x, y in zip(v, v[1:]))


class TestPerronRatiosD:
    def test_pendant_eigen_equation(self):
        # the pendant entry satisfies gamma * y_n = y_1 when pendants exist
        for e, n in ((5, 8), (7, 10)):
            pd = orc.spectral_radius(gr.adjacency(gr.build_D(n, e)))
            assert abs(pd.rho * pd.vector[-1] - pd.vector[0]) < 1e-7

    def test_v_family_z_identities(self):
        # (chi + 1) z_2 = z_1 + z_2 + e z_3 on the star-like family
        for e in range(4, 11):
            for n in (e + 2, e + 5):
                pd = orc.spectral_radius(gr.adjacency(gr.build_V(n, e)))
                chi, z = pd.rho, pd.vector
                assert abs((chi + 1) * z[1] - (z[0] + z[1] + e * z[2])) < 1e-7


class TestIsomorphism:
    def test_relabeled_graph(self):
        g = gr.adjacency(gr.build_D(7, 5))
        perm = [3, 0, 6, 2, 5, 1, 4]
        a = g.a[np.ix_(perm, perm)]
        assert orc.is_isomorphic(g, gr.DenseGraph(7, a))

    def test_nonisomorphic_same_degrees(self):
        # C_6 vs two triangles... two triangles is disconnected but still a
        # valid adjacency; degree sequences agree, structures differ
        c6 = np.zeros((6, 6), dtype=np.int8)
        for i in range(6):
            c6[i, (i + 1) % 6] = c6[(i + 1) % 6, i] = 1
        tt = np.zeros((6, 6), dtype=np.int8)
        for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
            tt[a, b] = tt[b, a] = 1
        assert not orc.is_isomorphic(gr.DenseGraph(6, c6), gr.DenseGraph(6, tt))


class TestBruteForce:
    def test_n5_e4(self):
        res = orc.brute_force_max(5, 4)
        assert res.is_D and res.argmax_unique_iso

    def test_n6_e3(self):
        res = orc.brute_force_max(6, 3)
        assert res.is_D

    def test_n7_e0_star(self):
        res = orc.brute_force_max(7, 0)
        star = gr.adjacency(gr.build_V(7, 0))
        assert abs(res.max_rho - math.sqrt(6)) < 1e-7
        assert orc.is_isomorphic(star,
                                 _from_graph6(res.argmax_iso_class))

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            orc.brute_force_max(9, 10)

    @pytest.mark.parametrize("n,e", [(5, 4), (6, 3), (6, 4), (6, 5), (7, 0),
                                     (7, 4)])
    def test_matches_all_subsets_search(self, n, e):
        got = orc.brute_force_max(n, e).to_dict()
        want = all_subsets_max(n, e).to_dict()
        assert abs(got.pop("max_rho") - want.pop("max_rho")) <= 1e-12
        assert got == want

    def test_generator_is_the_degree_filter(self):
        # exactly the edge subsets whose degrees are >= 1 and do not
        # increase with the vertex index, each once
        for n in range(1, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for m in range(len(pairs) + 1):
                want = set()
                for subset in itertools.combinations(range(len(pairs)), m):
                    deg = [0] * n
                    for p in subset:
                        for v in pairs[p]:
                            deg[v] += 1
                    if deg[-1] >= 1 and all(x >= y for x, y in zip(deg, deg[1:])):
                        want.add(subset)
                got = list(orc.degree_ordered_graphs(n, m))
                assert len(got) == len(set(got)), (n, m)
                assert set(got) == want, (n, m)

    def test_labelings(self):
        # n! / |Aut|: K_5, the star K_{1,4}, the path P_5, the cycle C_5
        def graph(edges):
            a = np.zeros((5, 5), dtype=np.int8)
            for u, v in edges:
                a[u, v] = a[v, u] = 1
            return gr.DenseGraph(5, a)
        path = [(i, i + 1) for i in range(4)]
        assert orc._labelings(graph(itertools.combinations(range(5), 2))) == 1
        assert orc._labelings(graph((0, v) for v in range(1, 5))) == 5
        assert orc._labelings(graph(path)) == 60
        assert orc._labelings(graph(path + [(4, 0)])) == 12


def _from_graph6(s: str) -> gr.DenseGraph:
    n = ord(s[0]) - 63
    bits = []
    for ch in s[1:]:
        v = ord(ch) - 63
        bits.extend((v >> (5 - i)) & 1 for i in range(6))
    a = np.zeros((n, n), dtype=np.int8)
    idx = 0
    for j in range(1, n):
        for i in range(j):
            a[i, j] = a[j, i] = bits[idx]
            idx += 1
    return gr.DenseGraph(n, a)
