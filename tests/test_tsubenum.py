"""Candidate enumeration: distinct-part partitions in deterministic order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhomax import tsubenum as te
from rhomax.errors import InvalidRegime
from rhomax.graphs import d_step_sequence


def steps_of(it):
    return [s.steps for s in it]


class TestEnumerateS:
    def test_e4(self):
        assert steps_of(te.enumerate_S(4)) == [(4,), (3, 1)]

    def test_e5(self):
        assert steps_of(te.enumerate_S(5)) == [(5,), (4, 1), (3, 2)]

    def test_e10_count(self):
        assert len(steps_of(te.enumerate_S(10))) == 10

    def test_e7_full(self):
        assert steps_of(te.enumerate_S(7)) == [
            (7,), (6, 1), (5, 2), (4, 3), (4, 2, 1)]

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_stream_matches_count_and_is_valid(self, e):
        seqs = steps_of(te.enumerate_S(e))
        assert len(seqs) == te.count_S(e)
        assert len(set(seqs)) == len(seqs)
        for s in seqs:
            assert sum(s) == e
            assert all(a > b for a, b in zip(s, s[1:]))
            assert all(x > 0 for x in s)
        # lexicographically decreasing enumeration order
        assert seqs == sorted(seqs, reverse=True)


class TestEnumerateSStar:
    def test_e4_empty(self):
        assert steps_of(te.enumerate_S_star(4)) == []

    def test_e5(self):
        assert steps_of(te.enumerate_S_star(5)) == [(4, 1)]

    def test_e7(self):
        assert steps_of(te.enumerate_S_star(7)) == [(6, 1), (5, 2), (4, 3)]

    def test_t0_rejected(self):
        with pytest.raises(InvalidRegime):
            list(te.enumerate_S_star(10))

    @given(st.integers(min_value=4, max_value=35))
    @settings(max_examples=30, deadline=None)
    def test_exclusions(self, e):
        from rhomax.graphs import edge_params
        if edge_params(e).t == 0:
            return
        star = set(steps_of(te.enumerate_S_star(e)))
        assert (e,) not in star
        assert d_step_sequence(e).steps not in star
        assert len(star) == te.count_S(e) - 2


class TestCountS:
    def test_examples(self):
        assert te.count_S(4) == 2
        assert te.count_S(10) == 10
        assert te.count_S(12) == 15

    def test_e130_matches_reference_expansion(self):
        # independent reference: expand prod (1 + x^i) with a dict
        coeffs = {0: 1}
        for part in range(1, 131):
            new = dict(coeffs)
            for tot, c in coeffs.items():
                if tot + part <= 130:
                    new[tot + part] = new.get(tot + part, 0) + c
            coeffs = new
        assert te.count_S(130) == coeffs[130]


class TestResume:
    def test_resume_midstream(self):
        full = steps_of(te.enumerate_S(12))
        for i in range(len(full)):
            rest = steps_of(te.enumerate_S(12, full[i]))
            assert rest == full[i + 1:]

    @pytest.mark.parametrize("cursor", [(6, 1), (5, 5, 3), (14, -1), (13, 0), ()])
    def test_cursor_must_be_step_sequence_of_e(self, cursor):
        with pytest.raises(ValueError, match="not a step sequence of e=13"):
            list(te.enumerate_S(13, cursor))
        with pytest.raises(ValueError, match="not a step sequence of e=13"):
            list(te.enumerate_S_star(13, cursor))

    def test_blocks_partition_the_stream(self):
        e = 15
        full = steps_of(te.enumerate_S(e))
        blocks = []
        for first_part in range(e, 0, -1):
            blocks.extend(steps_of(te.enumerate_block(e, first_part)))
        assert blocks == full
