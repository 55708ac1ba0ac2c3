"""Anomaly-detection-critic tests (Algorithm 1), with hypothesis properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.critic import (
    InvestigationEntry,
    InvestigationList,
    investigation_from_arrays,
    investigation_list,
    nth_best_rank,
    rank_users,
)


class TestRankUsers:
    def test_descending_by_score(self):
        ranks = rank_users({"a": 0.1, "b": 0.9, "c": 0.5})
        assert ranks == {"b": 1, "c": 2, "a": 3}

    def test_exact_ties_share_competition_rank(self):
        ranks = rank_users({"z": 1.0, "a": 1.0, "b": 0.5})
        assert ranks == {"a": 1, "z": 1, "b": 3}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            rank_users({})

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=5),
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_competition_rank_definition(self, scores):
        """rank(u) == 1 + number of users with strictly higher score."""
        ranks = rank_users(scores)
        for user, score in scores.items():
            higher = sum(1 for other in scores.values() if other > score)
            assert ranks[user] == higher + 1


class TestNthBestRank:
    def test_paper_example(self):
        """Section IV-C: ranks 3rd/5th/4th with N=2 -> priority 4."""
        assert nth_best_rank([3, 5, 4], 2) == 4

    def test_n1_is_best_rank(self):
        assert nth_best_rank([7, 2, 9], 1) == 2

    def test_n_equals_aspects_is_worst_rank(self):
        assert nth_best_rank([7, 2, 9], 3) == 9

    def test_bounds(self):
        with pytest.raises(ValueError):
            nth_best_rank([1, 2], 0)
        with pytest.raises(ValueError):
            nth_best_rank([1, 2], 3)
        with pytest.raises(ValueError):
            nth_best_rank([], 1)

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=6))
    def test_monotone_in_n(self, ranks):
        priorities = [nth_best_rank(ranks, n) for n in range(1, len(ranks) + 1)]
        assert priorities == sorted(priorities)


class TestInvestigationList:
    @pytest.fixture
    def scores(self):
        return {
            "device": {"alice": 0.9, "bob": 0.2, "carol": 0.5},
            "file": {"alice": 0.8, "bob": 0.3, "carol": 0.1},
            "http": {"alice": 0.7, "bob": 0.9, "carol": 0.2},
        }

    def test_unanimous_winner_tops_list(self, scores):
        inv = investigation_list(scores, n_votes=3)
        # alice ranks 1,1,2 -> priority 2; bob 3,2,1 -> 3; carol 2,3,3 -> 3.
        assert inv.users()[0] == "alice"
        assert inv.priority_of("alice") == 2

    def test_priority_tie_broken_by_user_id(self, scores):
        inv = investigation_list(scores, n_votes=3)
        assert inv.users() == ["alice", "bob", "carol"]

    def test_n_votes_one(self, scores):
        inv = investigation_list(scores, n_votes=1)
        assert inv.priority_of("bob") == 1  # bob tops http
        assert inv.priority_of("alice") == 1

    def test_position_of(self, scores):
        inv = investigation_list(scores, n_votes=3)
        assert inv.position_of("alice") == 1
        with pytest.raises(KeyError):
            inv.position_of("dave")

    def test_top_k(self, scores):
        inv = investigation_list(scores, n_votes=3)
        assert inv.top(2) == inv.users()[:2]
        assert inv.top(0) == []
        with pytest.raises(ValueError):
            inv.top(-1)

    def test_ranks_recorded_per_aspect(self, scores):
        inv = investigation_list(scores, n_votes=2)
        entry = next(e for e in inv.entries if e.user == "alice")
        assert entry.ranks == (1, 1, 2)
        assert inv.aspect_names == ("device", "file", "http")

    def test_mismatched_populations_raise(self, scores):
        scores["http"] = {"alice": 1.0}
        with pytest.raises(ValueError, match="same users"):
            investigation_list(scores, n_votes=2)

    def test_empty_aspects_raise(self):
        with pytest.raises(ValueError):
            investigation_list({}, n_votes=1)

    def test_unsorted_entries_rejected(self):
        entries = [
            InvestigationEntry("a", 5, (5,)),
            InvestigationEntry("b", 1, (1,)),
        ]
        with pytest.raises(ValueError):
            InvestigationList(entries=entries, n_votes=1, aspect_names=("x",))

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=3),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=30)
    def test_list_is_total_and_sorted(self, n_users, n_votes, rnd):
        users = [f"u{i}" for i in range(n_users)]
        aspects = {
            a: {u: rnd.random() for u in users} for a in ("x", "y", "z")
        }
        inv = investigation_list(aspects, n_votes=n_votes)
        assert sorted(inv.users()) == users
        priorities = [e.priority for e in inv.entries]
        assert priorities == sorted(priorities)


def test_investigation_from_arrays_equals_investigation_list():
    users = ["u0", "u1", "u2", "u3"]
    arrays = {
        "a": np.array([0.1, 0.9, 0.4, 0.3]),
        "b": np.array([0.5, 0.2, 0.8, 0.1]),
    }
    produced = investigation_from_arrays(arrays, users, n_votes=2)
    expected = investigation_list(
        {aspect: dict(zip(users, map(float, arr))) for aspect, arr in arrays.items()}, 2
    )
    assert [(e.user, e.priority, e.ranks) for e in produced.entries] == [
        (e.user, e.priority, e.ranks) for e in expected.entries
    ]
    assert produced.aspect_names == ("a", "b")
