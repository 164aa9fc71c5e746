"""Simulated oracle, consistency repeats, parsers, and the remote client."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import partition
from oracles import components_bfs, sim_oracle_groups_reference
from setclust.oracle import (
    CLMembershipQuery,
    MLGroupQuery,
    OracleBackendError,
    QueryLedger,
    RemoteOracle,
    SimulatedOracle,
    _groups_from_pairs,
    consistency_repeat,
    parse_ml_response,
)


def make_oracle(labels, p=0.0, seed=0):
    return SimulatedOracle(dict(enumerate(labels)), error_rate=p, seed=seed)


def ml_query(ids):
    return MLGroupQuery(ids=tuple(ids), texts=tuple(f"text {i}" for i in ids))


class TestSimulatedOracleNoiseless:
    def test_label_partition(self):
        oracle = make_oracle(["a", "a", "b"])
        resp = oracle.query_ml_group(ml_query([0, 1, 2]))
        assert partition(resp) == {frozenset({0, 1}), frozenset({2})}

    def test_no_draws_at_zero_noise(self, monkeypatch):
        def no_draw(self, *key):
            raise AssertionError(f"_unit drawn at error_rate 0 for {key}")

        monkeypatch.setattr(SimulatedOracle, "_unit", no_draw)
        oracle = make_oracle(["a", "b", "a", "c", "b"])
        resp = oracle.query_ml_group(ml_query(range(5)))
        assert partition(resp) == {frozenset({0, 2}), frozenset({1, 4}), frozenset({3})}
        query = CLMembershipQuery(set_ids=(0, 1, 3), set_texts=("t0", "t1", "t3"),
                                  candidate_id=4, candidate_text="t4")
        assert oracle.query_cl_membership(query).matched_index == 1

    def test_all_distinct_labels(self):
        oracle = make_oracle(["a", "b", "c", "d"])
        resp = oracle.query_ml_group(ml_query([0, 1, 2, 3]))
        assert partition(resp) == {frozenset({i}) for i in range(4)}

    def test_cl_no_match(self):
        oracle = make_oracle(["a", "b", "c"])
        resp = oracle.query_cl_membership(CLMembershipQuery(
            set_ids=(0, 1), set_texts=("t0", "t1"),
            candidate_id=2, candidate_text="t2"))
        assert resp.matched_index is None

    def test_cl_matched_index(self):
        oracle = make_oracle(["a", "b", "b"])
        resp = oracle.query_cl_membership(CLMembershipQuery(
            set_ids=(0, 1), set_texts=("t0", "t1"),
            candidate_id=2, candidate_text="t2"))
        assert resp.matched_index == 1

    def test_ledger_counts(self):
        oracle = make_oracle(["a", "a", "b"])
        oracle.query_ml_group(ml_query([0, 1, 2]))
        oracle.query_cl_membership(CLMembershipQuery(
            set_ids=(0,), set_texts=("t0",), candidate_id=2, candidate_text="t2"))
        assert oracle.ledger.ml_queries == 1
        assert oracle.ledger.cl_queries == 1
        assert oracle.ledger.total == 2


class TestSimulatedOracleNoise:
    def test_replay_identical(self):
        oracle = make_oracle(["a", "a", "b", "b", "c"], p=0.5, seed=11)
        q = ml_query([0, 1, 2, 3, 4])
        assert partition(oracle.query_ml_group(q)) == partition(oracle.query_ml_group(q))

    def test_matches_reference_noise_model(self):
        # the response must equal pairwise label flips + transitive closure,
        # with the flip decided by the oracle's own per-pair unit draw
        labels = ["a", "a", "b", "b", "c", "a"]
        for seed in range(10):
            oracle = make_oracle(labels, p=0.3, seed=seed)
            ids = (0, 2, 3, 5, 4)
            context = ("ml", *ids)

            def flip(lo, hi):
                return oracle._unit("pair", list(context), lo, hi, 0) < 0.3

            expected = sim_oracle_groups_reference(labels, ids, flip)
            got = partition(oracle.query_ml_group(ml_query(ids)))
            assert got == expected

    def test_p1_complements_p0(self):
        # p=1 flips every elementary verdict: a 2-text query inverts exactly
        labels = ["a", "a", "b"]
        clean = make_oracle(labels, p=0.0)
        flipped = make_oracle(labels, p=1.0)
        same_pair = ml_query([0, 1])
        diff_pair = ml_query([0, 2])
        assert partition(clean.query_ml_group(same_pair)) == {frozenset({0, 1})}
        assert partition(flipped.query_ml_group(same_pair)) == {frozenset({0}), frozenset({1})}
        assert partition(clean.query_ml_group(diff_pair)) == {frozenset({0}), frozenset({1})}
        assert partition(flipped.query_ml_group(diff_pair)) == {frozenset({0, 1})}

    def test_distinct_queries_flip_independently(self):
        # the same pair inside different query contexts can get different
        # verdicts when p > 0
        labels = ["a"] * 12
        oracle = make_oracle(labels, p=0.5, seed=3)
        verdicts = set()
        for extra in range(2, 12):
            resp = oracle.query_ml_group(ml_query([0, 1, extra]))
            verdicts.add(any({0, 1} <= g for g in partition(resp)))
        assert verdicts == {True, False}


class TestConsistencyRepeat:
    def test_noiseless_always_consistent(self):
        # a noiseless oracle answers every repeat alike: a one-topic query
        # passes after alpha repeats, a two-topic one fails after the first
        oracle = make_oracle(["a", "a", "b"])
        assert consistency_repeat(oracle, ml_query([0, 1]), alpha=5)
        assert oracle.ledger.consistency_queries == 5
        assert not consistency_repeat(oracle, ml_query([0, 1, 2]), alpha=5)
        assert oracle.ledger.consistency_queries == 6
        assert oracle.ledger.total == 6

    def test_alpha_one_trivially_consistent(self):
        # one repeat has nothing to agree with: the verdict is whether repeat 0
        # alone is one group
        verdicts = set()
        for seed in range(20):
            oracle = make_oracle(["a", "b"], p=0.5, seed=seed)
            first = make_oracle(["a", "b"], p=0.5, seed=seed).query_ml_group(ml_query([0, 1]))
            verdict = consistency_repeat(oracle, ml_query([0, 1]), alpha=1)
            assert verdict == (len(first.groups) == 1)
            assert oracle.ledger.consistency_queries == 1
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_no_repeat_after_a_split_answer(self):
        # repeat r is asked only when repeats 0..r-1 all answered one group
        stopped_early = 0
        for seed in range(30):
            oracle = make_oracle(["a", "a", "a"], p=0.3, seed=seed)
            answers = []
            real = oracle.query_ml_group

            def spy(query, repeat=0, kind="ml"):
                resp = real(query, repeat=repeat, kind=kind)
                answers.append((repeat, len(resp.groups)))
                return resp

            oracle.query_ml_group = spy
            passed = consistency_repeat(oracle, ml_query([0, 1, 2]), alpha=5)
            assert [rep for rep, _ in answers] == list(range(len(answers)))
            assert all(groups == 1 for _, groups in answers[:-1])
            assert passed == (answers == [(rep, 1) for rep in range(5)])
            assert oracle.ledger.consistency_queries == len(answers)
            stopped_early += len(answers) < 5
        assert stopped_early > 0

    def test_noisy_two_text_query_mostly_inconsistent(self):
        # with p=0.5 and fresh randomness per repeat, 10 repeats of a 2-text
        # query all answer one group with probability 2^-10; false in > 90%
        # of 200 trials
        inconsistent = 0
        for seed in range(200):
            oracle = make_oracle(["a", "b"], p=0.5, seed=seed)
            if not consistency_repeat(oracle, ml_query([0, 1]), alpha=10):
                inconsistent += 1
        assert inconsistent > 180

    def test_alpha_zero_rejected(self):
        oracle = make_oracle(["a", "b"])
        with pytest.raises(ValueError):
            consistency_repeat(oracle, ml_query([0, 1]), alpha=0)


class TestQueryValidation:
    def test_single_text_query_rejected(self):
        with pytest.raises(ValueError):
            MLGroupQuery(ids=(0,), texts=("t",))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            MLGroupQuery(ids=(0, 0), texts=("a", "b"))

    def test_candidate_in_set_rejected(self):
        with pytest.raises(ValueError):
            CLMembershipQuery(set_ids=(0, 1), set_texts=("a", "b"),
                              candidate_id=1, candidate_text="b")

    def test_bad_error_rate(self):
        with pytest.raises(ValueError):
            SimulatedOracle({0: 0}, error_rate=1.5)


class TestParsers:
    def test_parse_ml_groups(self):
        resp = parse_ml_response("GROUP: 0, 2\nGROUP: 1\n", 3)
        assert partition(resp) == {frozenset({0, 2}), frozenset({1})}

    def test_parse_ml_missing_index(self):
        with pytest.raises(OracleBackendError, match="cover"):
            parse_ml_response("GROUP: 0, 1\n", 3)

    def test_parse_ml_duplicate_index(self):
        with pytest.raises(OracleBackendError):
            parse_ml_response("GROUP: 0, 1\nGROUP: 1, 2\n", 3)

    def test_parse_ml_garbage(self):
        with pytest.raises(OracleBackendError):
            parse_ml_response("GROUP: zero, one\n", 2)


class TestRemoteOracle:
    def test_success_and_ledger(self):
        oracle = RemoteOracle(model="m", send=lambda p: "GROUP: 0, 1\n", backoff=0)
        resp = oracle.query_ml_group(ml_query([4, 7]))
        assert partition(resp) == {frozenset({0, 1})}
        assert oracle.ledger.ml_queries == 1

    def test_retry_then_success(self):
        attempts = []

        def flaky(payload):
            attempts.append(1)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return "GROUP: 0\nGROUP: 1\n"

        oracle = RemoteOracle(model="m", send=flaky, backoff=0)
        resp = oracle.query_ml_group(ml_query([0, 1]))
        assert partition(resp) == {frozenset({0}), frozenset({1})}
        assert len(attempts) == 3

    def test_failed_attempts_counted_apart_from_queries(self):
        replies = iter([RuntimeError("transient"), "garbled", "GROUP: 0, 1\n"])

        def flaky(payload):
            reply = next(replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

        oracle = RemoteOracle(model="m", send=flaky, backoff=0)
        oracle.query_ml_group(ml_query([0, 1]))
        assert oracle.ledger.ml_queries == 1
        assert oracle.ledger.total == 1
        assert oracle.ledger.failed_attempts == 2

    def test_failed_attempts_counted_when_all_fail(self):
        def broken(payload):
            raise RuntimeError("down")

        oracle = RemoteOracle(model="m", send=broken, backoff=0, max_attempts=3)
        with pytest.raises(OracleBackendError):
            oracle.query_ml_group(ml_query([0, 1]))
        assert oracle.ledger.total == 0
        assert oracle.ledger.failed_attempts == 3

    def test_failure_after_retries(self):
        def broken(payload):
            raise RuntimeError("down")

        oracle = RemoteOracle(model="m", send=broken, backoff=0, max_attempts=2)
        with pytest.raises(OracleBackendError, match="2 attempts"):
            oracle.query_ml_group(ml_query([0, 1]))

    def test_backoff_sleeps_only_between_attempts(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("setclust.oracle.time.sleep", sleeps.append)

        def broken(payload):
            raise RuntimeError("down")

        oracle = RemoteOracle(model="m", send=broken, backoff=1, max_attempts=3)
        with pytest.raises(OracleBackendError):
            oracle.query_ml_group(ml_query([0, 1]))
        assert sleeps == [1, 2]
        assert oracle.ledger.failed_attempts == 3

    def test_unparseable_never_silently_dropped(self):
        oracle = RemoteOracle(model="m", send=lambda p: "gibberish", backoff=0)
        with pytest.raises(OracleBackendError):
            oracle.query_ml_group(ml_query([0, 1]))

    def test_transcript_written(self, tmp_path):
        path = tmp_path / "t.jsonl"
        oracle = RemoteOracle(model="m", send=lambda p: "GROUP: 0, 1\n", backoff=0,
                              ledger=QueryLedger(transcript_path=str(path)))
        oracle.query_ml_group(ml_query([0, 1]))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["kind"] == "ml"
        assert "latency_ms" in entry

    def test_prompt_contains_texts(self):
        seen = {}

        def capture(payload):
            seen.update(payload)
            return "GROUP: 0, 1\n"

        oracle = RemoteOracle(model="test-model", send=capture, backoff=0)
        oracle.query_ml_group(MLGroupQuery(ids=(0, 1), texts=("apple pie", "cherry tart")))
        assert seen["model"] == "test-model"
        content = seen["messages"][0]["content"]
        assert "apple pie" in content and "cherry tart" in content


class TestRemoteRepeats:
    TEXTS = ("apple pie", "berry jam", "apple tart", "cherry cola", "berry pie", "apple juice")

    @staticmethod
    def by_first_word(sent):
        """A backend that groups the listed texts by their first word, and
        records the texts in the order each prompt lists them."""
        def send(payload):
            listed = re.findall(r"^(\d+)\. (.*)$", payload["messages"][0]["content"], re.M)
            sent.append([text for _, text in listed])
            topics: dict[str, list[str]] = {}
            for pos, text in listed:
                topics.setdefault(text.split()[0], []).append(pos)
            return "\n".join("GROUP: " + ", ".join(g) for g in topics.values())
        return send

    def test_repeats_list_texts_in_different_orders(self, tmp_path):
        sent = []
        path = tmp_path / "t.jsonl"
        oracle = RemoteOracle(model="m", send=self.by_first_word(sent), backoff=0,
                              ledger=QueryLedger(transcript_path=str(path)))
        query = MLGroupQuery(ids=tuple(range(10, 16)), texts=self.TEXTS)
        first = oracle.query_ml_group(query, repeat=0, kind="consistency")
        second = oracle.query_ml_group(query, repeat=1, kind="consistency")
        assert sent[0] == list(self.TEXTS)
        assert sent[1] != sent[0] and sorted(sent[1]) == sorted(self.TEXTS)
        want = {frozenset({0, 2, 5}), frozenset({1, 4}), frozenset({3})}
        assert partition(first) == partition(second) == want
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert "order" not in entries[0]
        assert [self.TEXTS[q] for q in entries[1]["order"]] == sent[1]

    def test_consistent_backend_passes_consistency_repeat(self):
        # one topic passes after alpha asks in differing orders; three topics
        # fail after the first ask
        sent = []
        oracle = RemoteOracle(model="m", send=self.by_first_word(sent), backoff=0)
        apples = (0, 2, 5)
        query = MLGroupQuery(ids=apples, texts=tuple(self.TEXTS[i] for i in apples))
        assert consistency_repeat(oracle, query, alpha=4)
        assert len(sent) == oracle.ledger.consistency_queries == 4
        assert len({tuple(s) for s in sent}) > 1
        query = MLGroupQuery(ids=tuple(range(6)), texts=self.TEXTS)
        assert not consistency_repeat(oracle, query, alpha=4)
        assert len(sent) == oracle.ledger.consistency_queries == 5


class TestLedger:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            QueryLedger().record("bogus")

    def test_transcript_written_as_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("stale line\n")
        ledger = QueryLedger(transcript_path=str(path))
        assert path.read_text() == ""  # truncated when the ledger is made
        ledger.record("ml", {"ids": [0, 1]})
        ledger.record("consistency", {"ids": [0, 1]})
        ledger.record("cl", {"ids": [0, 2]})
        raw = path.read_text().splitlines()
        # each line leads with the kind the ledger counted it under
        assert raw[1] == '{"kind": "consistency", "ids": [0, 1]}'
        assert [json.loads(line) for line in raw] == [
            {"kind": "ml", "ids": [0, 1]}, {"kind": "consistency", "ids": [0, 1]},
            {"kind": "cl", "ids": [0, 2]}]
        assert ledger.total == len(raw)

    def test_simulated_queries_reach_the_transcript(self, tmp_path):
        path = tmp_path / "t.jsonl"
        oracle = SimulatedOracle({0: "a", 1: "a", 2: "b"},
                                 ledger=QueryLedger(transcript_path=str(path)))
        assert consistency_repeat(oracle, ml_query([0, 1]), alpha=2)
        assert not consistency_repeat(oracle, ml_query([0, 1, 2]), alpha=2)
        oracle.query_cl_membership(CLMembershipQuery(
            set_ids=(0,), set_texts=("t",), candidate_id=2, candidate_text="u"))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == oracle.ledger.total == 4
        assert [e["kind"] for e in lines] == ["consistency"] * 3 + ["cl"]
        assert [e["repeat"] for e in lines] == [0, 1, 0, 0]
        assert lines[2]["groups"] == [[0, 1], [2]]
        assert lines[3]["matched"] is None

    def test_largest_query_counts_answered_texts(self):
        # an ML query counts its texts, a CL query its members plus the
        # candidate; a failed backend call counts nothing
        sim = SimulatedOracle({i: i % 2 for i in range(6)})
        sim.query_ml_group(ml_query([0, 1, 2]))
        assert sim.ledger.max_query_texts == 3
        sim.query_cl_membership(CLMembershipQuery(
            set_ids=(0, 1, 3, 5), set_texts=("t",) * 4, candidate_id=2, candidate_text="u"))
        assert sim.ledger.max_query_texts == 5
        sim.query_ml_group(ml_query([4, 5]))
        assert sim.ledger.max_query_texts == 5
        remote = RemoteOracle(model="m", send=lambda p: "GROUP: 0, 1, 2", backoff=0)
        remote.query_ml_group(ml_query([0, 1, 2]))
        assert remote.ledger.max_query_texts == 3
        with pytest.raises(OracleBackendError):
            remote.query_ml_group(ml_query(list(range(9))))
        assert remote.ledger.max_query_texts == 3


verdict_tables = st.integers(1, 40).flatmap(lambda m: st.tuples(
    st.just(m), st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                        max_size=80)))


class TestGroupsFromPairs:
    @settings(max_examples=300, deadline=None)
    @given(verdict_tables)
    def test_components_of_the_same_graph_each_pair_asked_once(self, case):
        m, edges = case
        same_pairs = {frozenset(e) for e in edges}
        asked = []

        def same(i, j):
            asked.append((i, j))
            return frozenset((i, j)) in same_pairs

        groups = _groups_from_pairs(m, same)
        assert [list(g) for g in groups] == components_bfs(m, edges)
        assert all(i < j for i, j in asked)
        assert len(set(asked)) == len(asked)

    def test_pairs_inside_a_component_are_not_asked(self):
        asked = []

        def same(i, j):
            asked.append((i, j))
            return True

        assert _groups_from_pairs(4, same) == ((0, 1, 2, 3),)
        assert asked == [(0, 1), (0, 2), (0, 3)]

    def test_one_topic_query_asks_one_pair_per_joining_text(self):
        m = 800
        oracle = make_oracle([7] * m)
        asks = 0
        truth = oracle._same

        def counting_same(*args):
            nonlocal asks
            asks += 1
            return truth(*args)

        oracle._same = counting_same
        resp = oracle.query_ml_group(ml_query(range(m)))
        assert resp.groups == (tuple(range(m)),)
        assert asks == m - 1
