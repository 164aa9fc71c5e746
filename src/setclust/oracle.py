"""Same-topic decision sources: a label-driven simulated oracle and a remote
chat-completion backend. Both share the query ledger used for the
query-efficiency accounting. The simulated oracle closes its pairwise
verdicts transitively with a component search.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np
import requests


@dataclass(frozen=True)
class MLGroupQuery:
    """Ask the oracle to partition candidate texts into same-topic groups."""

    ids: tuple[int, ...]
    texts: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) < 2:
            raise ValueError("an ML group query needs at least 2 texts")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("query ids must be distinct")
        if len(self.ids) != len(self.texts):
            raise ValueError("ids and texts must align")


@dataclass(frozen=True)
class MLGroupResponse:
    """Partition of the query positions 0..m-1 into disjoint groups."""

    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CLMembershipQuery:
    """Ask whether a candidate shares a topic with any current set member."""

    set_ids: tuple[int, ...]
    set_texts: tuple[str, ...]
    candidate_id: int
    candidate_text: str

    def __post_init__(self):
        if not self.set_ids:
            raise ValueError("set_ids must be nonempty")
        if self.candidate_id in self.set_ids:
            raise ValueError("candidate must not already be a member")


@dataclass(frozen=True)
class CLMembershipResponse:
    """``matched_index`` is None (no topic match) or a position in set_ids."""

    matched_index: int | None


@dataclass
class QueryLedger:
    """Monotone per-kind query counts.

    With ``transcript_path``, the file is truncated when the ledger is made
    and every recorded query that carries an entry appends it as one JSON
    line, led by the query's ledger ``kind``. ``failed_attempts`` counts
    backend calls that failed and were retried or surfaced; it is not part
    of ``total``, which counts answered queries. ``max_query_texts`` is the
    text count of the largest answered query, as the oracle reports it to
    ``record``.
    """

    ml_queries: int = 0
    cl_queries: int = 0
    consistency_queries: int = 0
    failed_attempts: int = 0
    max_query_texts: int = 0
    transcript_path: str | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def __post_init__(self):
        if self.transcript_path is not None:
            open(self.transcript_path, "w", encoding="utf-8").close()

    def record(self, kind: str, entry: dict | None = None, texts: int = 0) -> None:
        with self._lock:
            if kind == "ml":
                self.ml_queries += 1
            elif kind == "cl":
                self.cl_queries += 1
            elif kind == "consistency":
                self.consistency_queries += 1
            else:
                raise ValueError(f"unknown query kind {kind!r}")
            self.max_query_texts = max(self.max_query_texts, texts)
            if self.transcript_path is not None and entry is not None:
                with open(self.transcript_path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"kind": kind, **entry}) + "\n")

    def record_failure(self) -> None:
        with self._lock:
            self.failed_attempts += 1

    @property
    def total(self) -> int:
        return self.ml_queries + self.cl_queries + self.consistency_queries


def _groups_from_pairs(m: int, same) -> tuple[tuple[int, ...], ...]:
    """Transitive closure of pairwise same-topic verdicts, by component search.

    The lowest unvisited position roots a component. Each member of the
    component, in the order it joined, is asked against every position still
    unvisited, as ``same(lower, higher)``; a "same" verdict adds that position
    to the component. So each unordered pair is asked at most once, and only
    while its two positions lie in different components: a pair inside one
    component cannot change the closure. Groups are ascending, ordered by
    smallest member.
    """
    unvisited = list(range(m))
    groups = []
    while unvisited:
        component = [unvisited.pop(0)]
        for member in component:  # grows while it is walked
            apart = []
            for other in unvisited:
                if same(min(member, other), max(member, other)):
                    component.append(other)
                else:
                    apart.append(other)
            unvisited = apart
        groups.append(tuple(sorted(component)))
    return tuple(groups)


class SimulatedOracle:
    """Ground-truth oracle with an independent pairwise error rate.

    Each elementary same-topic decision (an unordered pair of texts inside a
    query) starts from label equality and flips with probability
    ``error_rate``; groups are the transitive closure of the pairwise
    verdicts. All randomness is derived from a content hash of
    (seed, query contents, pair, repeat index), so replaying the identical
    query with the same repeat index is bit-identical, while distinct
    queries or repeat indices flip independently when error_rate > 0.
    """

    def __init__(self, labels_by_id: dict[int, int], error_rate: float = 0.0, seed: int = 0):
        if not 0.0 <= error_rate <= 1.0:
            raise ValueError("error_rate must lie in [0, 1]")
        self.labels = dict(labels_by_id)
        self.error_rate = error_rate
        self.seed = seed
        self.ledger = QueryLedger()

    def _unit(self, *key) -> float:
        payload = json.dumps([self.seed, *key], sort_keys=True).encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def _same(self, id_a: int, id_b: int, repeat: int, context: tuple) -> bool:
        truth = self.labels[id_a] == self.labels[id_b]
        lo, hi = min(id_a, id_b), max(id_a, id_b)
        # _unit is >= 0, so at error_rate 0 no draw can flip a verdict
        if self.error_rate > 0 and self._unit("pair", list(context), lo, hi,
                                              repeat) < self.error_rate:
            return not truth
        return truth

    def query_ml_group(self, query: MLGroupQuery, repeat: int = 0,
                       kind: str = "ml") -> MLGroupResponse:
        context = ("ml", *query.ids)
        groups = _groups_from_pairs(
            len(query.ids),
            lambda i, j: self._same(query.ids[i], query.ids[j], repeat, context),
        )
        self.ledger.record(kind, {"ids": list(query.ids), "repeat": repeat,
                                  "groups": [list(g) for g in groups]}, texts=len(query.ids))
        return MLGroupResponse(groups=groups)

    def query_cl_membership(self, query: CLMembershipQuery) -> CLMembershipResponse:
        matched = None
        context = ("cl", *query.set_ids, query.candidate_id)
        for pos, member in enumerate(query.set_ids):
            if self._same(member, query.candidate_id, 0, context):
                matched = pos
                break
        self.ledger.record("cl", {"set_ids": list(query.set_ids),
                                  "candidate": query.candidate_id, "repeat": 0,
                                  "matched": matched}, texts=len(query.set_ids) + 1)
        return CLMembershipResponse(matched_index=matched)


def consistency_repeat(oracle, query: MLGroupQuery, alpha: int) -> bool:
    """True iff each of ``alpha`` repeats returns the whole query as one group.

    Asking stops at the first repeat that does not, since that repeat already
    decides the verdict; every repeat asked is a ledger ``consistency`` query.
    """
    if alpha < 1:
        raise ValueError("alpha >= 1 required")
    return all(len(oracle.query_ml_group(query, repeat=rep, kind="consistency").groups) == 1
               for rep in range(alpha))


ML_PROMPT = (
    "You will be given a numbered list of short texts. Group together the texts "
    "that are about the same topic. Every index must appear in exactly one group. "
    "Answer with one line per group in the form 'GROUP: i, j, k' and nothing else.\n\n{items}"
)


class OracleBackendError(RuntimeError):
    """Transport or parse failure that survived all retries."""


def parse_ml_response(content: str, m: int) -> MLGroupResponse:
    groups: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for line in content.splitlines():
        line = line.strip()
        if not line.upper().startswith("GROUP:"):
            continue
        try:
            members = tuple(int(tok) for tok in line.split(":", 1)[1].replace(",", " ").split())
        except ValueError as exc:
            raise OracleBackendError(f"unparseable group line {line!r}") from exc
        if not members:
            raise OracleBackendError(f"empty group line {line!r}")
        groups.append(members)
        for idx in members:
            if idx in seen or not 0 <= idx < m:
                raise OracleBackendError(f"index {idx} repeated or out of range in {content!r}")
            seen.add(idx)
    if seen != set(range(m)):
        raise OracleBackendError(f"groups do not cover all indices in {content!r}")
    return MLGroupResponse(groups=tuple(groups))


TEMPERATURE = 0.0  # of every request; ML repeats differ by text order instead


class RemoteOracle:
    """Chat-completion backend speaking JSON over HTTPS.

    Endpoint and key come from ORACLE_API_URL / ORACLE_API_KEY; each query is
    retried up to ``max_attempts`` times with exponential backoff, and an
    unparseable response after retries is an error, never silently dropped.
    It answers grouping queries only (CL growth asks grouping queries too).
    ``send`` is injectable for testing. Queries are sent one at a time; each
    answered one goes to the ledger with its request, response and latency,
    and each failed attempt is counted there too.
    """

    def __init__(self, model: str, max_attempts: int = 3, backoff: float = 1.0, send=None):
        self.model = model
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.ledger = QueryLedger()
        self._send = send if send is not None else self._http_send

    def _http_send(self, payload: dict) -> str:
        url = os.environ.get("ORACLE_API_URL")
        key = os.environ.get("ORACLE_API_KEY")
        if not url:
            raise OracleBackendError("ORACLE_API_URL is not set")
        headers = {"Content-Type": "application/json"}
        if key:
            headers["Authorization"] = f"Bearer {key}"
        resp = requests.post(url, json=payload, headers=headers, timeout=120)
        resp.raise_for_status()
        return resp.json()["choices"][0]["message"]["content"]

    def _chat(self, prompt: str, m: int, kind: str, context: dict) -> MLGroupResponse:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
        }
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt and self.backoff:  # only between attempts, never after the last
                time.sleep(self.backoff * 2 ** (attempt - 1))
            start = time.monotonic()
            try:
                content = self._send(payload)
                result = parse_ml_response(content, m)
            except Exception as exc:  # noqa: BLE001 - retried, then surfaced
                last_error = exc
                self.ledger.record_failure()
                continue
            self.ledger.record(kind, {**context, "request": payload, "response": content,
                                      "latency_ms": round(1000 * (time.monotonic() - start), 1)},
                               texts=m)
            return result
        raise OracleBackendError(
            f"backend failed after {self.max_attempts} attempts: {last_error}"
        ) from last_error

    def query_ml_group(self, query: MLGroupQuery, repeat: int = 0,
                       kind: str = "ml") -> MLGroupResponse:
        """Repeat 0 lists the texts in query order; repeat r > 0 in an order
        drawn from ``np.random.default_rng(r)``, so repeats at temperature 0
        still differ. Groups are returned as query positions either way."""
        m = len(query.ids)
        context = {"ids": list(query.ids), "repeat": repeat}
        order = list(range(m))
        if repeat > 0:
            order = np.random.default_rng(repeat).permutation(m).tolist()
            context["order"] = order
        items = "\n".join(f"{i}. {query.texts[q]}" for i, q in enumerate(order))
        listed = self._chat(ML_PROMPT.format(items=items), m, kind, context)
        return MLGroupResponse(groups=tuple(tuple(order[i] for i in g) for g in listed.groups))
