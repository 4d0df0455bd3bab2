"""The wire, declared once: the field-driven codec and the endpoint table.

* ``tests/data/wire_golden.json`` holds the exact
  ``json.dumps(..., sort_keys=True)`` strings the *hand-written* codecs
  produced before ``repro.wire`` replaced them: one per message class
  (``messages``; the cases whose payload slots are now typed carry
  ``tests/wire_samples.py`` objects run through the old ``to_dict`` /
  ``record_to_dict`` / ``task_to_wire``), the bare domain payloads
  (``payloads``), one candidate key, and one store entry with the
  ``meta_`` fingerprint file older stores kept beside it.
  The codec must emit the same bytes and decode them to an equal object, so
  an old executor, an old client and an old store interoperate with it.
* Every class that crosses a boundary round-trips from a sample that sets
  every field to a non-default value; a new field without a sample fails.
* Every request class bound to a route rejects the malformed bodies with
  :class:`ProtocolError` (HTTP 400), never ``KeyError``/``TypeError``.
* The route table of ``docs/ARCHITECTURE.md`` is the :data:`ENDPOINTS` table.
* A hostile ``timeout=`` or ``Content-Length`` is answered, at once, with a
  400 — the sockets below carry a timeout so a regression fails, not hangs.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import socket
import threading
import typing
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from wire_samples import (
    CONFIG,
    EVENT,
    FINGERPRINT,
    GUIDELINE,
    OTHER_CONFIG,
    PERF,
    PREDICTED,
    PROFILE,
    RECORD,
    REPORT,
    SAMPLES,
    TASK,
    key_with_kernel,
)

from repro.errors import ProtocolError, UnknownJobError
from repro.explorer.constraints import RuntimeConstraint
from repro.runtime.parallel import ResultStore, candidate_key
from repro.serving import NavigationRequest, NavigationServer
from repro.serving.events import EventBatch
from repro.serving.fleet import ClaimGrant, CommitOutcome
from repro.serving.transport import (
    API_PREFIX,
    IDEMPOTENCY_HEADER,
    PROTOCOL_VERSION,
    TENANT_HEADER,
    NavigationHTTPServer,
    RemoteNavigationClient,
)
from repro.serving.transport import protocol
from repro.serving.transport.protocol import (
    ENDPOINTS,
    FleetClaimRequest,
    FleetCommitRequest,
    FleetRegisterRequest,
    SubmitRequest,
    SubmitResponse,
    match_endpoint,
)
from repro.transfer.corpus import TransferCorpus
from repro.transfer.policy import TransferPolicy
from repro.wire import WireMessage, decode, encode

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "wire_golden.json").read_text())
REQUEST_CLASSES = sorted(
    {row.request for row in ENDPOINTS.values() if row.request is not None},
    key=lambda cls: cls.__name__,
)
ROUTED = {row.response for row in ENDPOINTS.values()} | set(REQUEST_CLASSES)
#: ``candidate_key(TASK, CONFIG, FINGERPRINT)`` at ``GROUND_TRUTH_VERSION`` 6,
#: 5, 4 and 3, and what the call returned at 3 while ``CONFIG`` carried
#: ``kernel="fused"``
CANDIDATE_KEY = "232010a4467c8c2012884ccfe33278f1"
CANDIDATE_KEY_V5 = "884d762cd217a5034168b873a263d085"
CANDIDATE_KEY_V4 = "2a7a26494e4ff09a430766319355d040"
CANDIDATE_KEY_V3 = "a9d4b87e72e8add04f5e3105e74e944c"
KEYED_WITH_KERNEL = "c2f5ed74c9f4addbfcfbecd931156035"

REQUEST = NavigationRequest(
    task=TASK,
    priorities=("ex_tm", "ex_ma"),
    budget=12,
    profile_epochs=3,
    seed=5,
    priority=2,
    constraint=RuntimeConstraint(
        max_time_s=0.5, max_memory_bytes=2.0**24, min_accuracy=0.25
    ),
    train=True,
    tag="nightly",
    tenant="team-a",
    transfer_policy=TransferPolicy(
        enabled=False,
        min_similarity=0.5,
        max_donors=2,
        max_donor_records=16,
        decay=1.5,
        min_budget=9,
        max_shrink=0.25,
    ),
)

#: the messages whose fields hold typed objects, by the name the golden
#: cases refer to them; with ``FULL`` below, one all-fields-set instance of
#: every message class.
MESSAGES = {
    "result_done": protocol.ResultResponse(
        done=True, status="done", result=SAMPLES["result_trained"]
    ),
    "drain": protocol.DrainResponse(done=False, jobs=[SAMPLES["snapshot_running"]]),
    "events": EventBatch(events=[EVENT], next_seq=7, gap=2, done=True),
    "claim": ClaimGrant(
        lease_id="lease-000001",
        ttl=10.0,
        task=TASK,
        dataset="tiny",
        fingerprint=FINGERPRINT,
        keys=("k1", "k2"),
        configs=(CONFIG, OTHER_CONFIG),
    ),
    "commit": FleetCommitRequest(
        "ex-0007", "lease-000001", ["k1"], [RECORD], "lease-000001"
    ),
    "jobs": protocol.JobsResponse(jobs=[SAMPLES["snapshot_running"]]),
    "snapshot_running": SAMPLES["snapshot_running"],
    "snapshot_failed": SAMPLES["snapshot_failed"],
}

#: class -> an instance that sets every field to a non-default value.
FULL = {
    type(sample): sample
    for sample in (
        TASK, CONFIG, PROFILE, RECORD, PREDICTED, GUIDELINE, REPORT,
        REPORT.exploration, PERF, PERF.memory, PERF.epochs[0], EVENT,
        SAMPLES["result_trained"], SAMPLES["snapshot_failed"], REQUEST,
        REQUEST.constraint, REQUEST.transfer_policy,
        *(MESSAGES[name] for name in ("drain", "events", "claim", "commit", "jobs")),
        protocol.ResultResponse(
            done=True, status="failed", result=SAMPLES["result_untrained"],
            error={"kind": "JobFailedError", "message": "boom"},
        ),
        SubmitRequest(specs=[REQUEST.to_dict()], idempotency_key="k", batch=True),
        SubmitResponse(job_ids=["job-0000"], batch=True, deduplicated=True),
        CommitOutcome(accepted=3, duplicates=1, replayed=True),
        protocol.CancelResponse(cancelled=True),
        protocol.MetricsResponse(metrics={"jobs_done": 3}),
        protocol.HealthResponse(ok=True, jobs=12),
        FleetRegisterRequest(workers=3, executor_id="ex-0007"),
        protocol.FleetRegisterResponse("ex-0007", 1.5, 4.5),
        protocol.FleetHeartbeatRequest("ex-0007"),
        protocol.FleetHeartbeatResponse(renewed=2),
        FleetClaimRequest("ex-0007", max_candidates=4, timeout=2.5),
        protocol.FleetGraphResponse(graph={"name": "tiny"}),
        protocol.FleetStatusResponse(executors=[{"workers": 2}], pending=5, leased=3),
        protocol.FleetDeregisterResponse(deregistered=True),
    )
}


def _valid_body(cls) -> dict:
    """The golden body of one request class (its richest instance)."""
    return next(
        json.loads(case["wire"])
        for case in GOLDEN["messages"]
        if case["message"] == cls.__name__
    )


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True)


# --------------------------------------------------------------------- codec
class TestGoldenWire:
    @pytest.mark.parametrize(
        "case",
        GOLDEN["messages"],
        ids=[f"{i}-{c['message']}" for i, c in enumerate(GOLDEN["messages"])],
    )
    def test_messages_match_the_hand_written_codecs(self, case):
        cls = getattr(protocol, case["message"])
        if "sample" in case:
            message = MESSAGES[case["sample"]]
            assert type(message) is cls
        else:
            message = cls(**case["fields"])
        assert _dumps(message.to_wire()) == case["wire"]
        assert cls.from_wire(json.loads(case["wire"])) == message

    @pytest.mark.parametrize(
        "case", GOLDEN["payloads"], ids=[c["sample"] for c in GOLDEN["payloads"]]
    )
    def test_payloads_match_the_hand_written_codecs(self, case):
        sample = SAMPLES[case["sample"]]
        assert type(sample).__name__ == case["class"]
        assert _dumps(encode(sample)) == case["json"]
        assert decode(type(sample), json.loads(case["json"])) == sample

    def test_every_sample_has_a_golden_payload(self):
        assert {case["sample"] for case in GOLDEN["payloads"]} == set(SAMPLES)

    def test_candidate_keys_did_not_move(self, monkeypatch):
        """What the codec contributes to a key is pinned (``CANDIDATE_KEY``).
        The golden key was taken by the hand-written functions at
        ``GROUND_TRUTH_VERSION`` 2, over a config that still carried
        ``"kernel": "fused"``.  With that pair put back the codec reproduces
        it, and ``KEYED_WITH_KERNEL`` at version 3: the version and the pair
        are the only parts of the payload that ever moved."""
        import repro.runtime.parallel as parallel

        assert candidate_key(TASK, CONFIG, FINGERPRINT) == CANDIDATE_KEY
        monkeypatch.setattr(parallel, "GROUND_TRUTH_VERSION", 5)
        assert candidate_key(TASK, CONFIG, FINGERPRINT) == CANDIDATE_KEY_V5
        monkeypatch.setattr(parallel, "GROUND_TRUTH_VERSION", 4)
        assert candidate_key(TASK, CONFIG, FINGERPRINT) == CANDIDATE_KEY_V4
        monkeypatch.setattr(parallel, "GROUND_TRUTH_VERSION", 3)
        assert candidate_key(TASK, CONFIG, FINGERPRINT) == CANDIDATE_KEY_V3
        assert key_with_kernel(TASK, CONFIG, FINGERPRINT, "fused") == KEYED_WITH_KERNEL
        monkeypatch.setattr(parallel, "GROUND_TRUTH_VERSION", 2)
        assert (
            key_with_kernel(TASK, CONFIG, FINGERPRINT, "fused")
            == GOLDEN["candidate_key"]
        )

    @pytest.mark.parametrize("kernel", ["reference", "fused", "parallel"])
    def test_a_config_that_names_a_kernel_decodes(self, kernel, tmp_path):
        """Peers and stores from before ``TrainingConfig.kernel`` was deleted
        still send the field.  It is an unknown key now, so it is ignored."""
        assert decode(type(CONFIG), {**encode(CONFIG), "kernel": kernel}) == CONFIG
        claim = MESSAGES["claim"].to_wire()
        claim["configs"] = [{**config, "kernel": kernel} for config in claim["configs"]]
        assert ClaimGrant.from_wire(claim) == MESSAGES["claim"]
        name = f"gt_{GOLDEN['candidate_key']}.json"
        envelope = json.loads(GOLDEN["store"][name])
        envelope["record"]["config"]["kernel"] = kernel
        (tmp_path / name).write_text(json.dumps(envelope))
        assert ResultStore(tmp_path).load(GOLDEN["candidate_key"]) == RECORD

    def test_a_report_that_counts_walked_leaves_decodes(self):
        """Servers from before the pruned DFS walk was deleted still send
        ``visited_leaves`` and ``pruned_subtrees`` in every exploration.  They
        are unknown keys now, so they are ignored."""
        retired = {"visited_leaves": 48, "pruned_subtrees": 6}
        report = encode(REPORT)
        report["exploration"] = {**report["exploration"], **retired}
        assert decode(type(REPORT), report) == REPORT
        response = next(
            json.loads(case["wire"])
            for case in GOLDEN["messages"]
            if case.get("sample") == "result_done"
        )
        exploration = response["result"]["report"]["exploration"]
        response["result"]["report"]["exploration"] = {**exploration, **retired}
        assert protocol.ResultResponse.from_wire(response) == MESSAGES["result_done"]

    def test_a_store_written_before_the_codec_loads_and_is_rewritten_equal(
        self, tmp_path
    ):
        key = GOLDEN["candidate_key"]
        for name, text in GOLDEN["store"].items():
            (tmp_path / "old" / name).parent.mkdir(exist_ok=True)
            (tmp_path / "old" / name).write_text(text)
        old = ResultStore(tmp_path / "old")
        assert old.keys() == [key] and old.load(key) == RECORD
        [meta_name] = [name for name in GOLDEN["store"] if name.startswith("meta_")]
        assert old.nbytes == len(GOLDEN["store"][f"gt_{key}.json"])
        # The legacy ``meta_`` file is ignored; the corpus derives the same
        # family from the record.
        corpus = TransferCorpus(old)
        assert corpus.refresh() == 1
        [family] = corpus.tasks()
        assert family.keys == (key,)
        legacy = json.loads(GOLDEN["store"][meta_name])
        assert family.fingerprint_id == legacy["fingerprint_id"]
        new = ResultStore(tmp_path / "new")
        new.save(key, RECORD)
        name = f"gt_{key}.json"
        assert [p.name for p in (tmp_path / "new").iterdir()] == [name]
        written = json.loads((tmp_path / "new" / name).read_text())
        assert _dumps(written) == _dumps(json.loads(GOLDEN["store"][name]))

    def test_every_message_class_has_a_golden_case(self):
        assert {cls.__name__ for cls in ROUTED} == {
            case["message"] for case in GOLDEN["messages"]
        }

    def test_the_codec_is_written_once(self):
        """Under ``serving/`` and ``runtime/`` only the two user-facing flat
        formats define a codec of their own."""
        own = set()
        for package in ("serving", "runtime"):
            for path in (ROOT / "src" / "repro" / package).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.ClassDef):
                        own |= {
                            (node.name, item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and re.fullmatch(r"(to|from)_(dict|wire)", item.name)
                        }
        assert own == {
            (cls, method)
            for cls, pair in (
                ("NavigationRequest", "dict"),
                ("SubmitRequest", "wire"),
                ("SubmitResponse", "wire"),
            )
            for method in (f"to_{pair}", f"from_{pair}")
        }


def _crossing(cls, seen: set) -> set:
    """``cls`` and every dataclass its crossing fields can hold."""
    if cls in seen:
        return seen
    seen.add(cls)
    hints = typing.get_type_hints(cls)
    stack = [hints[f.name] for f in dataclasses.fields(cls) if f.compare]
    while stack:
        hint = stack.pop()
        if dataclasses.is_dataclass(hint):
            _crossing(hint, seen)
        stack.extend(typing.get_args(hint))
    return seen


class TestRoundTrip:
    def test_every_class_that_crosses_has_a_full_sample(self):
        crossing: set = set()
        for root in (*ROUTED, type(RECORD), NavigationRequest):
            _crossing(root, crossing)
        # PerfReport.batches is marked server-side: BatchRecord never crosses
        crossing = {cls for cls in crossing if cls.__name__ != "BatchRecord"}
        assert crossing == set(FULL)

    @pytest.mark.parametrize("cls", FULL, ids=lambda cls: cls.__name__)
    def test_round_trip_with_every_field_set(self, cls):
        sample = FULL[cls]
        for f in dataclasses.fields(cls):
            if not f.compare or not f.metadata.get("wire", True):
                continue
            default = (
                f.default_factory()
                if f.default_factory is not dataclasses.MISSING
                else f.default
            )
            assert getattr(sample, f.name) != default, (
                f"{cls.__name__}.{f.name}: the sample leaves it at its default"
            )
        if isinstance(sample, NavigationRequest):
            wire = json.loads(json.dumps(sample.to_dict()))
            assert NavigationRequest.from_dict(wire) == sample
        elif isinstance(sample, WireMessage):
            wire = json.loads(json.dumps(sample.to_wire()))
            assert wire["protocol"] == PROTOCOL_VERSION
            assert cls.from_wire(wire) == sample
        else:
            wire = json.loads(json.dumps(encode(sample)))
            assert decode(cls, wire) == sample
        if cls not in (NavigationRequest, SubmitRequest, SubmitResponse):
            crossing = {f.name for f in dataclasses.fields(cls) if f.compare}
            crossing -= {"batches"} if cls is type(PERF) else set()
            assert wire.keys() - {"protocol"} == crossing

    def test_unknown_keys_are_ignored_and_server_side_fields_stay(self):
        wire = {**encode(EVENT), "sent_by": "a newer peer"}
        assert decode(type(EVENT), wire) == EVENT
        rows = dataclasses.replace(PERF, batches=[object()])
        assert "batches" not in encode(rows)
        assert "extra" not in encode(TASK)

    @pytest.mark.parametrize(
        "cls, patch",
        [
            (type(RECORD), {"time_s": "fast"}),
            (type(RECORD), {"num_batches": 2.5}),
            (type(RECORD), {"accuracy": None}),
            (type(RECORD), {"num_batches": True}),
            (type(RECORD), {"config": {**encode(CONFIG), "hop_list": [8, "4"]}}),
            (type(RECORD), {"task": "tiny"}),
            (type(EVENT), {"phase": None}),
            (type(EVENT), {"status": []}),
            (type(SAMPLES["snapshot_done"]), {"status": "no-such-status"}),
            (type(REPORT), {"guidelines": {"speed": 7}}),
        ],
    )
    def test_wrong_types_are_protocol_errors(self, cls, patch):
        with pytest.raises(ProtocolError):
            decode(cls, {**encode(FULL[cls]), **patch})


class TestMalformedBodies:
    """One table over every request class a route decodes."""

    @pytest.mark.parametrize("cls", REQUEST_CLASSES, ids=lambda cls: cls.__name__)
    def test_rejected_with_protocol_error(self, cls):
        body = _valid_body(cls)
        assert cls.from_wire(body) == cls.from_wire(dict(body))  # the control
        with pytest.raises(ProtocolError, match="JSON object"):
            cls.from_wire([body])
        with pytest.raises(ProtocolError, match="version mismatch"):
            cls.from_wire({**body, "protocol": PROTOCOL_VERSION + 1})
        for name in body.keys() - {"protocol"}:
            # wrong type: no field of any request is a set-like object, and
            # a bool must not pass for the int it is to python
            for wrong in (object(), True):
                with pytest.raises(ProtocolError):
                    cls.from_wire({**body, name: wrong})
        required = [
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            and f.name in body
        ]
        if cls is SubmitRequest:  # `specs` travels as request / requests
            required = ["request"]
        for name in required:
            with pytest.raises(ProtocolError):
                cls.from_wire({k: v for k, v in body.items() if k != name})
        assert required or cls.from_wire({}) == cls()  # all-default message

    #: every body the hand-written ``from_wire`` tests rejected, plus the
    #: value checks that moved into ``__post_init__``.
    REJECTED = [
        (SubmitRequest, {}),
        (SubmitRequest, {"requests": "not-a-list"}),
        (SubmitRequest, {"request": "not-an-object"}),
        (SubmitRequest, {"requests": [{}, "not-an-object"]}),
        (SubmitRequest, {"request": {}, "idempotency_key": 123}),
        (SubmitResponse, {"deduplicated": False}),
        (SubmitResponse, {"job_ids": "job-0000"}),
        (SubmitResponse, {"job_id": 7}),
        (FleetRegisterRequest, {"workers": 0}),
        (FleetRegisterRequest, {"workers": "2"}),
        (FleetRegisterRequest, {"executor_id": 7}),
        (FleetClaimRequest, {"executor_id": "ex-0000", "max_candidates": 0}),
        (FleetClaimRequest, {"executor_id": "ex-0000", "timeout": "soon"}),
        (FleetClaimRequest, {"executor_id": "ex-0000", "timeout": -1.0}),
        (FleetClaimRequest, {"executor_id": "ex-0000", "timeout": float("nan")}),
        (FleetClaimRequest, {"executor_id": "ex-0000", "timeout": float("inf")}),
        (
            ClaimGrant,
            {"lease_id": "lease-000001", "ttl": 1.0, "task": None, "dataset": None,
             "fingerprint": None, "keys": ["k1", "k2"], "configs": [{}]},
        ),
        (
            FleetCommitRequest,
            {"executor_id": "ex-0000", "lease_id": None, "keys": ["k1", "k2"],
             "records": [{}]},
        ),
        (
            FleetCommitRequest,
            {"executor_id": "ex-0000", "lease_id": None, "keys": ["k1"],
             "records": ["not-a-dict"]},
        ),
        (
            FleetCommitRequest,
            {"executor_id": "ex-0000", "lease_id": None, "keys": "k1", "records": []},
        ),
    ]

    @pytest.mark.parametrize(
        "cls, body",
        REJECTED,
        ids=[f"{i}-{cls.__name__}" for i, (cls, _) in enumerate(REJECTED)],
    )
    def test_value_checks_still_reject(self, cls, body):
        with pytest.raises(ProtocolError):
            cls.from_wire({"protocol": PROTOCOL_VERSION, **body})

    def test_nan_in_a_json_body_is_refused(self):
        raw = b'{"executor_id": "ex-0000", "timeout": NaN}'
        with pytest.raises(ProtocolError, match="finite"):
            FleetClaimRequest.from_wire(protocol.parse_json(raw))

    def test_headers_are_fallbacks_the_body_beats(self):
        headers = {IDEMPOTENCY_HEADER: "retry-1", TENANT_HEADER: "team-h"}
        bare = FleetCommitRequest(
            executor_id="ex-0000", lease_id=None, keys=[], records=[]
        )
        assert bare.to_wire().keys() == {
            "protocol", "executor_id", "lease_id", "keys", "records"
        }
        via_header = FleetCommitRequest.from_wire(bare.to_wire(), headers)
        assert via_header.idempotency_key == "retry-1"
        keyed = dataclasses.replace(bare, idempotency_key="lease-000001")
        body_wins = FleetCommitRequest.from_wire(keyed.to_wire(), headers)
        assert body_wins.idempotency_key == "lease-000001"

        submit = SubmitRequest.from_wire(
            {"requests": [{"dataset": "tiny"}, {"dataset": "tiny", "tenant": "b"}]},
            headers,
        )
        assert submit.idempotency_key == "retry-1" and submit.batch
        assert [spec["tenant"] for spec in submit.specs] == ["team-h", "b"]
        single = SubmitRequest.from_wire({"request": {"dataset": "tiny"}})
        assert single.idempotency_key is None and not single.batch
        assert single.specs == [{"dataset": "tiny"}]


# ------------------------------------------------------ a newer or broken peer
@pytest.fixture()
def canned():
    """An HTTP peer answering every GET with the body the test hands it —
    a newer, or a broken, server as the client sees one."""

    class Handler(BaseHTTPRequestHandler):
        body: dict = {}

        def log_message(self, format, *args):  # noqa: A002
            pass

        def do_GET(self):  # noqa: N802
            raw = json.dumps(self.body).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

    peer = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=peer.serve_forever, daemon=True)
    thread.start()
    yield Handler, RemoteNavigationClient(
        f"http://127.0.0.1:{peer.server_address[1]}", retries=0
    )
    peer.shutdown()
    peer.server_close()
    thread.join(timeout=5)


class TestPeerSkew:
    """Snapshots and events follow the message rules over HTTP: unknown
    keys are ignored, wrong types are a :class:`ProtocolError`."""

    def test_a_client_tolerates_a_newer_server(self, canned):
        handler, client = canned
        snapshot = SAMPLES["snapshot_running"]
        handler.body = {**snapshot.to_wire(), "queue_position": 3}
        assert client.snapshot(snapshot.job_id) == snapshot
        batch = MESSAGES["events"]
        handler.body = {
            **batch.to_wire(),
            "events": [{**encode(EVENT), "trace_id": "abc"}],
            "stream": "v2",
        }
        assert client.events(EVENT.job_id, timeout=0) == batch

    @pytest.mark.parametrize(
        "event", [{"job_id": 1, "phase": None, "status": []}, {"job_id": "job-0"}, 7]
    )
    def test_a_client_refuses_a_mistyped_event(self, canned, event):
        handler, client = canned
        handler.body = {"protocol": PROTOCOL_VERSION, "events": [event], "next_seq": 1}
        with pytest.raises(ProtocolError, match="JobProgressEvent|EventBatch"):
            client.events("job-0", timeout=0)

    def test_a_client_refuses_a_mistyped_snapshot(self, canned):
        handler, client = canned
        handler.body = {**SAMPLES["snapshot_running"].to_wire(), "priority": "high"}
        with pytest.raises(ProtocolError, match="JobSnapshot.priority"):
            client.snapshot("job-0003")

    def test_a_server_tolerates_a_newer_executor(self, staged):
        http, _ = staged
        body = dict(MESSAGES["commit"].to_wire(), lease_id=None, attempt=2)
        body["records"] = [{**body["records"][0], "host_wall_s": 0.25}]
        raw = json.dumps(body).encode()
        code, payload = _raw(http, "POST /v1/fleet/commit", len(raw), raw)
        assert (code, payload["accepted"], payload["duplicates"]) == (200, 1, 0)
        assert http.navigation.service._memory == {"k1": RECORD}


# ------------------------------------------------------------ endpoint table
def _route(row) -> str:
    """A row as the docs write it: ``GET /v1/jobs/<job_id>/result?timeout=``."""
    path = row.path.replace("{", "<").replace("}", ">")
    query = "?" + "&".join(f"{name}=" for name in row.query) if row.query else ""
    return f"{row.verb} {API_PREFIX}{path}{query}"


class TestEndpointTable:
    def test_docs_list_exactly_the_table(self):
        text = (ROOT / "docs" / "ARCHITECTURE.md").read_text()
        header = "| endpoint | request | response | role |\n|---|---|---|---|\n"
        table = text.split(header)[1].split("\n\n")[0]
        documented = [
            tuple(cell.strip("`") for cell in line.strip("| ").split(" | "))
            for line in table.splitlines()
        ]
        assert documented == [
            (
                _route(row),
                "—" if row.request is None else row.request.__name__,
                row.response.__name__,
                row.summary,
            )
            for row in ENDPOINTS.values()
        ]

    def test_every_row_has_its_answer_and_routes_to_itself(self):
        for name, row in ENDPOINTS.items():
            assert row.name == name
            assert callable(getattr(NavigationHTTPServer, f"_{name}"))
            args = {slot: "x" for slot in re.findall(r"{(\w+)}", row.path)}
            path = API_PREFIX + row.url(**args).split("?")[0]
            assert match_endpoint(row.verb, path) == (row, args)

    def test_url_carries_path_and_query_arguments(self):
        assert ENDPOINTS["events"].url(job_id="job-0001", since=3, timeout="1.500") == (
            "/jobs/job-0001/events?since=3&timeout=1.500"
        )
        assert ENDPOINTS["job"].url(job_id="job-0001") == "/jobs/job-0001"

    @pytest.mark.parametrize(
        "verb, path",
        [
            ("GET", "/v1/nonsense"),
            ("GET", "/v0/jobs"),
            ("GET", "/v1"),
            ("POST", "/v1/health"),  # right path, wrong verb
            ("GET", "/v1/jobs/job-0000/result/extra"),
            ("POST", "/v1/fleet/nonsense"),
        ],
    )
    def test_unknown_routes_are_404s(self, verb, path):
        with pytest.raises(UnknownJobError, match="unknown endpoint"):
            match_endpoint(verb, path)


# ------------------------------------------------------ hostile request lines
@pytest.fixture()
def staged(small_graph):
    """A transport over a server whose workers never start: its one job
    stays PENDING, so any long-poll on it waits its full timeout."""
    server = NavigationServer(
        workers=1, graphs={"tiny": small_graph}, autostart=False
    )
    job_id = server.submit(
        NavigationRequest.from_dict({"dataset": "tiny", "epochs": 1, "budget": 8})
    )
    http = NavigationHTTPServer(server)
    http.start()
    yield http, job_id
    http.stop()
    server.stop()


def _raw(http, line: str, length="0", body: bytes = b"") -> tuple[int, dict]:
    """Send one hand-written request, read one response; the socket's
    timeout raises if none comes."""
    head = f"{line} HTTP/1.1\r\nHost: x\r\nContent-Length: {length}\r\n\r\n"
    with socket.create_connection((http.host, http.port), timeout=5.0) as sock:
        sock.sendall(head.encode() + body)
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed after {reply!r}"
            reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        length = int(re.search(rb"content-length: (\d+)", head.lower()).group(1))
        while len(body) < length:
            body += sock.recv(65536)
    return int(head.split()[1]), json.loads(body)


class TestHostileRequests:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "soon"])
    def test_bad_timeouts_never_park_a_handler(self, staged, value):
        http, job_id = staged
        for line in (
            f"GET /v1/jobs/{job_id}/result?timeout={value}",
            f"GET /v1/jobs/{job_id}/events?timeout={value}",
            f"POST /v1/drain?timeout={value}",
        ):
            code, payload = _raw(http, line)
            assert code == 400, line
            assert payload["error"]["kind"] == "ProtocolError"

    def test_a_finite_timeout_still_polls(self, staged):
        http, job_id = staged
        code, payload = _raw(http, f"GET /v1/jobs/{job_id}/result?timeout=0.2")
        assert (code, payload["done"], payload["status"]) == (200, False, "pending")

    def test_nan_claim_timeout_is_a_400(self, staged):
        http, _ = staged
        body = b'{"executor_id": "ex-0000", "timeout": NaN}'
        code, payload = _raw(http, "POST /v1/fleet/claim", len(body), body)
        assert code == 400
        assert payload["error"]["kind"] == "ProtocolError"

    @pytest.mark.parametrize("length", ["-1", "abc", "1e3", "+5", ""])
    def test_content_length_is_not_trusted(self, staged, length):
        http, _ = staged
        code, payload = _raw(http, "POST /v1/drain", length)
        if length == "":  # an empty header reads as "no body", as before
            assert code == 200
            return
        assert code == 400
        assert payload["error"]["kind"] == "ProtocolError"
        assert "Content-Length" in payload["error"]["message"]
