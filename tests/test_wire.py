"""The wire, declared once: the field-driven codec and the endpoint table.

* ``tests/data/wire_golden.json`` holds, for fixed instances of every
  message class, the exact ``json.dumps(msg.to_wire(), sort_keys=True)``
  string the hand-written codecs of the commit before the field-driven
  codec produced (the two job-snapshot replies the handler used to assemble
  as dicts included).  The codec must emit the same bytes and decode them
  to an equal instance, so an old executor and a new server interoperate.
* Every request class bound to a route rejects the malformed bodies with
  :class:`ProtocolError` (HTTP 400), never ``KeyError``/``TypeError``.
* The route table of ``docs/ARCHITECTURE.md`` is the :data:`ENDPOINTS` table.
* A hostile ``timeout=`` or ``Content-Length`` is answered, at once, with a
  400 — the sockets below carry a timeout so a regression fails, not hangs.
"""

from __future__ import annotations

import dataclasses
import json
import re
import socket
from pathlib import Path

import pytest

from repro.errors import ProtocolError, UnknownJobError
from repro.serving import NavigationRequest, NavigationServer
from repro.serving.transport import (
    API_PREFIX,
    IDEMPOTENCY_HEADER,
    PROTOCOL_VERSION,
    TENANT_HEADER,
    NavigationHTTPServer,
)
from repro.serving.transport import protocol
from repro.serving.transport.protocol import (
    ENDPOINTS,
    FleetClaimRequest,
    FleetClaimResponse,
    FleetCommitRequest,
    FleetRegisterRequest,
    SubmitRequest,
    SubmitResponse,
    WireMessage,
    match_endpoint,
)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "wire_golden.json").read_text())
REQUEST_CLASSES = sorted(
    {row.request for row in ENDPOINTS.values() if row.request is not None},
    key=lambda cls: cls.__name__,
)


def _valid_body(cls) -> dict:
    """The golden body of one request class (its richest instance)."""
    return next(
        json.loads(case["wire"]) for case in GOLDEN if case["message"] == cls.__name__
    )


# --------------------------------------------------------------------- codec
class TestGoldenWire:
    @pytest.mark.parametrize(
        "case", GOLDEN, ids=[f"{i}-{c['message']}" for i, c in enumerate(GOLDEN)]
    )
    def test_bytes_match_the_hand_written_codecs(self, case):
        cls = getattr(protocol, case["message"])
        message = cls(**case["fields"])
        assert json.dumps(message.to_wire(), sort_keys=True) == case["wire"]
        assert cls.from_wire(json.loads(case["wire"])) == message

    def test_every_message_class_has_a_golden_case(self):
        messages = {
            name
            for name, cls in vars(protocol).items()
            if isinstance(cls, type)
            and issubclass(cls, WireMessage)
            and cls is not WireMessage
        }
        assert messages == {case["message"] for case in GOLDEN}
        routed = {row.response for row in ENDPOINTS.values()} | set(REQUEST_CLASSES)
        assert {cls.__name__ for cls in routed} == messages

    def test_the_codec_is_written_once(self):
        overrides = {
            cls.__name__
            for cls in vars(protocol).values()
            if isinstance(cls, type)
            and issubclass(cls, WireMessage)
            and cls is not WireMessage
            and ("to_wire" in vars(cls) or "from_wire" in vars(cls))
        }
        assert overrides == {"SubmitRequest", "SubmitResponse"}


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
            FleetClaimResponse,
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
