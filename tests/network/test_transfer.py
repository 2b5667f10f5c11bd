"""The requester's one arrival path for downloads.

Every DOWNLOAD-RESPONSE is piece ``chunk_index`` of ``chunk_total`` of
one stream (the document, or one attachment), and
``DownloadManager._on_response`` is its only handler.  These tests feed
it scripted pieces against a fake kernel: a property test holds it equal
to the three arrival paths it replaced (kept below as
``ThreePathArrivals``), and a strict xfail pins ROADMAP item 22's gap.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernel import RetrieveContext
from repro.network.config import ReliabilityConfig
from repro.network.messages import download_piece, download_request
from repro.network.peers import Peer
from repro.network.reliable import ReliableChannel
from repro.network.transfer import DownloadManager
from repro.storage.attachments import Attachment
from repro.storage.document_store import StoredObject
from repro.storage.replicas import ReplicaRegistry
from repro.xmlkit.parser import parse
from tests.network.harness import FakeKernel

RECOVER = "recover"


def published_object():
    provider = Peer(peer_id="hub")
    document = parse("<pattern><name>Observer</name></pattern>").root
    result = provider.repository.publish("patterns", document, {"name": ["Observer"]})
    return provider, result.stored


class Download:
    """One download's requester end, driven piece by piece."""

    def __init__(self):
        provider, self.stored = published_object()
        self.requester = Peer(peer_id="alice")
        self.announced = []
        kernel = FakeKernel(provider, self.requester)
        self.manager = DownloadManager(
            kernel,
            ReliabilityConfig(),
            channel=ReliableChannel(kernel, ReliabilityConfig()),
            replicas=ReplicaRegistry(),
            announce=lambda *args, **kwargs: self.announced.append(args),
        )
        self.context = RetrieveContext(requester_id="alice", provider_id="hub", resource_id="r")

    def deliver(self, message):
        self.manager._on_response(self.requester, message, self.context)

    def recover(self):
        self.manager._recover(self.context)


def stream_pieces(totals, stored):
    """``{(stream, index): piece}`` for a document of ``totals[0]``
    pieces and one attachment per further entry; sizes differ per piece
    so a byte counted twice or not at all shows in the sums."""
    pieces = {}
    for stream, total in enumerate(totals):
        sizes = [100 * (stream + 1) + index for index in range(total)]
        uri = f"file://diagram-{stream}.png" if stream else ""
        payload = Attachment(uri, sum(sizes), f"hash-{stream}") if stream else stored
        for index, size in enumerate(sizes):
            pieces[stream, index] = download_piece(
                "hub",
                "alice",
                "r",
                size_bytes=size,
                uri=uri,
                index=index,
                total=total,
                payload_object=payload if index + 1 == total else None,
            )
    return pieces


class ThreePathArrivals:
    """The requester's arrival logic before it became one handler: an
    attachment path, a document-chunk path and the unchunked-response
    path, with ``chunk_total == 0`` meaning "unchunked" (here
    ``chunked`` says it, as every piece now carries ``chunk_total >= 1``)."""

    def __init__(self, chunked):
        self.chunked = chunked
        self.transfer_bytes = self.attachments_transferred = self.provider_attempts = 0
        self.stored = None
        self.landed = []
        self.attachments_seen = set()
        self.chunks_received = set()
        self.chunk_payload = None

    def deliver(self, message):
        if message.attachment_uri:
            self.on_attachment(message)
        elif self.chunked:
            self.on_document_chunk(message)
        elif isinstance(message.payload_object, StoredObject) and self.stored is None:
            self.transfer_bytes += message.payload_bytes
            self.stored = message.payload_object

    def on_attachment(self, message):
        attachment = message.payload_object
        # The declared corner, the one changed line: it read
        # ``if self.chunked:``, so a repeated unchunked attachment
        # burned no bytes; now every repeated piece burns its bytes.
        if self.chunked or message.attachment_uri in self.attachments_seen:
            self.transfer_bytes += message.payload_bytes
        if not isinstance(attachment, Attachment):
            return
        if message.attachment_uri in self.attachments_seen:
            return
        self.attachments_seen.add(message.attachment_uri)
        self.landed.append(attachment)
        self.attachments_transferred += 1
        if not self.chunked:
            self.transfer_bytes += attachment.size_bytes

    def on_document_chunk(self, message):
        if self.stored is not None:
            return
        self.transfer_bytes += message.payload_bytes
        if message.chunk_index in self.chunks_received:
            return
        self.chunks_received.add(message.chunk_index)
        if message.payload_object is not None:
            self.chunk_payload = message.payload_object
        if len(self.chunks_received) >= message.chunk_total:
            if self.chunk_payload is None:
                return
            self.stored, self.chunk_payload = self.chunk_payload, None

    def recover(self):
        self.provider_attempts += 1
        self.chunks_received.clear()
        self.chunk_payload = None

    def progress(self):
        return (self.transfer_bytes, len(self.chunks_received), "hub", self.provider_attempts)


@st.composite
def schedules(draw):
    """A document plus 0-3 attachments, chunked (1-3 pieces a stream) or
    not (one piece each); every piece delivered 0-2 times in any order,
    with an optional watchdog restart somewhere in between."""
    chunked = draw(st.booleans())
    piece_counts = st.integers(1, 3) if chunked else st.just(1)
    totals = draw(st.lists(piece_counts, min_size=1, max_size=4))
    pieces = [(stream, index) for stream, total in enumerate(totals) for index in range(total)]
    copies = draw(st.lists(st.integers(0, 2), min_size=len(pieces), max_size=len(pieces)))
    steps = draw(st.permutations([piece for piece, n in zip(pieces, copies) for _ in range(n)]))
    recover_at = draw(st.none() | st.integers(0, len(steps)))
    if recover_at is not None:
        steps.insert(recover_at, RECOVER)
    return chunked, totals, steps


@settings(max_examples=400, deadline=None, derandomize=True)
@given(schedule=schedules())
def test_one_handler_equals_the_three_it_replaced(schedule):
    chunked, totals, steps = schedule
    download = Download()
    reference = ThreePathArrivals(chunked)
    pieces = stream_pieces(totals, download.stored)
    for step in steps:
        if step == RECOVER:
            download.recover()
            reference.recover()
        else:
            download.deliver(pieces[step])
            reference.deliver(pieces[step])

    context, store = download.context, download.requester.repository.attachments
    assert context.transfer_bytes == reference.transfer_bytes
    assert context.attachments_transferred == reference.attachments_transferred
    uris = [pieces[stream, 0].attachment_uri for stream in range(1, len(totals))]
    assert [uri for uri in uris if store.has(uri)] == [
        uri for uri in uris if uri in reference.attachments_seen
    ]
    assert store.bytes_received == sum(attachment.size_bytes for attachment in reference.landed)
    assert context.stored is reference.stored
    assert len(download.announced) == (reference.stored is not None)
    if chunked:
        # Only chunked downloads arm the watchdog that reads the mark.
        assert download.manager._progress(context) == reference.progress()


@pytest.mark.xfail(strict=True, reason="ROADMAP 22")
def test_an_attachment_with_a_missing_middle_piece_does_not_land():
    download = Download()
    pieces = stream_pieces([2, 3], download.stored)
    for stream, index in [(1, 0), (1, 2), (0, 0), (0, 1)]:  # (1, 1) is lost
        download.deliver(pieces[stream, index])
    assert download.context.stored is download.stored
    assert download.context.attachments_transferred == 0
    assert not download.requester.repository.attachments.has("file://diagram-1.png")


def test_a_duplicated_unchunked_request_is_served_once():
    """A DOWNLOAD-REQUEST retransmitted after its ACK was lost reaches
    the provider twice: the document and each attachment go out once,
    attachments first, from the one paced schedule."""
    provider = Peer(peer_id="hub")
    uris = ["file://a.png", "file://b.png"]
    document = parse("<pattern><name>Observer</name></pattern>").root
    stored = provider.repository.publish(
        "patterns", document, {"name": ["Observer"], "__attachments__": uris},
        attachment_uris=uris).stored
    kernel = FakeKernel(provider, Peer(peer_id="alice"))
    manager = DownloadManager(kernel, ReliabilityConfig(),
                              channel=ReliableChannel(kernel, ReliabilityConfig()),
                              replicas=ReplicaRegistry(), announce=lambda *args, **kwargs: None)
    context = RetrieveContext(requester_id="alice", provider_id="hub",
                              resource_id=stored.resource_id)
    request = download_request("alice", "hub", stored.resource_id)
    for _ in range(2):
        manager._on_request(provider, request, context)
    while kernel.simulator.posted:
        kernel.fire_next_timer()
    assert [piece.attachment_uri for piece in kernel.sent] == [*uris, ""]
    assert sorted(piece.attachment_uri for piece in kernel.sent) == ["", *uris]
    assert all((piece.chunk_index, piece.chunk_total) == (0, 1) for piece in kernel.sent)
