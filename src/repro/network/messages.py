"""Protocol messages exchanged between peers.

The message vocabulary follows the Gnutella 0.4 descriptor set (ping,
pong, query, query-hit) extended with the registration and download
messages the centralized and super-peer organisations need.
Only the fields that influence routing and cost accounting are
modelled; payload size is estimated from the carried XML so the
message-cost experiments report realistic byte counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class MessageType(Enum):
    """Kinds of protocol message."""

    PING = "ping"
    PONG = "pong"
    QUERY = "query"
    QUERY_HIT = "query-hit"
    REGISTER = "register"          # centralized / super-peer metadata upload
    DOWNLOAD_REQUEST = "download-request"
    DOWNLOAD_RESPONSE = "download-response"
    # Membership lifecycle (live_membership mode): joins, two-tier
    # attachment and advertisement lease renewal all travel through the
    # kernel like any other protocol traffic.  Nobody says goodbye: a
    # departure is noticed when a lease lapses.
    JOIN = "join"
    LEAF_ATTACH = "leaf-attach"
    AD_RENEW = "ad-renew"
    # Reliable-delivery envelope: a header-only acknowledgement echoing
    # the acknowledged message's id (see ``ReliableChannel.send``).
    ACK = "ack"


_HEADER_BYTES = 23  # Gnutella descriptor header size
_message_counter = itertools.count(1)


def next_message_id() -> str:
    """Globally unique message identifier (for duplicate suppression).

    Unpadded on purpose: the id is an opaque correlation token created
    once per message on the kernel hot path, and zero-padding costs
    measurable format time at flood volumes.
    """
    return f"msg-{next(_message_counter)}"


@dataclass(slots=True)
class Message:
    """One protocol message in flight.

    ``carried_results`` and ``payload_object`` model the data riding a
    message (query hits on a QUERY-HIT, the stored object or one
    attachment on a DOWNLOAD-RESPONSE).  The receiving handler applies
    them on *arrival*, so a recipient that churns offline while the
    message is in flight never observes the payload — the drop is the
    failure model, not a special case.  Neither field contributes to
    ``size_bytes``; the wire cost is already in ``payload_bytes``.

    The class is slotted: a flood constructs one message per hop that
    queues a copy (:meth:`forwarded`), so construction cost is squarely
    on the kernel hot path.  A fan-out's copies share that one message;
    each delivery event names its own recipient, and ``recipient`` here
    is empty (see :meth:`EventKernel.send_many
    <repro.engine.kernel.EventKernel.send_many>`).
    ``query_xml`` holds a *shared* reference to the query's wire form —
    serialized once per search, never per hop.
    """

    type: MessageType
    sender: str
    recipient: str
    message_id: str = field(default_factory=next_message_id)
    ttl: int = 7
    hops: int = 0
    payload_bytes: int = 0
    query_xml: str = ""
    resource_id: str = ""
    community_id: str = ""
    attachment_uri: str = ""
    carried_results: tuple = ()
    payload_object: object = None
    #: reliable-delivery envelope: when non-empty, the kernel sends an
    #: ACK back to this node id once the message is handled on arrival
    ack_to: str = ""
    #: chunked-download framing (``download_chunk_bytes`` mode): this
    #: chunk's ordinal and the transfer's chunk count (0 = unchunked)
    chunk_index: int = 0
    chunk_total: int = 0

    # Pickle support: a slotted dataclass round-trips through the
    # generic ``(None, slots_dict)`` protocol, which ships one dict and
    # sixteen field-name strings per message.  Cross-process shard
    # execution pickles whole outbox batches per barrier, so the state
    # is a bare tuple in slot order instead — and because pickle
    # memoizes *objects*, a hop's message shared by every copy of that
    # hop in the batch is pickled once per batch, and the ``query_xml``
    # wire form riding every hop of one flood once per batch too.
    def __getstate__(self):
        return (self.type, self.sender, self.recipient, self.message_id,
                self.ttl, self.hops, self.payload_bytes, self.query_xml,
                self.resource_id, self.community_id, self.attachment_uri,
                self.carried_results, self.payload_object, self.ack_to,
                self.chunk_index, self.chunk_total)

    def __setstate__(self, state) -> None:
        (self.type, self.sender, self.recipient, self.message_id,
         self.ttl, self.hops, self.payload_bytes, self.query_xml,
         self.resource_id, self.community_id, self.attachment_uri,
         self.carried_results, self.payload_object, self.ack_to,
         self.chunk_index, self.chunk_total) = state

    def forwarded(self, sender: str, recipient: str) -> "Message":
        """This message forwarded one hop further.

        The one spelling of "forward": every flood hop, discovery
        re-flood and relay broadcast builds its one hop message here
        (with an empty ``recipient``: the kernel's delivery events name
        each copy's recipient), and every rendezvous walk step its next
        point-to-point message.  The copy keeps the descriptor id and
        shares the immutable query payload (``query_xml``,
        ``payload_bytes``) — forwarding never draws an id, re-serializes
        or re-measures the wire form.  Positional construction: this runs
        once per hop of every flood.
        """
        return Message(self.type, sender, recipient, self.message_id,
                       self.ttl - 1, self.hops + 1, self.payload_bytes,
                       self.query_xml, self.resource_id, self.community_id)

    @property
    def size_bytes(self) -> int:
        """Total on-the-wire size (header plus payload)."""
        return _HEADER_BYTES + self.payload_bytes

    @property
    def expired(self) -> bool:
        return self.ttl <= 0


def query_message(sender: str, recipient: str, query_xml: str, *, ttl: int = 7,
                  community_id: str = "", payload_bytes: Optional[int] = None,
                  message_id: str = "") -> Message:
    """Build a QUERY message carrying a serialized structured query.

    ``payload_bytes`` lets callers that measured the wire form once (a
    compiled plan) skip the per-message UTF-8 encode.  ``message_id`` is
    the descriptor id every forwarded copy will carry (a search passes
    its query id); without one a fresh id is drawn.
    """
    return Message(
        type=MessageType.QUERY,
        sender=sender,
        recipient=recipient,
        message_id=message_id or next_message_id(),
        ttl=ttl,
        payload_bytes=payload_bytes if payload_bytes is not None
        else len(query_xml.encode("utf-8")),
        query_xml=query_xml,
        community_id=community_id,
    )


def query_hit_message(sender: str, recipient: str, *, result_count: int,
                      metadata_bytes: int, message_id: str) -> Message:
    """Build a QUERY-HIT carrying ``result_count`` results back to the origin."""
    return Message(
        type=MessageType.QUERY_HIT,
        sender=sender,
        recipient=recipient,
        message_id=message_id,
        payload_bytes=11 + metadata_bytes + 8 * result_count,
    )


def register_message(sender: str, recipient: str, *, community_id: str,
                     resource_id: str, metadata_bytes: int,
                     payload_object: object = None) -> Message:
    """Build a REGISTER message uploading one object's searchable metadata.

    ``payload_object`` optionally carries ``(metadata, title)`` for the
    live-membership path, where the recipient's handler inserts the
    record on *arrival* instead of the sender mutating remote state.
    """
    return Message(
        type=MessageType.REGISTER,
        sender=sender,
        recipient=recipient,
        community_id=community_id,
        resource_id=resource_id,
        payload_bytes=metadata_bytes,
        payload_object=payload_object,
    )


def ping_message(sender: str, recipient: str, *, ttl: int = 1) -> Message:
    """A Gnutella 0.4 PING: header-only (keepalive or discovery probe)."""
    return Message(type=MessageType.PING, sender=sender, recipient=recipient, ttl=ttl)


def pong_message(sender: str, recipient: str, *, message_id: str) -> Message:
    """A Gnutella 0.4 PONG: the 14-byte address/shared-files payload."""
    return Message(
        type=MessageType.PONG,
        sender=sender,
        recipient=recipient,
        message_id=message_id,
        payload_bytes=14,
    )


def join_message(sender: str, recipient: str) -> Message:
    """Announce a peer's (re)appearance to a directory node."""
    return Message(
        type=MessageType.JOIN,
        sender=sender,
        recipient=recipient,
        payload_bytes=len(sender.encode("utf-8")),
    )


def leaf_attach_message(sender: str, recipient: str) -> Message:
    """A leaf asks ``recipient`` (a super/rendezvous peer) to adopt it."""
    return Message(
        type=MessageType.LEAF_ATTACH,
        sender=sender,
        recipient=recipient,
        payload_bytes=len(sender.encode("utf-8")),
    )


def ad_renew_message(sender: str, recipient: str, *, community_id: str,
                     resource_id: str, metadata_bytes: int,
                     payload_object: object = None) -> Message:
    """Renew (or repair) one advertisement's lease at a rendezvous peer.

    The renewal re-ships the advertisement's metadata, so it costs the
    same bytes as the original publication — the JXTA lease model's
    standing maintenance price.
    """
    return Message(
        type=MessageType.AD_RENEW,
        sender=sender,
        recipient=recipient,
        community_id=community_id,
        resource_id=resource_id,
        payload_bytes=metadata_bytes,
        payload_object=payload_object,
    )


def download_request(sender: str, recipient: str, resource_id: str) -> Message:
    return Message(
        type=MessageType.DOWNLOAD_REQUEST,
        sender=sender,
        recipient=recipient,
        resource_id=resource_id,
        payload_bytes=len(resource_id.encode("utf-8")),
    )


def download_response(sender: str, recipient: str, resource_id: str, *,
                      payload_bytes: int, message_id: Optional[str] = None,
                      payload_object: object = None) -> Message:
    return Message(
        type=MessageType.DOWNLOAD_RESPONSE,
        sender=sender,
        recipient=recipient,
        resource_id=resource_id,
        message_id=message_id or next_message_id(),
        payload_bytes=payload_bytes,
        payload_object=payload_object,
    )


def ack_message(sender: str, recipient: str, *, message_id: str) -> Message:
    """Acknowledge one reliably-sent message (header-only).

    The ACK reuses the acknowledged message's id, which is how the
    sender's pending-ACK table correlates it; a retransmitted original
    therefore produces ACKs that all resolve the same entry.
    """
    return Message(
        type=MessageType.ACK,
        sender=sender,
        recipient=recipient,
        message_id=message_id,
    )


def download_chunk(sender: str, recipient: str, resource_id: str, *,
                   index: int, total: int, size_bytes: int,
                   payload_object: object = None) -> Message:
    """One chunk of a chunked download (``download_chunk_bytes`` mode).

    The stored object rides the final chunk; the requester assembles
    the transfer from chunk ordinals, so loss or reordering of any
    chunk is detectable by the stall watchdog instead of silently
    corrupting the download.
    """
    return Message(
        type=MessageType.DOWNLOAD_RESPONSE,
        sender=sender,
        recipient=recipient,
        resource_id=resource_id,
        payload_bytes=size_bytes,
        chunk_index=index,
        chunk_total=total,
        payload_object=payload_object,
    )


def attachment_transfer(sender: str, recipient: str, resource_id: str, *,
                        uri: str, size_bytes: int, payload_object: object = None,
                        message_id: Optional[str] = None,
                        chunk_index: int = 0, chunk_total: int = 0) -> Message:
    """One attachment of a download, transferred as its own event.

    In chunked-download mode the attachment is itself streamed as
    paced chunks (``chunk_total`` set, the payload riding the final
    chunk) so a provider crash mid-attachment is detectable by the
    requester's stall watchdog.
    """
    return Message(
        type=MessageType.DOWNLOAD_RESPONSE,
        sender=sender,
        recipient=recipient,
        resource_id=resource_id,
        message_id=message_id or next_message_id(),
        payload_bytes=size_bytes,
        attachment_uri=uri,
        payload_object=payload_object,
        chunk_index=chunk_index,
        chunk_total=chunk_total,
    )
