"""Object transfer: the download protocol, independent of discovery.

Offer / request / transfer / ack is its own protocol (SNIPPETS.md
Snippet 1): whichever organisation located the provider, the download
is a DOWNLOAD-REQUEST answered by DOWNLOAD-RESPONSE pieces of the
object's streams: its attachments (one stream each, named by URI) and
its document (the stream ``""``).  :class:`DownloadManager` owns both
ends — the provider-side serving (one paced schedule per download:
attachments first, the document last, each stream one piece or
``download_chunk_bytes`` chunks), the requester's one arrival handler,
and the chunked mode's stall watchdog with replica failover.  The
finished object replicates into the requester's repository and is
re-announced through the adapter's own ``publish``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.engine.kernel import DownloadStream, EventKernel, ExchangeContext, RetrieveContext
from repro.network.config import ReliabilityConfig
from repro.network.errors import TransferError
from repro.network.messages import Message, MessageType, download_piece, download_request
from repro.network.peers import Peer
from repro.network.reliable import ReliableChannel
from repro.network.stats import DownloadRecord
from repro.storage.attachments import Attachment
from repro.storage.document_store import StoredObject
from repro.storage.errors import ObjectNotFoundError
from repro.storage.replicas import ReplicaRegistry


@dataclass
class RetrieveResult:
    """Outcome of downloading one object (plus attachments) from a provider."""

    stored: StoredObject
    provider_id: str
    transfer_bytes: int
    latency_ms: float
    attachments_transferred: int = 0


class DownloadManager:
    """Both ends of every download of one network."""

    def __init__(self, kernel: EventKernel, config: ReliabilityConfig, *,
                 channel: ReliableChannel, replicas: ReplicaRegistry,
                 announce: Callable[..., None]) -> None:
        self.kernel = kernel
        self.simulator = kernel.simulator
        self.config = config
        self.channel = channel
        self.replicas = replicas
        #: the adapter's ``publish``: how a new replica becomes findable
        self.announce = announce
        kernel.register(MessageType.DOWNLOAD_REQUEST, self._on_request)
        kernel.register(MessageType.DOWNLOAD_RESPONSE, self._on_response)

    # ------------------------------------------------------------------
    # Requester side: start, finish, provider ranking
    # ------------------------------------------------------------------
    def start(self, requester_id: str, provider_id: str, resource_id: str,
              *, bandwidth_kbps: float = 512.0) -> RetrieveContext:
        """Inject a download into the event kernel and return its context.

        The DOWNLOAD-REQUEST is scheduled like any other message; the
        provider answers at delivery time with paced DOWNLOAD-RESPONSE
        pieces, attachments first, and the object replicates into the
        requester's repository when the document's last piece *arrives*.
        The context quiesces by reference counting — the shared clock is
        never mutated, so downloads compose deterministically with any
        queries in flight.
        """
        if bandwidth_kbps <= 0:
            raise ValueError("bandwidth must be positive")
        context = RetrieveContext(
            requester_id=requester_id,
            provider_id=provider_id,
            resource_id=resource_id,
            bandwidth_kbps=bandwidth_kbps,
            started_at=self.simulator.now,
        )
        self.channel.send(download_request(requester_id, provider_id, resource_id),
                          context=context)
        if self.config.download_chunk_bytes is not None:
            # The stall watchdog holds a pending token so a download
            # whose chunks stop arriving stays open long enough to
            # re-request or fail over instead of completing as lost.
            context.pending += 1
            context.watchdog_held = True
            self._arm_watchdog(context)
        return context

    def finish(self, context: RetrieveContext) -> RetrieveResult:
        """Turn a completed retrieve context into a result, or raise.

        Raises the failure recorded during the exchange (e.g. the
        provider had no such object) or :class:`TransferError` when the
        transfer never completed (provider churned offline mid-request,
        requester churned before the response arrived, starvation).
        """
        self.kernel.sync_context(context)
        if not context.finalized:
            context.finalized = True
            if context.succeeded:
                self.kernel.stats.record_download(context.transfer_bytes, DownloadRecord(
                    resource_id=context.resource_id,
                    requester=context.requester_id,
                    provider=context.provider_id,
                    bytes=context.transfer_bytes,
                    latency_ms=context.latency_ms,
                    attachments=context.attachments_transferred,
                ))
        if context.error is not None:
            raise context.error
        if context.stored is None:
            raise TransferError(
                f"download of {context.resource_id!r} from {context.provider_id!r} "
                f"did not complete (dropped in flight)"
            )
        return RetrieveResult(
            stored=context.stored,
            provider_id=context.provider_id,
            transfer_bytes=context.transfer_bytes,
            latency_ms=context.latency_ms,
            attachments_transferred=context.attachments_transferred,
        )

    def locate_provider(self, resource_id: str, *,
                        exclude: Union[str, Iterable[str], None] = None) -> Optional[str]:
        """An online peer currently holding ``resource_id``, or ``None``.

        Deterministic: originals are preferred over replicas, ties
        break by peer id.  Used by the mixed-workload driver to resolve
        a download target at submission time, and by download failover
        to pick the next-ranked replica — ``exclude`` takes a single
        peer id or a collection (the requester plus every provider that
        already crashed or stalled out of the transfer).
        """
        excluded = frozenset((exclude,)) if isinstance(exclude, str) \
            else frozenset(exclude or ())
        for holder in self.replicas.holders(resource_id, exclude=excluded):
            peer = self.kernel.peers.get(holder)
            if peer is not None and peer.online \
                    and peer.repository.documents.contains(resource_id):
                return holder
        return None

    # ------------------------------------------------------------------
    # Provider side: one paced schedule per download
    # ------------------------------------------------------------------
    def _on_request(self, peer: Optional[Peer], message: Message,
                    context: Optional[ExchangeContext]) -> None:
        """The provider serves the object as one paced schedule.

        Each piece — a whole stream, or a chunk of one under
        ``download_chunk_bytes`` — is emitted by its own event that
        checks the provider is still online, so a crash-stop between
        pieces strands the rest of the download."""
        if peer is None or not isinstance(context, RetrieveContext):
            return
        if peer.peer_id != context.provider_id:
            return  # a late retransmission reached a struck-off provider
        try:
            stored = peer.repository.retrieve(message.resource_id)
        except ObjectNotFoundError as error:
            context.error = error
            return
        if context.serving == (peer.peer_id, context.provider_attempts):
            return  # a duplicated request: this provider already serves it
        context.serving = (peer.peer_id, context.provider_attempts)
        self._emit_chunk(peer.peer_id, self._chunk_stream(peer, stored, context),
                         context, False)

    @staticmethod
    def _streams(peer: Peer, stored: StoredObject
                 ) -> Iterator[tuple[str, Union[Attachment, StoredObject], int]]:
        """Every stream of ``stored`` the provider holds, as
        ``(name, payload, bytes)``: its attachments, then the document
        (named ``""``), each served only when the caller reaches it."""
        attachments = peer.repository.attachments
        for uri in [uri for uri in stored.metadata.get("__attachments__", [])
                    if attachments.has(uri)]:
            attachment = attachments.serve(uri)
            yield uri, attachment, attachment.size_bytes
        yield "", stored, len(stored.to_xml_text().encode("utf-8"))

    def _chunk_sizes(self, payload_bytes: int) -> list[int]:
        chunk_bytes = self.config.download_chunk_bytes
        if chunk_bytes is None:
            return [payload_bytes]
        total = max(1, math.ceil(payload_bytes / chunk_bytes))
        return [chunk_bytes] * (total - 1) + [payload_bytes - chunk_bytes * (total - 1)]

    def _chunk_stream(self, peer: Peer, stored: StoredObject,
                      context: RetrieveContext) -> Iterator[tuple[Message, bool]]:
        """The whole object as ``(chunk, more_follow)`` pairs, each built
        only when the emitter reaches it.

        Attachments stream *first* and the document chunks come last:
        the assembled object rides the very final chunk, so
        ``context.stored`` is only set once everything arrived and a
        stall at *any* point is recoverable by the watchdog's restart
        against a surviving replica.
        """
        provider_id, requester_id = peer.peer_id, context.requester_id
        for uri, payload, size in self._streams(peer, stored):
            sizes = self._chunk_sizes(size)
            for index, piece in enumerate(sizes):
                last = index + 1 == len(sizes)
                yield download_piece(
                    provider_id, requester_id, context.resource_id, size_bytes=piece,
                    uri=uri, index=index, total=len(sizes),
                    payload_object=payload if last else None), bool(uri) or not last

    def _emit_chunk(self, provider_id: str, stream: Iterator[tuple[Message, bool]],
                    context: RetrieveContext, holds_token: bool) -> None:
        """Emit the stream's next chunk and schedule the one after it,
        paced by the chunk's transmission time.

        Scheduled emissions hold a pending token on the context so the
        exchange cannot complete between two chunks; the token is
        released here whatever path the emission takes.
        """
        try:
            peer = self.kernel.peers.get(provider_id)
            if peer is None or not peer.online:
                return  # crash-stop mid-transfer: the rest never leaves
            if context.done or context.stored is not None \
                    or context.provider_id != provider_id:
                return  # completed meanwhile, or the requester failed over
            chunk, more_follow = next(stream)
            latency = self.simulator.transfer_time(
                provider_id, context.requester_id, chunk.payload_bytes,
                bandwidth_kbps=context.bandwidth_kbps)
            self.kernel.send(chunk, context=context, latency_ms=latency)
            if more_follow:
                transmission = latency - self.simulator.link_latency(
                    provider_id, context.requester_id)
                context.pending += 1
                self.simulator.post_keyed(provider_id, transmission, self._emit_chunk,
                                          provider_id, stream, context, True)
        finally:
            if holds_token:
                self.kernel.release(context)

    # ------------------------------------------------------------------
    # Requester side: arrivals
    # ------------------------------------------------------------------
    def _on_response(self, peer: Optional[Peer], message: Message,
                     context: Optional[ExchangeContext]) -> None:
        """One piece of one stream reached the requester.

        The document completes (replicating it and re-announcing it
        through this protocol's own publish path) and an attachment
        lands when the policy line below says so.  A requester that
        churned offline never gets here — the kernel dropped the
        delivery."""
        if peer is None or not isinstance(context, RetrieveContext):
            return
        uri = message.attachment_uri
        if not uri and context.stored is not None:
            return  # the document already completed (a straggler piece)
        context.transfer_bytes += message.payload_bytes
        stream = context.streams.get(uri)
        if stream is None:
            stream = context.streams[uri] = DownloadStream()
        if message.chunk_index in stream.received:
            return  # a duplicated delivery: bytes burned, no progress
        stream.received.add(message.chunk_index)
        if message.payload_object is not None:
            # The payload rides the stream's final piece; stash it in
            # case faults deliver pieces out of order.
            stream.payload = message.payload_object
        # The policy line (ROADMAP 22): the document waits for every
        # piece of its stream, an attachment lands with its payload
        # piece even while a middle piece is missing.
        if stream.payload is None or (not uri and len(stream.received) < message.chunk_total):
            return
        payload, stream.payload = stream.payload, None
        if isinstance(payload, Attachment):
            peer.repository.attachments.receive(payload)
            context.attachments_transferred += 1
        elif isinstance(payload, StoredObject):
            self.complete_document(peer, context, payload)

    def complete_document(self, peer: Peer, context: RetrieveContext,
                          stored: StoredObject) -> None:
        """The document arrived in full: replicate and re-announce it."""
        context.stored = stored
        # The store copies the document and the metadata it keeps.
        replica = peer.repository.publish(
            stored.community_id, stored.document, stored.metadata, title=stored.title
        )
        self.replicas.note_replica(replica.resource_id, peer.peer_id,
                                   at_ms=self.simulator.now)
        # The new replica is announced so later searches can find it here.
        self.announce(peer.peer_id, stored.community_id, replica.resource_id,
                      stored.metadata, title=stored.title)
        self._release_watchdog(context)
        # Parallel workers replicate this completion to the rest of the
        # fleet at the next barrier (no-op in serial execution).
        self.kernel.note_document_completed(peer, context, stored)

    # ------------------------------------------------------------------
    # Chunked downloads: stall detection and replica failover
    # ------------------------------------------------------------------
    def _progress(self, context: RetrieveContext) -> tuple:
        """The watchdog's progress mark: any arrival moves it.

        Bytes (not piece ordinals) are the primary signal so progress
        during the attachment phase — before any document piece
        arrived — keeps the watchdog quiet.
        """
        document = context.streams.get("")
        return (context.transfer_bytes, len(document.received) if document else 0,
                context.provider_id, context.provider_attempts)

    def _arm_watchdog(self, context: RetrieveContext) -> None:
        # Keyed to the requester: the watchdog is the requester's own
        # timer, so it runs on the requester's home shard and stays
        # lookahead-safe at any timeout value.
        self.simulator.post_keyed(
            context.requester_id, self.config.download_stall_timeout_ms,
            self._check_stall, context, self._progress(context))

    def _check_stall(self, context: RetrieveContext, progress_then: tuple) -> None:
        """One watchdog firing: re-arm on progress, recover on stall."""
        if context.done or context.stored is not None or not context.watchdog_held:
            return
        requester = self.kernel.peers.get(context.requester_id)
        if requester is None or not requester.online:
            # Nobody is left to collect the download.
            self._release_watchdog(context)
        elif self._progress(context) != progress_then:
            self._arm_watchdog(context)
        else:
            self._recover(context)

    def _recover(self, context: RetrieveContext) -> None:
        """A stalled transfer: re-request the provider, then fail over.

        A provider that is still online gets ``retry_max_attempts``
        requests in total (the stall may have been a lost request or a
        lost chunk).  A dead or exhausted provider is struck off and
        the download restarts against the next-ranked replica from the
        registry — deterministically, so a mid-transfer crash degrades
        to a slower download instead of a lost one.  With no replica
        left the watchdog stands down and the exchange completes as a
        failed transfer.
        """
        stats = self.kernel.stats
        provider = self.kernel.peers.get(context.provider_id)
        if provider is not None and provider.online \
                and context.provider_attempts + 1 < self.config.retry_max_attempts:
            context.provider_attempts += 1
            stats.record_retry()
        else:
            context.failed_providers.append(context.provider_id)
            next_provider = self.locate_provider(
                context.resource_id,
                exclude=[context.requester_id, *context.failed_providers])
            if next_provider is None:
                stats.record_timeout()
                self._release_watchdog(context)
                return
            stats.record_failover()
            context.provider_id = next_provider
            context.provider_attempts = 0
        # Restart the document stream: its partial state is discarded
        # (transfer_bytes keeps accumulating — the wasted wire bytes
        # are an honest cost of the recovery).  Attachment streams keep
        # their marks, so a re-served attachment lands only once.
        context.error = None
        context.streams.pop("", None)
        self.channel.send(download_request(context.requester_id, context.provider_id,
                                           context.resource_id), context=context)
        self._arm_watchdog(context)

    def _release_watchdog(self, context: RetrieveContext) -> None:
        if context.watchdog_held:
            context.watchdog_held = False
            self.kernel.release(context)
