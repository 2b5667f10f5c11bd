"""Reliable delivery: ACK + capped exponential backoff + timeout.

:class:`ReliableChannel` is the sole owner of the pending-ACK table.
Only traffic that semantically needs delivery goes through it —
REGISTER / JOIN / AD-RENEW / LEAF-ATTACH and DOWNLOAD-REQUEST; floods
and heartbeats stay best-effort by design.  At quiescence the table is
empty: every entry leaves by exactly one of its ACK arriving, its
attempts running out (one ``record_timeout``) or its sender going
offline (nobody is left to retransmit — not a delivery timeout).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.kernel import EventKernel, ExchangeContext
from repro.network.config import ReliabilityConfig
from repro.network.messages import Message, MessageType
from repro.network.peers import Peer


@dataclass
class PendingAck:
    """One reliably-sent message awaiting its ACK."""

    message: Message
    context: Optional[ExchangeContext]
    attempt: int = 0


class ReliableChannel:
    """Send messages that are retransmitted until acknowledged."""

    def __init__(self, kernel: EventKernel, config: ReliabilityConfig) -> None:
        self.kernel = kernel
        self.config = config
        #: reliably-sent messages awaiting their ACK, keyed by message id
        self.pending: dict[str, PendingAck] = {}
        kernel.register(MessageType.ACK, self._on_ack)

    def send(self, message: Message, *,
             context: Optional[ExchangeContext] = None) -> None:
        """Send ``message``, retransmitting until acknowledged.

        With ``reliable_delivery`` off this is a plain ``kernel.send``
        (the pinned default).  On, the message is marked for
        acknowledgement, parked in the pending-ACK table and
        retransmitted on a capped exponential backoff until its ACK
        arrives or ``retry_max_attempts`` sends are exhausted.
        """
        if not self.config.reliable_delivery:
            self.kernel.send(message, context=context)
            return
        message.ack_to = message.sender
        entry = PendingAck(message=message, context=context)
        self.pending[message.message_id] = entry
        if context is not None:
            # The envelope holds a pending token: a dropped request's
            # arrival-time bookkeeping must not complete the exchange
            # while a retransmission may still extend it.
            context.pending += 1
        self.kernel.send(message, context=context)
        self._arm(entry)

    def _arm(self, entry: PendingAck) -> None:
        # Capped exponential backoff: 1x, 2x, 4x, ... up to 8x.
        timeout_ms = self.config.retry_timeout_ms * min(2.0 ** entry.attempt, 8.0)
        # post_keyed declares the retry timer's shard affinity (the
        # sender's home shard) and enqueues directly there, never as a
        # cross-shard send — so a short timeout never violates the
        # sharded kernel's conservative lookahead window.
        self.kernel.simulator.post_keyed(entry.message.sender, timeout_ms, self._check,
                                         entry.message.message_id, entry.attempt)

    def _check(self, message_id: str, attempt: int) -> None:
        """One retry timer firing: retransmit, give up, or stand down."""
        entry = self.pending.get(message_id)
        if entry is None or entry.attempt != attempt:
            return  # acked meanwhile, or a newer attempt armed its own timer
        sender = entry.message.sender
        peer = self.kernel.peers.get(sender)
        if (peer is None or not peer.online) and sender not in self.kernel.virtual_nodes:
            # The sender crashed or churned offline: nobody is left to
            # retransmit.  Settle quietly — this is the sender's death,
            # not a delivery timeout.
            self._settle(message_id)
            return
        if entry.attempt + 1 >= self.config.retry_max_attempts:
            self.kernel.stats.record_timeout()
            self._settle(message_id)
            return
        entry.attempt += 1
        self.kernel.stats.record_retry()
        self.kernel.send(entry.message, context=entry.context)
        self._arm(entry)

    def _settle(self, message_id: str) -> None:
        """Drop the entry (if still held) and release its context token."""
        entry = self.pending.pop(message_id, None)
        if entry is not None and entry.context is not None:
            self.kernel.release(entry.context)

    def _on_ack(self, peer: Optional[Peer], message: Message,
                context: Optional[ExchangeContext]) -> None:
        """The sender's ACK arrival: resolve the pending envelope.

        Idempotent under duplication — a retransmitted original
        produces multiple ACKs carrying the same message id, and every
        one after the first finds the table entry already gone.
        """
        self._settle(message.message_id)
