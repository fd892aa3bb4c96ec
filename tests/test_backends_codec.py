"""Wire codec round-trips for the protocol's message vocabulary."""

import json
import struct

import pytest

from repro.net.backends import codec
from repro.fuse.messages import (
    FuseLinkList,
    GroupCreateRequest,
    HardNotification,
    InstallChecking,
)
from repro.net.message import Message
from repro.overlay.skipnet.messages import (
    OverlayPing,
    RouteEnvelope,
)


def _frame(envelope):
    body = json.dumps(envelope).encode()
    return struct.pack(">I", len(body)) + body


#: Data-frame message bodies a hostile peer can send: a non-string type
#: tag, a field table that is not a JSON object, and mangled tuple /
#: int-key tags inside a field value.
BAD_MESSAGE_BODIES = [
    {"__m__": ["x"], "f": {}},
    {"__m__": {}, "f": {}},
    {"__m__": "HardNotification", "f": []},
    {"__m__": "HardNotification", "f": "x"},
    {"__m__": "HardNotification", "f": 1},
    {"__m__": "HardNotification", "f": None},
    {"__m__": "RouteEnvelope", "f": {"payload": {"__t__": 1}}},
    {"__m__": "RouteEnvelope", "f": {"payload": {"__ik__": ["a"], "a": 1}}},
    {"__m__": "RouteEnvelope", "f": {"payload": {"__ik__": [[1]]}}},
]


def roundtrip(message, src=3, dst=7, seq=42):
    frame = codec.encode_message(src, dst, seq, message)
    kind, rsrc, rdst, rseq, decoded = codec.decode_frame(frame)
    assert (kind, rsrc, rdst, rseq) == ("m", src, dst, seq)
    return decoded


class TestRoundTrip:
    def test_simple_fields_and_sender_stamp(self):
        msg = HardNotification(fuse_id="fuse-node-00001-1-abcd1234", reason="link-timeout")
        out = roundtrip(msg)
        assert type(out) is HardNotification
        assert out.fuse_id == msg.fuse_id and out.reason == msg.reason
        # The envelope's src stamps the sender, like the sim's stamp-on-copy.
        assert out.sender == 3
        assert msg.sender is None  # caller's object untouched

    def test_tuple_fields_survive(self):
        msg = GroupCreateRequest(
            fuse_id="fuse-x", root_name="node-00001", member_names=("node-00002", "node-00003")
        )
        out = roundtrip(msg)
        assert out.member_names == ("node-00002", "node-00003")
        assert isinstance(out.member_names, tuple)

    def test_int_keyed_dict_fields_survive(self):
        msg = FuseLinkList(groups={"fuse-a": 3, "fuse-b": 9})
        out = roundtrip(msg)
        assert out.groups == {"fuse-a": 3, "fuse-b": 9}

    def test_nested_message_route_envelope(self):
        inner = InstallChecking(
            fuse_id="fuse-y", seq=2, member_name="node-00004", root_name="node-00001"
        )
        env = RouteEnvelope(dest_name="node-00004", payload=inner, origin=1)
        out = roundtrip(env, src=1, dst=9)
        assert type(out) is RouteEnvelope
        assert out.dest_name == "node-00004"
        assert type(out.payload) is InstallChecking
        assert out.payload.fuse_id == "fuse-y" and out.payload.seq == 2
        assert out.sender == 1

    def test_liveness_ping_payload(self):
        ping = OverlayPing(nonce=17, payload={"fuse": {"hash": "ab12cd34"}})
        out = roundtrip(ping)
        assert out.nonce == 17
        assert out.payload == {"fuse": {"hash": "ab12cd34"}}
        assert out.is_liveness  # class attribute, not a wire field

    def test_ack_frame(self):
        frame = codec.encode_ack(7, 3, 42)
        kind, src, dst, seq, message = codec.decode_frame(frame)
        assert (kind, src, dst, seq, message) == ("a", 7, 3, 42, None)


class TestMalformedFrames:
    def test_short_frame(self):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(b"\x00\x01")

    def test_torn_frame(self):
        frame = codec.encode_ack(1, 2, 3)
        with pytest.raises(codec.CodecError):
            codec.decode_frame(frame[:-2])

    def test_garbage_body(self):
        import struct

        body = b"not json at all"
        with pytest.raises(codec.CodecError):
            codec.decode_frame(struct.pack(">I", len(body)) + body)

    def test_unknown_message_type(self):
        frame = codec.encode_message(1, 2, 3, HardNotification(fuse_id="f", reason="r"))
        tampered = frame.replace(b"HardNotification", b"NoSuchMessageType")
        import struct

        body = tampered[4:]
        tampered = struct.pack(">I", len(body)) + body
        with pytest.raises(codec.CodecError):
            codec.decode_frame(tampered)

    @pytest.mark.parametrize("field", ["s", "d", "q"])
    @pytest.mark.parametrize("bad", [{}, "x", None, [1], True, 1.5])
    def test_envelope_ids_must_be_int(self, field, bad):
        envelope = {"k": "a", "s": 7, "d": 3, "q": 42}
        envelope[field] = bad
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame(envelope))

    @pytest.mark.parametrize("body", BAD_MESSAGE_BODIES)
    def test_message_body_must_be_well_formed(self, body):
        with pytest.raises(codec.CodecError):
            codec.decode_frame(_frame({"k": "m", "s": 1, "d": 2, "q": 3, "m": body}))

    def test_ack_with_dict_src_is_a_dropped_datagram(self):
        """Regression: an ack whose ``s`` is ``{}`` used to decode and then
        raise TypeError (unhashable key) inside the receive loop."""
        from repro.net.backends.asynckernel import AsyncioKernel
        from repro.net.backends.livenet import LiveNetwork

        kernel = AsyncioKernel(seed=1)
        net = LiveNetwork(kernel)
        try:
            net._on_datagram(3, _frame({"k": "a", "s": {}, "d": 3, "q": 42}))
        finally:
            net.close()
            kernel.close()

    def test_malformed_message_body_is_a_dropped_datagram(self):
        """Regression: a non-string ``__m__`` tag raised TypeError, and a
        non-object ``f`` AttributeError, inside the receive loop."""
        from repro.net.backends.asynckernel import AsyncioKernel
        from repro.net.backends.livenet import LiveNetwork

        kernel = AsyncioKernel(seed=1)
        net = LiveNetwork(kernel)
        acks = []
        # Stand-ins for node 2's host and socket, so a frame that decodes
        # is accepted and acked rather than dropped for lack of a receiver.
        net._hosts[2] = object()
        net._transports[2] = object()
        net._sendto = lambda src, dst, frame: acks.append(frame)
        try:
            good = codec.encode_message(1, 2, 3, HardNotification(fuse_id="f", reason="r"))
            net._on_datagram(2, good)
            assert len(acks) == 1
            for q, body in enumerate(BAD_MESSAGE_BODIES, start=4):
                net._on_datagram(2, _frame({"k": "m", "s": 1, "d": 2, "q": q, "m": body}))
            assert len(acks) == 1
        finally:
            del net._hosts[2], net._transports[2]
            net.close()
            kernel.close()

    def test_unencodable_value_raises(self):
        class Weird(Message):
            __slots__ = ("blob",)

            def __init__(self):
                self.blob = object()

        with pytest.raises(codec.CodecError):
            codec.encode_message(1, 2, 3, Weird())


def test_registry_covers_wire_messages():
    reg = codec.message_registry()
    for name in (
        "OverlayPing", "OverlayPingAck", "RouteEnvelope", "JoinProbe",
        "GroupCreateRequest", "InstallChecking", "SoftNotification",
        "HardNotification", "GroupRepairRequest", "FuseLinkList",
        "RpcRequest", "RpcReply",
    ):
        assert name in reg, name
