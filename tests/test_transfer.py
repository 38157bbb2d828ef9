"""Tests for the reliable block-transfer scheme (paper Section 3.1's
'retransmission scheme for large, persistent data objects')."""

import pytest

from repro.core import DiffusionConfig
from repro.testbed import ideal_line
from repro.transfer import (
    BLOCK_PAYLOAD_BYTES,
    BlockReceiver,
    BlockSender,
    DataObject,
    split_object,
)
from repro.transfer.blocks import join_blocks
from repro.transfer.sender import decode_block_list, encode_block_list


def fast_config():
    return DiffusionConfig(
        interest_interval=10.0,
        gradient_timeout=30.0,
        interest_jitter=0.1,
        reinforcement_jitter=0.05,
    )


def make_transfer(
    data: bytes,
    hops: int = 3,
    loss: float = 0.0,
    quiet_timeout: float = 3.0,
    block_interval: float = 0.2,
    max_repair_rounds: int = 10,
):
    sim, net, nodes, apis = ideal_line(
        hops, config=fast_config(), loss=loss, seed=7
    )
    done = []
    receiver = BlockReceiver(
        apis[0],
        object_id="obj-1",
        on_complete=lambda payload, stats: done.append((payload, stats)),
        quiet_timeout=quiet_timeout,
        max_repair_rounds=max_repair_rounds,
    )
    sender = BlockSender(apis[hops], block_interval=block_interval)
    obj = split_object("obj-1", data)
    # Give interests a moment to establish gradients in both directions.
    sim.schedule(1.0, sender.offer, obj, 0.0)
    return sim, sender, receiver, done


class TestBlocks:
    def test_split_and_payloads(self):
        data = bytes(range(256)) * 2
        obj = split_object("x", data)
        assert obj.block_count == 8
        assert obj.block_payload(0) == data[:BLOCK_PAYLOAD_BYTES]
        assert join_blocks(
            [obj.block_payload(i) for i in range(obj.block_count)]
        ) == data

    def test_last_block_short(self):
        obj = split_object("x", b"a" * (BLOCK_PAYLOAD_BYTES + 10))
        assert obj.block_count == 2
        assert len(obj.block_payload(1)) == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_object("x", b"")

    def test_block_index_bounds(self):
        obj = split_object("x", b"abc")
        with pytest.raises(IndexError):
            obj.block_payload(1)

    def test_checksum_stable(self):
        assert split_object("x", b"abc").checksum() == split_object(
            "y", b"abc"
        ).checksum()

    def test_block_list_codec(self):
        indices = [5, 1, 900]
        assert decode_block_list(encode_block_list(indices)) == [1, 5, 900]
        with pytest.raises(ValueError):
            decode_block_list(b"\x01")


class TestLosslessTransfer:
    def test_object_delivered_intact(self):
        data = bytes(i % 251 for i in range(1000))
        sim, sender, receiver, done = make_transfer(data)
        sim.run(until=60.0)
        assert len(done) == 1
        payload, stats = done[0]
        assert payload == data
        assert stats.complete
        assert stats.blocks_received == split_object("z", data).block_count

    def test_no_repairs_needed_without_loss(self):
        data = bytes(500)
        sim, sender, receiver, done = make_transfer(data)
        sim.run(until=60.0)
        assert done[0][1].repair_rounds == 0
        assert sender.repairs_served == 0

    def test_single_block_object(self):
        sim, sender, receiver, done = make_transfer(b"tiny")
        sim.run(until=30.0)
        assert done[0][0] == b"tiny"


class TestLossyTransfer:
    def test_repair_recovers_all_blocks(self):
        data = bytes(i % 256 for i in range(2000))
        sim, sender, receiver, done = make_transfer(
            data, loss=0.12, quiet_timeout=3.0, max_repair_rounds=30
        )
        sim.run(until=900.0)
        assert len(done) == 1, f"missing: {receiver.missing_blocks()}"
        payload, stats = done[0]
        assert payload == data
        assert stats.repair_rounds >= 1
        assert sender.repairs_served >= 1

    def test_duplicates_counted_not_harmful(self):
        data = bytes(800)
        sim, sender, receiver, done = make_transfer(
            data, loss=0.10, quiet_timeout=3.0
        )
        sim.run(until=300.0)
        assert len(done) == 1
        assert done[0][0] == data

    def test_bounded_retries_give_up(self):
        # 100% loss beyond hop 1: the receiver must fail cleanly, not
        # spin forever.
        sim, net, nodes, apis = ideal_line(2, config=fast_config(), seed=3)
        done = []
        receiver = BlockReceiver(
            apis[0], "obj-1",
            on_complete=lambda p, s: done.append(p),
            quiet_timeout=1.0,
            max_repair_rounds=3,
        )
        sender = BlockSender(apis[2], block_interval=0.2)
        sim.schedule(1.0, sender.offer, split_object("obj-1", bytes(300)), 0.0)
        sim.schedule(2.0, net.disconnect, 0, 1)  # sever after setup
        sim.run(until=120.0)
        assert done == [] or len(done) == 1  # either early luck or failure
        if not done:
            assert receiver.failed
            assert receiver.stats.repair_rounds == 3

    def test_missing_blocks_reported(self):
        sim, net, nodes, apis = ideal_line(1, config=fast_config(), seed=3)
        receiver = BlockReceiver(
            apis[0], "obj-1", on_complete=lambda p, s: None, quiet_timeout=100.0
        )
        # No sender at all: nothing expected yet.
        sim.run(until=5.0)
        assert receiver.missing_blocks() == []
        assert receiver.stats.blocks_expected is None
