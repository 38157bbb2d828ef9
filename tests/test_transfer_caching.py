"""Tests for in-network block caching (hop-by-hop repair)."""

import pytest

from repro.core import DiffusionConfig
from repro.testbed import ideal_line
from repro.transfer import (
    BlockCacheFilter,
    BlockReceiver,
    BlockSender,
    split_object,
)


def fast_config():
    return DiffusionConfig(
        interest_interval=10.0,
        gradient_timeout=30.0,
        interest_jitter=0.1,
        reinforcement_jitter=0.05,
    )


def make_cached_transfer(data, hops=3, loss=0.0, cache_nodes=(1, 2), **recv_kwargs):
    sim, net, nodes, apis = ideal_line(hops, config=fast_config(), loss=loss, seed=11)
    caches = {i: BlockCacheFilter(nodes[i]) for i in cache_nodes}
    done = []
    receiver = BlockReceiver(
        apis[0], "obj-1",
        on_complete=lambda p, s: done.append((p, s)),
        quiet_timeout=recv_kwargs.pop("quiet_timeout", 3.0),
        **recv_kwargs,
    )
    sender = BlockSender(apis[hops], block_interval=0.2)
    sim.schedule(1.0, sender.offer, split_object("obj-1", data), 0.0)
    return sim, net, nodes, sender, receiver, caches, done


class TestCachePopulation:
    def test_blocks_cached_as_they_pass(self):
        data = bytes(500)
        sim, net, nodes, sender, receiver, caches, done = make_cached_transfer(data)
        sim.run(until=60.0)
        assert done
        obj = split_object("x", data)
        for cache in caches.values():
            assert cache.cached_blocks("obj-1") == list(range(obj.block_count))

    def test_capacity_bounded_lru(self):
        data = bytes(64 * 20)  # 20 blocks
        sim2, net2, nodes2, sender2, receiver2, caches2, done2 = (
            make_cached_transfer(data, cache_nodes=())
        )
        cache = BlockCacheFilter(nodes2[1], capacity=4)
        sim2.run(until=60.0)
        assert len(cache) <= 4
        # LRU keeps the most recent blocks.
        kept = cache.cached_blocks("obj-1")
        assert kept == sorted(kept)
        assert kept[-1] == split_object("x", data).block_count - 1

    def test_invalid_capacity(self):
        sim, net, nodes, apis = ideal_line(1, config=fast_config())
        with pytest.raises(ValueError):
            BlockCacheFilter(nodes[0], capacity=0)


class TestLocalRepair:
    def test_repair_served_from_cache_not_sender(self):
        data = bytes(i % 256 for i in range(640))  # 10 blocks
        sim, net, nodes, sender, receiver, caches, done = make_cached_transfer(data)
        # Sever the receiver's link mid-stream, then restore: blocks are
        # lost at the last hop but cached at node 1.
        sim.schedule(2.3, net.disconnect, 1, 0)
        sim.schedule(4.5, net.connect, 1, 0)
        sim.run(until=120.0)
        assert done, f"missing {receiver.missing_blocks()}"
        assert done[0][0] == data
        cache1 = caches[1]
        assert cache1.repairs_served_locally >= 1
        # The sender never saw those repair requests.
        assert sender.repairs_served == 0 or (
            cache1.requests_absorbed + cache1.requests_trimmed >= 1
        )

    def test_request_trimmed_when_cache_partial(self):
        data = bytes(640)  # 10 blocks
        sim, net, nodes, sender, receiver, caches, done = (
            make_cached_transfer(data, cache_nodes=())
        )
        cache = BlockCacheFilter(nodes[1], capacity=3)  # holds only a few
        sim.schedule(2.3, net.disconnect, 1, 0)
        sim.schedule(4.5, net.connect, 1, 0)
        sim.run(until=180.0)
        assert done
        # With only 3 cached blocks, some requests were trimmed and the
        # remainder answered by the sender.
        assert cache.requests_trimmed + cache.requests_absorbed >= 1

    def test_status_probes_pass_through_to_sender(self):
        # Receiver that heard nothing sends empty probes; caches must
        # not absorb them.
        data = bytes(200)
        sim, net, nodes, sender, receiver, caches, done = make_cached_transfer(
            data, quiet_timeout=2.0
        )
        # Cut the stream off entirely before it starts; probe must reach
        # the sender once the link heals.
        net.disconnect(2, 3)
        sim.schedule(10.0, net.connect, 2, 3)
        sim.run(until=120.0)
        assert done
        assert done[0][0] == data


class TestEndToEndWithLoss:
    def test_caching_reduces_sender_repairs(self):
        data = bytes(i % 256 for i in range(1280))  # 20 blocks

        def run(with_caches):
            sim, net, nodes, sender, receiver, caches, done = (
                make_cached_transfer(
                    data,
                    loss=0.12,
                    cache_nodes=(1, 2) if with_caches else (),
                    max_repair_rounds=30,
                )
            )
            sim.run(until=900.0)
            return sender.repairs_served, bool(done)

        cached_repairs, cached_done = run(True)
        plain_repairs, plain_done = run(False)
        assert cached_done
        assert cached_repairs <= plain_repairs
