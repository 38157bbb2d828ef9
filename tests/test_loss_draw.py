"""The channel-loss draw over one Figure 8 run: even, and independent
across the receivers of one fragment and along one link.

The draw of a reception is ``u = mix * key mod 2**64 / 2**64``, with
``mix = splitmix64(hash((seed, src, start)))`` per fragment and ``key``
the receiver lane's; a reception is lost iff ``u >= prr``.  The ``fig8``
preset's default run at seed 1 (the ISI testbed, 1800 s) makes 75,819
draws.  Every bound below is five standard errors of its statistic
under independent uniform draws, computed from the sample count the
run produced.
"""

from collections import Counter, defaultdict
from statistics import correlation

import pytest

from repro.radio.channel import Channel
from repro.shard import ShardPlan, run_oracle
from repro.sim.rng import splitmix64


@pytest.fixture(scope="module")
def draws():
    """(src, dst, start, u) per reception that reached the loss draw,
    in finalization order, and the run's channels."""
    recorded, channels = [], set()
    finish = Channel._finish_transmission

    def record(self, lanes, tx, on_end):
        channels.add(self)
        mix = splitmix64(hash((self._loss_seed, tx.src, tx.start)))
        for node_id, modem, in_progress, prr, key, _ in lanes:
            reception = in_progress.get(tx.seqno)
            if (
                reception is not None and reception[1] is None
                and not (modem.transmitting or modem.sleeping)
            ):
                u = (mix * key % 2**64) / 2**64
                recorded.append((tx.src, node_id, tx.start, u, prr))
        finish(self, lanes, tx, on_end)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Channel, "_finish_transmission", record)
        run_oracle(ShardPlan.named("fig8", {}, 1))
    return recorded, channels


def test_recorded_draws_are_the_verdicts(draws):
    recorded, channels = draws
    assert len(recorded) > 50_000
    predicted = sum(u >= prr for *_, u, prr in recorded)
    assert predicted == sum(c.fragments_lost for c in channels)


def test_deciles_are_even(draws):
    """Each decile's share is binomial: standard error sqrt(0.09 / n),
    0.0011 at n = 75,819."""
    recorded, _ = draws
    n = len(recorded)
    counts = Counter(int(u * 10) for *_, u, _ in recorded)
    bound = 5 * (0.09 / n) ** 0.5
    assert all(abs(counts[d] / n - 0.1) <= bound for d in range(10))


def _neighbours_in(groups):
    """Consecutive pairs of draws within each group."""
    return [
        (a, b) for group in groups.values()
        for (_, a), (_, b) in zip(group, group[1:])
    ]


def _uncorrelated(pairs):
    """The correlation's standard error is 1 / sqrt(m) over m pairs."""
    xs, ys = zip(*pairs)
    return abs(correlation(xs, ys)) <= 5 / len(xs) ** 0.5


def _offsets_even(groups):
    """On each pair of group members seen at least 100 times in a row,
    the offset ``b - a mod 1`` spreads evenly over ten bins: the
    chi-square sum over P such pairs has 9P degrees of freedom, mean
    9P and standard deviation sqrt(18P)."""
    offsets = defaultdict(list)
    for group in groups.values():
        for (i, a), (j, b) in zip(group, group[1:]):
            offsets[i, j].append((b - a) % 1.0)
    chi2, pairs = 0.0, 0
    for values in offsets.values():
        if len(values) < 100:
            continue
        pairs += 1
        expected = len(values) / 10
        bins = Counter(int(v * 10) for v in values)
        chi2 += sum((bins[b] - expected) ** 2 / expected for b in range(10))
    assert pairs >= 30
    return chi2 <= 9 * pairs + 5 * (18 * pairs) ** 0.5


def test_receivers_of_one_fragment_draw_independently(draws):
    """Across the receivers of one fragment (consecutive lanes, about
    65,000 pairs over 35 receiver pairs).  A draw that leaves two
    receivers a few fixed offsets apart, as hashing ``(key, start)``
    does, fails the offsets by a factor of 200; its pooled correlation
    fails on some runs only (-0.06 at seed 1, -0.005 at seed 2)."""
    recorded, _ = draws
    by_fragment = defaultdict(list)
    for src, dst, start, u, _ in recorded:
        by_fragment[src, start].append((dst, u))
    assert _uncorrelated(_neighbours_in(by_fragment))
    assert _offsets_even(by_fragment)


def test_one_link_draws_independently(draws):
    """Consecutive draws on each link (about 75,000 pairs over 99
    links)."""
    recorded, _ = draws
    by_link = defaultdict(list)
    for src, dst, start, u, _ in recorded:
        by_link[src, dst].append(((src, dst), u))
    assert _uncorrelated(_neighbours_in(by_link))
    assert _offsets_even(by_link)
