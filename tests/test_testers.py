import itertools
import math
import time

import numpy as np
import pytest

from mebkit import errors, geometry, meb, testers
from mebkit.errors import STEP_OPS, WORK_BUDGET, GuardError, meter
from mebkit.geometry import BallBody, BoxBody, bbox_frame, fits_in_translate, geom_tol
from mebkit.meb import exact_meb
from mebkit.seeding import derive_rng
from mebkit.testers import (
    _rounds,
    k_g_tester,
    k_g_work,
    one_s_tester,
    one_s_work,
    promise_label,
    scattered_points,
)

from oracles import coverable_oracle, meb_oracle, sampled_tester_oracle, scattered_oracle


def two_clusters(seed=0, gap=10.0):
    """Two unit-diameter clusters at mutual distance ``gap``."""
    rng = derive_rng(seed, "two-clusters")
    a = rng.uniform(-0.5, 0.5, (30, 2))
    b = rng.uniform(-0.5, 0.5, (30, 2)) + [gap, 0.0]
    return np.vstack([a, b])


def clusterable_cloud(seed=0):
    rng = derive_rng(seed, "cloud")
    dirs = rng.standard_normal((40, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs * rng.uniform(0, 0.99, 40)[:, None]  # strictly inside radius 1


# ---------------------------------------------------------------- one_s


def test_one_s_accepts_coverable_input_every_seed():
    P = clusterable_cloud()
    for seed in range(40):
        v = one_s_tester(P, BallBody(1.0), 0.3, 0.1, seed=seed)
        assert v.accepted
        assert v.witness is None


def test_one_s_round_budget():
    P = two_clusters()
    eps, delta = 0.4, 0.1
    budget = math.ceil(eps ** -3 * math.log(1 / delta))
    v = one_s_tester(P, BallBody(1.0), eps, delta, seed=1)
    assert v.rounds_used <= budget


def test_one_s_rejects_far_input_often():
    P = two_clusters()
    rejected = sum(
        not one_s_tester(P, BallBody(1.0), 0.4, 0.1, seed=s).accepted for s in range(60)
    )
    assert rejected >= 0.85 * 60


def test_one_s_witness_reverifies():
    P = two_clusters()
    for seed in range(30):
        v = one_s_tester(P, BallBody(1.0), 0.4, 0.1, seed=seed)
        if not v.accepted:
            assert not fits_in_translate(BallBody(1.0), v.witness)
            assert np.array_equal(P[v.witness_indices], v.witness)


def test_one_s_delta_one_is_vacuous_accept():
    P = two_clusters()
    v = one_s_tester(P, BallBody(1.0), 0.4, 1.0, seed=0)
    assert v.accepted and v.rounds_used == 0


def test_one_s_small_input_is_deterministic():
    # fewer than d+1 points: direct check, no sampling
    tight = np.array([[0.0, 0.0], [0.5, 0.0]])
    wide = np.array([[0.0, 0.0], [9.0, 0.0]])
    assert one_s_tester(tight, BallBody(1.0), 0.5, 0.5, seed=3).accepted
    v = one_s_tester(wide, BallBody(1.0), 0.5, 0.5, seed=3)
    assert not v.accepted and v.rounds_used == 0
    assert np.array_equal(v.witness, wide)


def test_one_s_box_body():
    P = np.array([[0.0, 0.0], [1.9, 0.0], [0.5, 1.9], [1.0, 1.0]])
    assert one_s_tester(P, BoxBody([1.0, 1.0]), 0.5, 0.1, seed=0).accepted


def test_one_s_rejects_bad_parameters():
    P = two_clusters()
    for eps, delta in ((0.0, 0.5), (1.5, 0.5), (0.5, 0.0), (0.5, 1.0001)):
        with pytest.raises(ValueError):
            one_s_tester(P, BallBody(1.0), eps, delta)


def no_rounds(monkeypatch):
    """Make any sampling round fail the test: guards must refuse before one."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a sampling round ran")

    monkeypatch.setattr(testers, "derive_rng", forbidden)


def test_round_budget_boundary(monkeypatch):
    rounds = math.ceil(1e5 * math.log(10.0))
    assert _rounds(1e-5, 0.1) == rounds
    assert k_g_work(2, 2, 1e-5, 0.1) == rounds * (STEP_OPS + 3 * 40 * 2) <= WORK_BUDGET
    assert k_g_work(2, 2, 1e-7, 0.1) > WORK_BUDGET
    assert _rounds(0.0, 0.5) == math.inf  # an underflowed eps ** (d + 1)
    assert _rounds(0.0, 1.0) == 0  # delta = 1 needs no round at all
    assert one_s_work(BallBody(1.0), 2, 0.5, 1.0) == STEP_OPS + 8 * 9 * 2  # a vacuous call is priced as one round
    no_rounds(monkeypatch)
    with pytest.raises(GuardError, match="budget"):
        k_g_tester(two_clusters(), BallBody(1.0), 2, c=1e-7, delta=0.1)
    with pytest.raises(GuardError):
        one_s_tester(two_clusters(), BallBody(1.0), 1e-200, 0.5)  # eps ** 3 underflows


def test_one_s_prices_rows_past_the_subset_kernel_as_one_walk():
    # d+1 <= SMALL_MEB_MAX keeps the subset price; a larger row is one exact_meb walk
    ball = BallBody(1.0)
    assert one_s_work(ball, 7, 0.5, 1.0) == STEP_OPS + 2**8 * 8**2 * 7
    assert one_s_work(ball, 8, 0.5, 1.0) == STEP_OPS + (20 + 3 * 9) * STEP_OPS // 4
    assert one_s_work(ball, 8, 0.38, 0.1) <= WORK_BUDGET < one_s_work(ball, 8, 0.35, 0.1)  # README's rows


@pytest.mark.parametrize("d", [3, 8, 11])
def test_one_s_prices_a_box_round_as_one_extent_comparison(d):
    box = BoxBody(np.ones(d))
    assert one_s_work(box, d, 0.5, 1.0) == STEP_OPS + (d + 1) * d
    assert one_s_work(box, d, 0.5, 1.0) < one_s_work(BallBody(1.0), d, 0.5, 1.0)


def test_one_s_box_calls_past_the_ball_price_run():
    # 2.9e4 rounds: over the budget as ball rounds, a tenth of it as box rounds
    P = derive_rng(0, "box-d8").uniform(-3.0, 3.0, (500, 8))
    with pytest.raises(GuardError, match="sampling rounds"):
        one_s_tester(P, BallBody(1.0), 0.35, 0.1)
    verdict = one_s_tester(P, BoxBody(np.ones(8)), 0.35, 0.1)
    assert not verdict.accepted and verdict.rounds_used == 1


def test_one_s_refuses_unbounded_rounds_up_front(monkeypatch):
    no_rounds(monkeypatch)
    P = derive_rng(0, "d10").standard_normal((30, 10))
    with pytest.raises(GuardError, match="sampling rounds"):  # 2.3e11 rounds
        one_s_tester(P, BallBody(1.0), 0.1, 0.1)
    with pytest.raises(GuardError):
        one_s_tester(two_clusters(), BallBody(1.0), 1e-200, 0.1)


def test_one_s_accepting_run_solves_no_exact_meb(monkeypatch):
    calls = []
    exact = meb.exact_meb

    def counted(P):
        calls.append(len(P))
        return exact(P)

    monkeypatch.setattr(meb, "exact_meb", counted)
    rng = derive_rng(0, "tripwire")
    dirs = rng.standard_normal((2000, 3))
    P = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * rng.uniform(0, 0.99, (2000, 1))
    v = one_s_tester(P, BallBody(1.0), 0.5, 0.1, seed=1)
    assert v.accepted and v.rounds_used == math.ceil(2**4 * math.log(10))
    assert calls == []  # every round is a 4-point row of the batched kernel


# ---------------------------------------------------------------- batched rounds against the loop


def cloud_with_strays(seed, n=60):
    """A cloud inside the unit disc plus 0-3 points far outside it, so a
    round rejects with moderate probability and the first rejecting round
    varies with the seed."""
    rng = derive_rng(seed, "strays")
    strays = seed % 4
    inside = rng.uniform(-0.6, 0.6, (n - strays, 2))
    return np.vstack([inside, rng.uniform(4.0, 6.0, (strays, 2))])


def ball_fits(radius):
    # the radius of S less its least corner: far from the origin the subtraction is exact
    return lambda S: meb_oracle(S - S.min(axis=0))[1] <= radius + 1e-9 * max(np.ptp(S, axis=0).max(), radius)


def box_fits(half):
    return lambda S: bool(np.all(np.ptp(S, axis=0) / 2.0 <= half + 1e-9 * max(np.ptp(S, axis=0).max(), half)))


def chunk_positions(rounds_used):
    """Labels for where a round sits in the chunks 1, 2-3, 4-7, ... ."""
    if rounds_used <= 2:
        return {f"round {rounds_used}"}
    return {"chunk start"} if rounds_used & (rounds_used - 1) == 0 else {"mid chunk"}


def assert_same_verdict(P, v, oracle):
    outcome, rounds_used, idx = oracle
    assert (v.outcome, v.rounds_used) == (outcome, rounds_used)
    if idx is None:
        assert v.witness is None and v.witness_indices is None
    else:
        assert v.witness_indices.tolist() == idx.tolist()
        assert np.array_equal(v.witness, P[idx])


@pytest.mark.parametrize("body", ["ball", "box"])
def test_one_s_batches_match_round_loop(body):
    eps, delta = 0.5, 0.1
    rounds = math.ceil(eps**-3 * math.log(1 / delta))
    seen = set()
    for seed in range(80):
        P = cloud_with_strays(seed)
        if body == "ball":
            tester_body, fits = BallBody(1.0), ball_fits(1.0)
        else:
            tester_body, fits = BoxBody([0.75, 0.75]), box_fits(0.75)
        v = one_s_tester(P, tester_body, eps, delta, seed=seed)
        oracle = sampled_tester_oracle(P, 3, rounds, "one-s-round", seed, fits)
        assert_same_verdict(P, v, oracle)
        seen |= chunk_positions(v.rounds_used) if not v.accepted else {"accept"}
    assert {"round 1", "round 2", "mid chunk", "accept"} <= seen


def test_one_s_batches_match_round_loop_past_the_largest_chunk(monkeypatch):
    # 682 rounds: chunks of 1, 2, ..., 256 cover 511, and one more of 171 follows
    monkeypatch.setattr(geometry, "BLOCK", 256 * 3 * 2)  # 256 rounds of 3 planar points
    P = clusterable_cloud(4)
    eps, delta = 0.15, 0.1
    rounds = math.ceil(eps**-3 * math.log(1 / delta))
    v = one_s_tester(P, BallBody(1.0), eps, delta, seed=4)
    assert_same_verdict(P, v, sampled_tester_oracle(P, 3, rounds, "one-s-round", 4, ball_fits(1.0)))
    assert rounds > 2 * 256


@pytest.mark.parametrize("mode", ["1s", "kg"])
def test_verdicts_do_not_depend_on_the_chunk_size(monkeypatch, mode):
    def run(seed):
        if mode == "1s":
            v = one_s_tester(cloud_with_strays(seed), BallBody(1.0), 0.5, 0.1, seed=seed)
        else:
            v = k_g_tester(three_groups(seed), BallBody(1.0), 2, c=0.1, delta=0.1, seed=seed)
        return v.outcome, v.rounds_used, None if v.witness_indices is None else v.witness_indices.tolist()

    width = 3 * 2 if mode == "1s" else 3 * 2 * 2  # a round's 3 points, or its 3 pairs, in the plane
    verdicts = {}
    for chunk_max in (1, 3, 256):
        monkeypatch.setattr(geometry, "BLOCK", chunk_max * width)
        verdicts[chunk_max] = [run(seed) for seed in range(24)]
    assert verdicts[1] == verdicts[3] == verdicts[256]
    assert {outcome for outcome, _, _ in verdicts[1]} == {"accept", "reject"}


def drawn_samples(n, size, rounds, seed=0):
    """The index rows ``_sampled_test`` draws for ``rounds`` accepting rounds."""
    rows = []

    def fits(samples):
        rows.extend(samples[:, :, 0].astype(int).tolist())
        return np.ones(len(samples), dtype=bool)

    P = np.arange(n, dtype=float)[:, None]  # each point's coordinate is its index
    assert testers._sampled_test(P, size, rounds, "sample-check", seed, fits, size).accepted
    return rows


@pytest.mark.parametrize("n, size", [(6, 3), (5, 5), (1000, 4), (2, 1)])
def test_every_sample_is_distinct_and_sorted(n, size):
    rows = drawn_samples(n, size, 600)
    assert len(rows) == 600
    assert all(len(row) == size and all(a < b for a, b in zip(row, row[1:])) for row in rows)
    assert all(0 <= row[0] and row[-1] < n for row in rows)


def test_samples_are_uniform_over_the_subsets():
    # chi-square over the C(6, 3) = 20 subsets, 19 degrees of freedom: 43.8 is its 0.999 quantile
    rows = drawn_samples(6, 3, 4000, seed=7)
    counts = {subset: 0 for subset in itertools.combinations(range(6), 3)}
    for row in rows:
        counts[tuple(row)] += 1
    expected = len(rows) / len(counts)
    chi2 = sum((count - expected) ** 2 / expected for count in counts.values())
    assert chi2 < 43.8


def test_a_trial_derives_one_stream(monkeypatch):
    # one generator serves every round of a trial, not one per round
    calls = []

    def counted(*args):
        calls.append(args)
        return derive_rng(*args)

    monkeypatch.setattr(testers, "derive_rng", counted)
    P = clusterable_cloud()
    v = one_s_tester(P, BallBody(1.0), 0.3, 0.1, seed=3)
    assert v.accepted and v.rounds_used == 86 and calls == [(3, "one-s-round")]
    calls.clear()
    v = k_g_tester(two_clusters(), BallBody(1.0), 2, c=0.05, delta=0.1, seed=4)
    assert v.accepted and v.rounds_used == 47 and calls == [(4, "k-g-round")]


def three_groups(seed):
    """Two clusters and a third one of 0-3 points: k = 2 groups fail only
    when a round draws one point of each."""
    rng = derive_rng(seed, "three-groups")
    return np.vstack([rng.uniform(-0.5, 0.5, (20, 2)),
                      rng.uniform(-0.5, 0.5, (20, 2)) + [6.0, 0.0],
                      rng.uniform(-0.5, 0.5, (seed % 4, 2)) + [0.0, 6.0]])


def k_g_clouds(k, seed):
    """(cloud, scale) for k translates of a body of size ``scale``, on points
    10 apart along a line: k clusters a quarter wide plus a (k+1)-th of 0-3
    points; k or k+1 line points plus two repeats (with k, every sample holds
    a repeat); or k line points plus a partner of the first at 2 (1 +- 1e-12)
    or 2 (1 +- 1e-6) along one axis, the diameter of the unit ball and the
    side of the unit box, so every sample is the whole cloud and only that
    pair can fit.  Clouds are scaled by 1e-6 or 1e6 or shifted by 1e6 in
    turn."""
    rng = derive_rng(seed, "k-g-clouds", k)
    d = 1 + (seed // 3) % 3
    u = rng.standard_normal(d)
    line = 10.0 * np.arange(k + 1)[:, None] * u / np.linalg.norm(u)
    kind, turn = seed % 3, (seed // 3) % 4
    if kind == 0:
        sizes = [8] * k + [seed % 4]
        P = np.vstack([c + rng.uniform(-0.125, 0.125, (m, d)) for c, m in zip(line, sizes)])
    elif kind == 1:
        distinct = line[:k + turn % 2]
        P = np.vstack([distinct, distinct[rng.integers(0, len(distinct), 2)]])
    else:
        gap = 2.0 * (1.0 + (1e-12, -1e-12, 1e-6, -1e-6)[turn])
        P = np.vstack([line[:k], line[:1] + gap * np.eye(d)[seed % d]])
    P = rng.permutation(P)
    scale, shift = ((1.0, 0.0), (1e-6, 0.0), (1e6, 0.0), (1.0, 1e6))[(seed // 12) % 4]
    return scale * P + shift, scale


@pytest.mark.parametrize("body", ["ball", "box"])
def test_k_g_batches_match_round_loop(body):
    c, delta = 0.1, 0.1
    rounds = math.ceil((1 / c) * math.log(1 / delta))

    def check(P, k, size, seed):
        if body == "ball":
            tester_body, fits = BallBody(size), ball_fits(size)
        else:
            tester_body, fits = BoxBody(np.full(P.shape[1], size)), box_fits(size)
        v = k_g_tester(P, tester_body, k, c=c, delta=delta, seed=seed)
        oracle = sampled_tester_oracle(P, k + 1, rounds, "k-g-round", seed,
                                       lambda S: coverable_oracle(S, k, fits))
        assert_same_verdict(P, v, oracle)
        return v

    seen = set()
    for seed in range(80):
        v = check(three_groups(seed), 2, 1.0, seed)
        seen |= chunk_positions(v.rounds_used) if not v.accepted else {"accept"}
    assert {"round 1", "round 2", "mid chunk", "accept"} <= seen
    outcomes = set()
    for k in (1, 2, 3, 8):
        for seed in range(48):
            P, scale = k_g_clouds(k, seed)
            outcomes.add((k, check(P, k, scale, seed).outcome))
    assert outcomes == {(k, o) for k in (1, 2, 3, 8) for o in ("accept", "reject")}


# ---------------------------------------------------------------- k_g


def test_k_g_refuses_unbounded_rounds_up_front(monkeypatch):
    no_rounds(monkeypatch)
    with pytest.raises(GuardError, match="sampling rounds"):
        k_g_tester(two_clusters(), BallBody(1.0), 2, c=1e-9, delta=0.1)


def test_k_g_accepts_k_coverable():
    P = two_clusters()  # coverable by 2 unit balls
    for seed in range(20):
        assert k_g_tester(P, BallBody(1.0), 2, c=0.5, delta=0.1, seed=seed).accepted


def test_k_g_far_points_reject_with_certainty():
    # P is exactly k+1 mutually far points: every round samples all of them
    k = 3
    P = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    for seed in range(10):
        v = k_g_tester(P, BallBody(1.0), k, c=0.9, delta=0.9, seed=seed)
        assert not v.accepted
        assert v.rounds_used == 1
        assert len(v.witness) == k + 1


def test_k_g_round_budget():
    P = two_clusters()
    c, delta = 0.25, 0.2
    v = k_g_tester(P, BallBody(1.0), 2, c=c, delta=delta, seed=5)
    assert v.rounds_used <= math.ceil((1 / c) * math.log(1 / delta))


def test_k_g_k1_matches_one_s_verdict_on_coverable():
    P = clusterable_cloud()
    kg = k_g_tester(P, BallBody(1.0), 1, c=0.3, delta=0.2, seed=2)
    os = one_s_tester(P, BallBody(1.0), 0.3, 0.2, seed=2)
    assert kg.accepted == os.accepted == True  # noqa: E712  (both testers complete)


def test_k_g_guard_and_validation():
    P = two_clusters()
    assert k_g_tester(P, BallBody(1.0), 9).rounds_used >= 1  # k is priced, not capped
    # 23,026 rounds of C(60, 2) pairs are over the budget; of C(3, 2) pairs they are not
    with pytest.raises(GuardError, match="budget"):
        k_g_tester(P, BallBody(1.0), 59, c=1e-4)
    assert k_g_work(2, 2, 1e-4, 0.1) <= WORK_BUDGET < k_g_work(2, 59, 1e-4, 0.1)
    with pytest.raises(ValueError):
        k_g_tester(P[:2], BallBody(1.0), 2)
    with pytest.raises(ValueError):
        k_g_tester(P, BallBody(1.0), 0)


def test_k_g_pair_blocks_change_nothing(monkeypatch):
    # chunks of one round, and kernel blocks of one pair, give the verdict, rounds and witness of
    # the default blocks: 30 far grid points and 12 near the origin reject after a seed-dependent
    # number of rounds
    grid = np.array([[10.0 * i, 10.0 * j] for i in range(6) for j in range(5)])
    P = np.vstack([grid, derive_rng(1, "pair-blocks").uniform(-0.05, 0.05, (12, 2))])
    for k, seed in ((3, 2), (9, 0), (9, 5)):
        whole = k_g_tester(P, BallBody(1.0), k, c=0.05, delta=0.1, seed=seed)
        monkeypatch.setattr(geometry, "BLOCK", 5)
        split = k_g_tester(P, BallBody(1.0), k, c=0.05, delta=0.1, seed=seed)
        monkeypatch.undo()
        assert whole.outcome == split.outcome == "reject"
        assert split.rounds_used == whole.rounds_used
        assert np.array_equal(split.witness_indices, whole.witness_indices)


def test_k_g_witness_reverifies():
    P = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    v = k_g_tester(P, BallBody(1.0), 2, c=0.9, delta=0.5, seed=0)
    assert not v.accepted
    # no pair of the witness fits a unit ball, so no split into 2 unit balls exists
    w = v.witness
    assert all(
        not fits_in_translate(BallBody(1.0), w[[i, j]])
        for i in range(3)
        for j in range(i + 1, 3)
    )


# ---------------------------------------------------------------- scattered


def test_scattered_collinear_example():
    P = np.array([[0.0], [1.0], [2.0], [3.0]])
    got = scattered_points(P, 2.0)
    assert got.count == 2
    assert got.exact


def test_scattered_all_separated():
    P = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    assert scattered_points(P, 2.0).count == 3


def test_scattered_indices_are_pairwise_far():
    rng = derive_rng(14, "scatter")
    P = rng.standard_normal((25, 2)) * 2
    got = scattered_points(P, 1.0)
    S = P[got.indices]
    gaps = np.linalg.norm(S[:, None] - S[None, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() >= 1.0 - 1e-9 * (1 + np.abs(P).max())


def test_scattered_matches_bruteforce_n20():
    for trial in range(5):
        rng = derive_rng(trial, "scatter-oracle")
        P = rng.standard_normal((20, 2)) * 2
        delta = float(rng.uniform(0.5, 2.5))
        assert scattered_points(P, delta).count == scattered_oracle(P, delta)


def test_scattered_antitone_in_delta():
    rng = derive_rng(9, "scatter-anti")
    P = rng.standard_normal((30, 2)) * 3
    counts = [scattered_points(P, dl).count for dl in (0.2, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_scattered_greedy_above_exact_limit():
    rng = derive_rng(22, "scatter-big")
    P = rng.standard_normal((80, 2)) * 5
    got = scattered_points(P, 1.0)
    assert not got.exact  # flagged lower bound
    S = P[got.indices]
    gaps = np.linalg.norm(S[:, None] - S[None, :], axis=2)
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() >= 1.0 - 1e-8


# ---------------------------------------------------------------- promise


def test_promise_yes_small_ball():
    P = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]])
    lbl = promise_label(P, 1, 1.0, 3, 50.0)
    assert lbl.yes_holds and not lbl.no_holds
    assert lbl.label == "YES"


def test_promise_no_scattered_triple():
    P = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    lbl = promise_label(P, 1, 0.1, 3, 10.0)
    assert lbl.no_holds and not lbl.yes_holds
    assert lbl.label == "NO"


def test_promise_violates():
    P = np.array([[0.0, 0.0], [4.0, 0.0], [8.0, 0.0]])
    lbl = promise_label(P, 1, 1.0, 3, 100.0)
    assert lbl.label == "VIOLATES"


def test_promise_both():
    P = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.4]])
    lbl = promise_label(P, 1, 1.0, 3, 0.3)
    assert lbl.label == "BOTH"


def test_promise_k1_agrees_with_exact_meb():
    for trial in range(15):
        rng = derive_rng(trial, "promise")
        P = rng.standard_normal((12, 2))
        eps = float(rng.uniform(0.5, 2.5))
        lbl = promise_label(P, 1, eps, 3, 1.0)
        assert lbl.yes_holds == (exact_meb(P).ball.radius <= eps + 1e-9 * (1 + eps))


def test_promise_k1_two_clusters():
    P = two_clusters()
    assert promise_label(P, 2, 1.0, 2, 9.0, ).yes_holds
    assert not promise_label(P, 2, 0.4, 2, 9.0).yes_holds  # each cluster needs r ~ .7


def test_promise_guard():
    # 201 repeated points: sum_{s <= 3} C(201, s) candidate balls price the enumeration at 1.6e9
    P = np.zeros((201, 2))
    start = time.perf_counter()
    with pytest.raises(GuardError, match="over the budget"):
        promise_label(P, 2, 1.0, 2, 1.0)
    assert time.perf_counter() - start < 1.0


def test_promise_cover_search_is_metered(monkeypatch):
    # 30 points 1 apart on a line, eps 0.5: every kept cover is a neighbouring
    # pair, so each state branches at most two ways; every state popped is a node
    P = np.arange(30.0)[:, None]
    assert promise_label(P, 15, 0.5, 1, 1.0).yes_holds
    assert not promise_label(P, 14, 0.5, 1, 1.0).yes_holds  # all 16,384 nodes
    assert promise_label(P, 25, 0.5, 1, 1.0).yes_holds  # 27 nodes, where sum_{j <= 25} 2^j would be refused
    monkeypatch.setattr(errors, "WORK_BUDGET", 16_384 * (STEP_OPS // 40))
    assert not promise_label(P, 14, 0.5, 1, 1.0).yes_holds
    monkeypatch.setattr(errors, "WORK_BUDGET", 16_383 * (STEP_OPS // 40))
    start = time.perf_counter()
    with pytest.raises(GuardError, match="exact 14-clustering of 30 points: .* over the budget"):
        promise_label(P, 14, 0.5, 1, 1.0)
    assert time.perf_counter() - start < 1.0


def test_promise_cover_search_meters_the_states_each_node_pushes():
    # up to 46 kept covers on one point: the states a node pushes are counted
    # as they are popped, so the work a node stays the same as c grows.  The
    # meter is pre-charged so that the search's 3,951st node is the budget's last.
    P = np.random.default_rng(2).uniform(-1.0, 1.0, (40, 2))
    frame, tol, last = bbox_frame(P)[0], geom_tol(P, 0.7), int(WORK_BUDGET) // (STEP_OPS // 40)

    def charged(nodes):
        charge = meter()
        charge(nodes * (STEP_OPS // 40), "earlier nodes", "none")
        return charge

    assert not testers._coverable(frame, 3, 0.7, tol, charged(last - 3_951))
    with pytest.raises(GuardError, match="exact 3-clustering of 40 points: .* over the budget"):
        testers._coverable(frame, 3, 0.7, tol, charged(last - 3_950))


def test_promise_sides_share_one_meter(monkeypatch):
    # 30 points 1 apart on a line: the cover search for k1 = 14 at eps 0.5
    # takes 16,384 nodes, and the search for 15 points 2 apart takes 15
    P = np.arange(30.0)[:, None]
    monkeypatch.setattr(errors, "WORK_BUDGET", 16_399 * (STEP_OPS // 40))
    assert promise_label(P, 14, 0.5, 15, 2.0).label == "NO"
    monkeypatch.setattr(errors, "WORK_BUDGET", 16_398 * (STEP_OPS // 40))
    assert promise_label(P, 14, 0.5, 1, 2.0).label == "NO"  # each side alone fits
    assert promise_label(P, 1, 0.5, 15, 2.0).label == "NO"
    with pytest.raises(GuardError, match="15 mutually far points of 30"):
        promise_label(P, 14, 0.5, 15, 2.0)


def test_promise_decides_a_forty_point_cloud_quickly():
    # a YES instance on which the first-fit partition search it replaced ran for 25 s
    P = np.random.default_rng(2).uniform(-1.0, 1.0, (40, 2))
    start = time.perf_counter()
    assert promise_label(P, 3, 0.9, 2, 10.0).yes_holds
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("pairs", [1, 7, 64, 1 << 16])  # one point a block, ragged blocks, one block
def test_far_row_blocks_equal_the_row_by_row_bits(monkeypatch, pairs):
    monkeypatch.setattr(geometry, "BLOCK", pairs)
    for seed in range(12):
        rng = derive_rng(seed, "far-rows")
        # numpy adds fewer than 8 squares in order, up to 128 in 8 partial sums, and more in two halves
        n, d = int(rng.integers(2, 40)), int(rng.integers(*((1, 9), (9, 129), (129, 300))[seed % 3]))
        P = rng.standard_normal((n, d)) + rng.uniform(-1.0, 1.0, d) * 10.0 ** rng.integers(0, 9)
        delta = float(rng.uniform(0.2, 3.0)) * math.sqrt(d)
        cut = delta - geom_tol(P, delta)
        rows = [int(sum(1 << j for j in np.flatnonzero(np.linalg.norm(P - p, axis=1) >= cut))) for p in P]
        assert testers._far_rows(P, delta) == rows


def test_promise_far_rows_are_priced_before_any_distance_row(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a distance row was computed")

    monkeypatch.setattr(testers, "distances", forbidden)
    monkeypatch.setattr(errors, "WORK_BUDGET", 6 * 6 * 2 - 1)  # one under n^2 d
    P = derive_rng(0, "scatter-guard").standard_normal((6, 2))
    with pytest.raises(GuardError, match="far rows of 6 points: .* over the budget"):
        promise_label(P, 1, 1.0, 2, 0.5)
    assert promise_label(P, 1, 1.0, 1, 0.5).no_holds  # k2 = 1 needs no rows


def test_promise_far_set_search_is_metered(monkeypatch):
    # no up-front bound prices this search: it ran past 60 s unmetered
    P = np.random.default_rng(0).uniform(-1.0, 1.0, (120, 2))
    monkeypatch.setattr(errors, "WORK_BUDGET", 1e7)  # 10^5 nodes at STEP_OPS / 40 each
    start = time.perf_counter()
    with pytest.raises(GuardError, match=r"17 mutually far points of 120: about 10\^7.0 .* over the budget"):
        promise_label(P, 1, 10.0, 17, 0.5)
    assert time.perf_counter() - start < 1.0


def test_scattered_searches_share_one_meter(monkeypatch):
    # 9 points 1 apart on a line, delta 2: the searches for 1..6 points take
    # 1 + 2 + 3 + 4 + 5 + 15 = 30 nodes, and the budget holds all of them
    P = np.arange(9.0)[:, None]
    assert scattered_points(P, 2.0).indices.tolist() == [0, 2, 4, 6, 8]
    monkeypatch.setattr(errors, "WORK_BUDGET", 30 * (STEP_OPS // 40))
    assert scattered_points(P, 2.0).count == 5
    monkeypatch.setattr(errors, "WORK_BUDGET", 29 * (STEP_OPS // 40))  # over it in the last, 15-node search
    with pytest.raises(GuardError, match="6 mutually far points of 9"):
        scattered_points(P, 2.0)


def test_promise_degenerate_counts():
    P = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert promise_label(P, 5, 0.01, 1, 0.5).label == "BOTH"  # singletons + vacuous
    assert not promise_label(P, 1, 0.1, 3, 0.1).no_holds  # k2 > n


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_promise_and_scattered_refuse_bad_lengths(bad):
    # NaN passes a "<= 0" check; it once labelled a cloud instead of failing
    P = derive_rng(0, "bad-lengths").standard_normal((10, 2))
    with pytest.raises(ValueError, match="positive and finite"):
        promise_label(P, 1, bad, 2, 1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        promise_label(P, 1, 1.0, 2, bad)
    with pytest.raises(ValueError, match="positive and finite"):
        scattered_points(P, bad)


# ---------------------------------------------------------------- farthest-first


def repeated_cloud(rng, n, m):
    """n points drawn with repetition from m distinct Gaussian points."""
    base = rng.standard_normal((m, 2)) * 2
    return base[rng.integers(m, size=n)]


def test_farthest_first_places_repeated_points():
    P = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    steps = list(testers._farthest_first(P))
    assert [i for i, _ in steps] == [0, 3, 1, 2]
    assert [gap for _, gap in steps] == [math.inf, pytest.approx(5.0 * math.sqrt(2)), 0.0, 0.0]


def test_farthest_first_is_a_traversal():
    for trial in range(10):
        rng = derive_rng(trial, "farthest-first")
        P = repeated_cloud(rng, 30, 12) if trial % 2 else rng.standard_normal((30, 3))
        steps = list(testers._farthest_first(P))
        order = [i for i, _ in steps]
        assert sorted(order) == list(range(len(P)))
        for k in range(1, len(P)):
            gap = np.linalg.norm(P[order[:k]] - P[order[k]], axis=1).min()
            assert steps[k][1] == pytest.approx(gap)
            assert steps[k][1] <= steps[k - 1][1]  # each step takes the farthest point left


def promise_cloud(rng, shape, n, d):
    """n points in d dimensions: repeated draws, a regular polygon (in the
    first two axes, d >= 2) or an integer grid, where many groups tie at eps."""
    if shape == "repeated":
        base = rng.standard_normal((int(rng.integers(2, 6)), d)) * 2
        return base[rng.integers(len(base), size=n)]
    if shape == "polygon":
        turn = 2 * np.pi * np.arange(n) / n
        return np.column_stack([np.cos(turn), np.sin(turn), np.zeros((n, d - 2))])
    return rng.integers(-2, 3, size=(n, d)).astype(float)


def test_promise_label_matches_oracles_on_repeated_points():
    for trial in range(60):
        shape = ("repeated", "polygon", "grid")[trial % 3]
        rng = derive_rng(trial, f"promise-{shape}")
        d = int(rng.integers(2 if shape == "polygon" else 1, 4))
        P = promise_cloud(rng, shape, int(rng.integers(3, 9)), d)
        k1, k2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        eps = float(rng.choice([0.5, math.sqrt(0.5), 1.0, rng.uniform(0.3, 2.0)]))  # grid ties, then any
        delta = float(rng.uniform(0.5, 3.0))
        lbl = promise_label(P, k1, eps, k2, delta)
        assert lbl.yes_holds == coverable_oracle(P, k1, lambda Q: meb_oracle(Q)[1] <= eps + 1e-12)
        assert lbl.no_holds == (scattered_oracle(P, delta) >= k2)


def test_scattered_matches_oracle_on_repeated_points():
    for trial in range(10):
        rng = derive_rng(trial, "scatter-repeats")
        P = repeated_cloud(rng, 20, int(rng.integers(3, 10)))
        delta = float(rng.uniform(0.5, 2.5))
        assert scattered_points(P, delta).count == scattered_oracle(P, delta)


def test_scattered_greedy_on_repeated_points():
    for trial in range(5):
        rng = derive_rng(trial, "scatter-greedy-repeats")
        base = rng.standard_normal((12, 2)) * 3
        P = np.vstack([base, base[rng.integers(12, size=70)]])  # every point repeats after the first 12
        got = scattered_points(P, 1.0)
        assert not got.exact
        assert len(set(got.indices.tolist())) == got.count <= scattered_oracle(base, 1.0)
        S = P[got.indices]
        gaps = np.linalg.norm(S[:, None] - S[None, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() >= 1.0 - 1e-8
