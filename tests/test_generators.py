import json
import random

import numpy as np
import pytest

from conftest import ref_gen_random
from divsel import generators
from divsel.core import Instance, Round, instance_stats, marginals, parse_instance, serialize_instance
from divsel.errors import ContractError, DimensionError, SizeError
from divsel.generators import family_entries, fcs_eta, fcs_kappa, gen_fcs, gen_fhc, gen_random


def round_payload(rnd: Round):
    return json.dumps([list(c.bits) for c in rnd])


class TestFHC:
    def test_d2_members_match_hand_construction(self):
        m1, m2 = gen_fhc(2)
        assert [[list(c.bits) for c in r] for r in m1.rounds] == [
            [[0], [0]],
            [[1], [1]],
        ]
        assert [[list(c.bits) for c in r] for r in m2.rounds] == [
            [[0], [0]],
            [[0, 1], [0, 1]],
        ]

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_shape_parameters(self, d):
        members = gen_fhc(d)
        assert len(members) == d
        for inst in members:
            assert inst.capacity == 2 * d
            assert inst.n == d
            assert inst.per_round_capacity == 2
            assert all(ck == 1.0 for ck in inst.c)

    def test_prefix_indistinguishability_is_byte_exact(self):
        members = gen_fhc(5)
        for m, inst_m in enumerate(members, start=1):
            for mp, inst_mp in enumerate(members, start=1):
                for i in range(min(m, mp)):
                    assert round_payload(inst_m.rounds[i]) == round_payload(inst_mp.rounds[i])

    def test_branching_round_differs(self):
        members = gen_fhc(4)
        for m in range(1, 4):
            assert round_payload(members[m - 1].rounds[m]) != round_payload(
                members[3].rounds[m]
            )

    def test_marginal_counts(self):
        assert marginals(gen_fhc(3)[2]) == [9, 6, 3]

    def test_optimum_at_least_d(self):
        from divsel.benchmark import solve_fluid

        for inst in gen_fhc(4):
            assert solve_fluid(inst).value >= 4.0 - 1e-7

    def test_d_must_be_positive(self):
        with pytest.raises(DimensionError):
            gen_fhc(0)


class TestFCS:
    @pytest.mark.parametrize("d", [3, 4, 8, 16, 27])
    def test_every_round_profile_is_all_ones(self, d):
        for inst in gen_fcs(d):
            for rnd in inst.rounds:
                assert rnd.attribute_counts(d) == [1] * d

    @pytest.mark.parametrize("d", [8, 27])
    def test_members_share_early_groups(self, d):
        members = gen_fcs(d)
        kappa, eta = fcs_kappa(d), fcs_eta(d)
        shared = kappa * eta
        for inst in members[1:]:
            for i in range(shared):
                assert round_payload(inst.rounds[i]) == round_payload(members[0].rounds[i])

    @pytest.mark.parametrize("d", [8, 27])
    def test_members_differ_in_last_group(self, d):
        members = gen_fcs(d)
        if len(members) < 2:
            pytest.skip("single-member family")
        last = members[0].n - 1
        assert round_payload(members[0].rounds[last]) != round_payload(members[1].rounds[last])

    def test_shape_parameters(self):
        d = 27
        members = gen_fcs(d)
        assert len(members) == fcs_kappa(d) == 3
        for inst in members:
            assert inst.capacity == d and inst.n == d and inst.per_round_capacity == 1

    def test_group_budget_stays_within_half(self):
        for d in (3, 8, 27, 64):
            kappa, eta = fcs_kappa(d), fcs_eta(d)
            assert kappa * eta <= d / 2 + kappa
            assert kappa * kappa * kappa <= d

    def test_optimum_bound(self):
        from divsel.benchmark import solve_fluid

        d = 8
        kappa = fcs_kappa(d)
        for inst in gen_fcs(d):
            assert solve_fluid(inst).value >= d / (8.0 * kappa) - 1e-7

    def test_stats_are_stationary(self):
        for inst in gen_fcs(8):
            stats = instance_stats(inst)
            assert stats.frak_b == 1.0 and stats.b_bar == 1

    def test_requires_d_at_least_three(self):
        with pytest.raises(DimensionError):
            gen_fcs(2)

    @pytest.mark.parametrize("d", [*range(3, 130), 216, 343, 512])
    def test_members_match_the_list_construction(self, d):
        """The CSR members are the ones the docstring's construction builds
        from lists of attribute tuples, down to the dtype of ``bits``."""
        kappa, eta = fcs_kappa(d), fcs_eta(d)
        subsets = [tuple(range(s, min(s + kappa, d))) for s in range(0, d, kappa)]
        collections = [subsets[m * kappa : (m + 1) * kappa] for m in range(kappa)]
        covered = [{k for sub in coll for k in sub} for coll in collections]
        early = [list(coll) + [(k,) for k in range(d) if k not in cov] for coll, cov in zip(collections, covered)]
        members = list(generators.fcs_members(d))
        assert len(members) == kappa
        for member, cov in zip(members, covered):
            complement = tuple(k for k in range(d) if k not in cov)
            late = ([complement] if complement else []) + [(k,) for k in sorted(cov)]
            rounds = [rnd for rnd in early for _ in range(eta)] + [late] * (d - kappa * eta)
            want = Instance.from_bit_lists(d, (1.0,) * d, d, rounds, per_round_capacity=1)
            assert member == want and member.bits.dtype == want.bits.dtype


class TestRandomFamily:
    def test_round_trips_through_parser(self):
        inst = gen_random(d=5, n=4, a=2, density=0.4, min_arrivals=2, c_max=3.0, seed=1)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_deterministic(self):
        kwargs = dict(d=6, n=5, a=1, density=0.3, min_arrivals=1, c_max=2.0, seed=99)
        assert gen_random(**kwargs) == gen_random(**kwargs)

    def test_full_density_makes_everyone_core(self):
        from divsel.core import is_core

        inst = gen_random(d=4, n=3, a=1, density=1.0, min_arrivals=1, c_max=1.0, seed=0)
        base = [c for c in inst.all_candidates() if c.popcount == 4]
        assert base  # padded singletons aside, draws carry every attribute
        assert all(is_core(c, 4) for c in base)

    def test_min_arrivals_guarantees_stats(self):
        inst = gen_random(d=5, n=6, a=2, density=0.2, min_arrivals=2, c_max=2.0, seed=7)
        stats = instance_stats(inst)
        assert stats.frak_b is not None
        assert all(lo >= 2 for lo in stats.b_lo)

    def test_capacity_consistency(self):
        inst = gen_random(d=3, n=7, a=3, density=0.5, min_arrivals=1, c_max=2.0, seed=4)
        assert inst.capacity == 21 and inst.per_round_capacity == 3

    def test_coefficients_have_exact_one(self):
        inst = gen_random(d=8, n=2, a=1, density=0.5, min_arrivals=1, c_max=4.0, seed=12)
        assert min(inst.c) == 1.0
        assert max(inst.c) <= 4.0

    def test_parameter_validation(self):
        with pytest.raises(DimensionError):
            gen_random(d=2, n=0, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=0)
        with pytest.raises(DimensionError):
            gen_random(d=2, n=1, a=1, density=0.0, min_arrivals=1, c_max=2.0, seed=0)
        for d in (0, -1):
            with pytest.raises(DimensionError):
                gen_random(d=d, n=1, a=1, density=0.5, min_arrivals=1, c_max=2.0, seed=0)


def assert_same_instance(got, want):
    """Equal arrays of equal dtype, and c equal bit for bit."""
    for name in ("round_ptr", "cand_ptr", "bits"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and np.array_equal(g, w), name
    assert [ck.hex() for ck in got.c] == [ck.hex() for ck in want.c]
    assert (got.d, got.capacity, got.per_round_capacity) == (want.d, want.capacity, want.per_round_capacity)


class TestRandomMatchesScalarLoop:
    @pytest.mark.parametrize("d", [1, 2, 7, 33, 64])
    @pytest.mark.parametrize("n", [1, 13])
    @pytest.mark.parametrize("density", [0.05, 1.0])
    @pytest.mark.parametrize("min_arrivals", [1, 3])
    def test_grid(self, d, n, density, min_arrivals):
        for seed in (0, 1, 29, -5, 2**40 + 7):
            kwargs = dict(d=d, n=n, a=2, density=density, min_arrivals=min_arrivals, c_max=3.0, seed=seed)
            assert_same_instance(gen_random(**kwargs), ref_gen_random(**kwargs))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_verify_shape(self, seed):
        kwargs = dict(d=32, n=1000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=seed)
        assert_same_instance(gen_random(**kwargs), ref_gen_random(**kwargs))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_online_stream_shape(self, seed):
        kwargs = dict(d=64, n=2000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=seed)
        assert_same_instance(gen_random(**kwargs), ref_gen_random(**kwargs))


def streams(seed):
    """random.Random(seed) and the numpy MT19937 gen_random draws from."""
    return random.Random(seed), generators._mt19937(seed)


class TestWordStream:
    """Each draw uses the words random.Random uses, and leaves both streams
    at the same word."""

    @pytest.mark.parametrize("seed", [0, 5, 2**63])
    def test_random(self, seed):
        rng, gen = streams(seed)
        assert np.random.Generator(gen).random(2000).tolist() == [rng.random() for _ in range(2000)]
        assert gen.random_raw() == rng.getrandbits(32)

    def test_randbelow_near_powers_of_two(self):
        bounds = [1, 2, 3] + [2**k + e for k in (2, 5, 16, 31, 32, 33, 63, 64, 100) for e in (-1, 0, 1)]
        rng, gen = streams(11)
        for n in bounds * 40:
            assert generators._randbelow(gen, n) == rng._randbelow(n), n
        assert gen.random_raw() == rng.getrandbits(32)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 17, 64, 257, 1000])
    def test_shuffle(self, m):
        rng, gen = streams(m)
        for _ in range(3):
            want = list(range(m))
            rng.shuffle(want)
            assert generators._shuffled(gen, m) == want
        assert gen.random_raw() == rng.getrandbits(32)

    def test_long_mixed_stream(self):
        # About 40,000 words: dozens of regenerations of the 624-word state.
        rng, gen = streams(2026)
        floats = np.random.Generator(gen)
        for step in range(3000):
            assert generators._randbelow(gen, step % 97 + 1) == rng._randbelow(step % 97 + 1)
            assert floats.random(step % 5).tolist() == [rng.random() for _ in range(step % 5)]
            want = list(range(step % 13))
            rng.shuffle(want)
            assert generators._shuffled(gen, step % 13) == want
        assert gen.random_raw() == rng.getrandbits(32)


class TestRandomSizeLimits:
    @pytest.mark.parametrize("d, n, min_arrivals", [(1, 3, 1), (1, 3, 5), (2, 4, 6), (3, 2, 4), (9, 3, 2)])
    def test_floor_never_exceeds_the_instance(self, d, n, min_arrivals):
        arrivals = n * d * min_arrivals
        cands = n * max(min_arrivals, d * (min_arrivals - max(2, d)))
        for seed in range(5):
            for density in (0.05, 1.0):
                inst = gen_random(d=d, n=n, a=1, density=density, min_arrivals=min_arrivals, c_max=2.0, seed=seed)
                assert inst.bits.size >= arrivals and inst.total_candidates >= cands

    def test_floor_is_checked_before_any_draw(self, monkeypatch):
        # 24 arrivals in at least 2 * max(4, 3 * (4 - 3)) = 8 candidates.
        kwargs = dict(d=3, n=2, a=1, density=0.5, min_arrivals=4, c_max=2.0, seed=0)
        need = 12 * 24 + 16 * 8
        monkeypatch.setattr(generators, "physical_memory", lambda: need)
        assert_same_instance(gen_random(**kwargs), ref_gen_random(**kwargs))

        def no_draw(seed):
            raise AssertionError("drew")

        monkeypatch.setattr(generators, "physical_memory", lambda: need - 1)
        monkeypatch.setattr(generators, "_mt19937", no_draw)
        with pytest.raises(SizeError, match="24 arrivals"):
            gen_random(**kwargs)

    def test_round_block_is_checked_before_it_is_drawn(self, monkeypatch):
        d, seed = 64, 3
        base = random.Random(seed).randint(1, d)
        assert 9 * base * d >= 12 * d + 16  # the floor passes at both limits
        kwargs = dict(d=d, n=1, a=1, density=0.2, min_arrivals=1, c_max=2.0, seed=seed)
        monkeypatch.setattr(generators, "physical_memory", lambda: 9 * base * d)
        assert_same_instance(gen_random(**kwargs), ref_gen_random(**kwargs))
        monkeypatch.setattr(generators, "physical_memory", lambda: 9 * base * d - 1)
        with pytest.raises(SizeError, match=f"round of {base} x {d} draws"):
            gen_random(**kwargs)


def test_random_instance_is_built_at_its_final_size():
    """The online-stream instance is filled in place: its int32 bits and
    int64 pointers are the arrays gen_random grew, and the traced peak stays
    within twice their bytes."""
    import tracemalloc

    kwargs = dict(d=64, n=2000, a=4, density=0.2, min_arrivals=1, c_max=2.0, seed=1)
    tracemalloc.start()
    try:
        inst = gen_random(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = (inst.round_ptr, inst.cand_ptr, inst.bits)
    assert all(arr.base is None for arr in arrays) and inst.bits.dtype == np.int32
    assert peak <= 2 * sum(arr.nbytes for arr in arrays)


class TestFamilyEntries:
    def test_closed_form_counts_every_attribute(self):
        for d in list(range(0, 21)) + [27, 64]:
            for family, gen, d_min in (("fhc", gen_fhc, 1), ("fcs", gen_fcs, 3)):
                built = sum(inst.bits.size for inst in gen(d)) if d >= d_min else 0
                assert family_entries(family, d) == built, (family, d)

    def test_absurd_dimension_counts_stay_exact_integers(self):
        d = 10**400  # d ** (1/3) would overflow a float
        assert family_entries("fcs", d) == d * d
        assert family_entries("fhc", d) > d**4 // 6

    def test_unknown_family(self):
        with pytest.raises(ContractError):
            family_entries("random", 8)
