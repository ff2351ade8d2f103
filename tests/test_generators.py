import json

import pytest

from divsel.core import Round, instance_stats, marginals, parse_instance, serialize_instance
from divsel.errors import ContractError, DimensionError
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
