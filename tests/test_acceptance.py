"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance is pinned here; the exact-arithmetic criteria use equality
with zero, the Monte Carlo criterion uses three standard errors and an
absolute 0.02 cap, and the two long-running criteria carry wall-clock
budgets.
"""

import random
import time
from fractions import Fraction

from diagonal_effect import (
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    VerdictKind,
    WalkConfig,
    check_vanishing,
    classify_toric_point,
    exact_test,
    gens_common_mixture_families,
    gens_common_mixture_listed3,
    gens_common_toric_listed3,
    gens_diag_effect,
    gens_independence,
    ideal_equal,
    likelihood,
    mixture_point,
    mixture_to_toric,
    nonvanishing_variants_report,
    random_rational_point,
    sufficient_statistic,
    toric_ideal,
    toric_point,
    verify_connectivity,
)

from conftest import all_tables


def _diag(I, form=ModelForm.TORIC):
    return ModelSpec(ModelFamily.DIAGONAL_EFFECT, form, I)


def _common(I, form=ModelForm.TORIC):
    return ModelSpec(ModelFamily.COMMON_DIAGONAL_EFFECT, form, I)


def test_criterion_01_common_diag_toric_ideal_recomputation():
    start = time.monotonic()
    computed = toric_ideal(_common(3))
    listed = [inv.poly for inv in gens_common_toric_listed3()]
    equal = ideal_equal(computed, listed)
    elapsed = time.monotonic() - start
    assert equal, "recomputed common-diagonal ideal differs from the listed nine binomials"
    assert elapsed < 60.0, f"recomputation took {elapsed:.1f}s, budget is 60s"
    print(f"\nPASS criterion 1: common-diagonal toric ideal (9 generators) "
          f"ideal-equal to the listed binomials in {elapsed:.2f}s")


def test_criterion_02_diag_effect_invariant_count():
    gens = gens_diag_effect(3)
    assert len(gens) == 1, f"expected exactly 1 generator for I=3, got {len(gens)}"
    computed = toric_ideal(_diag(3))
    assert ideal_equal(computed, [inv.poly for inv in gens])
    print("\nPASS criterion 2: diagonal-effect I=3 has exactly 1 invariant "
          "and the recomputed ideal matches it")


def test_criterion_03_independence_baseline():
    computed = toric_ideal(ModelSpec(ModelFamily.INDEPENDENCE, ModelForm.TORIC, 2))
    minors = [inv.poly for inv in gens_independence(2)]
    assert len(computed) == 1 and len(minors) == 1
    assert ideal_equal(computed, minors)
    print("\nPASS criterion 3: independence I=2 ideal equals the single 2x2 minor")


def test_criterion_04_diag_effect_vanishing_both_forms():
    checked = 0
    for I in (3, 4, 5):
        gens = gens_diag_effect(I)
        for seed in range(100):
            toric_params = random_rational_point(_diag(I), seed)
            point, _ = toric_point(toric_params)
            report = check_vanishing(gens, point)
            assert report.all_zero, f"I={I} seed={seed} toric: {report.summary()}"
            mix_params = random_rational_point(_diag(I, ModelForm.MIXTURE), seed)
            report = check_vanishing(gens, mixture_point(mix_params))
            assert report.all_zero, f"I={I} seed={seed} mixture: {report.summary()}"
            checked += 2 * len(gens)
    print(f"\nPASS criterion 4: diagonal-effect generators vanish exactly on both "
          f"forms, I in {{3,4,5}}, 100 seeds each ({checked} evaluations)")


def test_criterion_05_common_mixture_vanishing_with_typo_protocol():
    # suspected-typo protocol first: the two rejected sign variants fail,
    # one sign flip each restores vanishing; nothing is adjusted silently
    reports = nonvanishing_variants_report()
    for rep in reports:
        assert rep["variant_value"] != 0 and rep["emitted_value"] == 0
        print(f"\n  suspected transcription error in {rep['name']}: monomial "
              f"{rep['suspect_monomial']} sign variant gives {rep['variant_value']}, "
              f"emitted form vanishes")

    listed = gens_common_mixture_listed3()
    families3 = gens_common_mixture_families(3)
    for seed in range(100):
        point = mixture_point(random_rational_point(_common(3, ModelForm.MIXTURE), seed))
        for batch in (listed, families3):
            report = check_vanishing(batch, point)
            assert report.all_zero, f"I=3 seed={seed}: {report.summary()}"
    for I in (4, 5):
        families = gens_common_mixture_families(I)
        for seed in range(100):
            point = mixture_point(random_rational_point(_common(I, ModelForm.MIXTURE), seed))
            report = check_vanishing(families, point)
            assert report.all_zero, f"I={I} seed={seed}: {report.summary()}"
    print("PASS criterion 5: 20 listed polynomials and all structured families "
          "vanish exactly at common-diagonal mixture points, I in {3,4,5}, 100 seeds")


def test_criterion_06_membership_classifier():
    third = Fraction(1, 3)
    from diagonal_effect import ToricParams, ToricOnlyCase

    worked = ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(2, 2, 2))
    verdict = classify_toric_point(worked)
    assert verdict.kind is VerdictKind.IN_BOTH_WITH_WITNESS
    assert verdict.witness.alpha == Fraction(3, 4)
    assert mixture_point(verdict.witness) == toric_point(worked)[0]

    deficit = ToricParams(zeta_r=(1, 1, 1), zeta_c=(1, 1, 1), zeta_g=(Fraction(1, 2), 1, 1))
    verdict = classify_toric_point(deficit)
    assert verdict.case is ToricOnlyCase.NORMALIZER_DEFICIT

    unit = ToricParams(zeta_r=(1, 2, 3), zeta_c=(1, 1, 2), zeta_g=(1, 1, 1))
    verdict = classify_toric_point(unit)
    assert verdict.kind is VerdictKind.IN_BOTH_WITH_WITNESS and verdict.witness.alpha == 1

    for seed in range(1000):
        params = random_rational_point(_diag(3), seed)
        verdict = classify_toric_point(params)
        n, nt = verdict.norms.N, verdict.norms.N_T
        if verdict.kind is VerdictKind.IN_BOTH_WITH_WITNESS:
            w = verdict.witness
            assert 0 < w.alpha <= 1
            assert sum(w.d) == 1 and all(x >= 0 for x in w.d)
            assert mixture_point(w) == toric_point(params)[0]
            assert nt >= n and all(g >= 1 for g in params.zeta_g) or nt == n
        else:
            assert verdict.case is not None
            if verdict.case.value == "i":
                assert nt < n
            elif verdict.case.value == "ii":
                assert nt == n and any(g != 1 for g in params.zeta_g)
            else:
                assert nt > n and any(g < 1 for g in params.zeta_g)
    print("\nPASS criterion 6: classifier worked examples and 1000-seed "
          "trichotomy with exact witness recomposition")


def test_criterion_07_mixture_to_toric_round_trip():
    for seed in range(1000):
        m = random_rational_point(_diag(3, ModelForm.MIXTURE), seed)
        toric = mixture_to_toric(m)
        table, norms = toric_point(toric)
        assert table == mixture_point(m), f"seed {seed}: round trip not bit-identical"
        assert norms.N_T == 1
    print("\nPASS criterion 7: 1000 mixture points round-trip through toric "
          "parameters to bit-identical probability tables")


def test_criterion_08_connectivity_desk_scale():
    start = time.monotonic()
    reports = []
    for family in (ModelFamily.DIAGONAL_EFFECT, ModelFamily.COMMON_DIAGONAL_EFFECT):
        reports.append(verify_connectivity(family, 3, 6))
        reports.append(verify_connectivity(family, 4, 5))
        reports.append(verify_connectivity(family, 5, 4))
    elapsed = time.monotonic() - start
    for rep in reports:
        assert rep.all_connected, (
            f"disconnected fibers under {rep.family.value} I={rep.size}: "
            f"{rep.disconnected}"
        )
    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s, budget is 600s"
    total_fibers = sum(r.fibers_checked for r in reports)
    print(f"\nPASS criterion 8: every fiber connected (I=3 n<=6, I=4 n<=5, I=5 n<=4, both "
          f"models, {total_fibers} fibers) in {elapsed:.1f}s")


def test_criterion_09_exact_test_calibration():
    rng = random.Random("acceptance-calibration")
    checked = 0
    for trial in range(10):
        n = rng.randint(4, 8)
        cells = [[0] * 3 for _ in range(3)]
        for _ in range(n):
            cells[rng.randrange(3)][rng.randrange(3)] += 1
        table = CountTable.from_rows(cells)
        for model in (_diag(3), _common(3)):
            exact = exact_test(table, model, method="enumerate")
            # grow the chain until the implied effective sample size clears
            # the floor (degenerate fibers with p in {0,1} are exact already)
            for steps in (80_000, 400_000):
                config = WalkConfig(steps=steps, seed=1000 + trial)
                mcmc = exact_test(table, model, config, method="mcmc")
                p, se = mcmc.p_value, mcmc.monte_carlo_stderr
                if not (0 < p < 1) or se == 0 or p * (1 - p) / se ** 2 >= 10_000:
                    break
            gap = abs(mcmc.p_value - exact.p_value)
            assert gap <= max(3 * mcmc.monte_carlo_stderr, 1e-9), (
                f"trial {trial} {model.family.value}: gap {gap:.4f} exceeds "
                f"3 x stderr {3 * mcmc.monte_carlo_stderr:.4f}"
            )
            assert gap <= 0.02, f"trial {trial}: gap {gap:.4f} exceeds 0.02"
            p = mcmc.p_value
            if 0 < p < 1 and mcmc.monte_carlo_stderr > 0:
                ess = p * (1 - p) / mcmc.monte_carlo_stderr ** 2
                assert ess >= 10_000, f"trial {trial}: effective sample size {ess:.0f}"
            checked += 1
    print(f"\nPASS criterion 9: MCMC p-values within 3 standard errors and 0.02 "
          f"of enumerated exact p-values ({checked} table/model pairs)")


def test_criterion_10_sufficiency_property():
    diag_model = _diag(3)
    groups = {}
    for n in range(7):
        for t in all_tables(3, n):
            groups.setdefault(sufficient_statistic(t, diag_model), []).append(t)
    multi = [members for members in groups.values() if len(members) > 1]
    assert multi, "pool must contain nontrivial fibers"
    pairs = sum(len(m) - 1 for m in multi)
    for seed in range(100):
        toric_table, _ = toric_point(random_rational_point(diag_model, seed))
        mix_table = mixture_point(random_rational_point(_diag(3, ModelForm.MIXTURE), seed))
        for members in multi:
            base_t = likelihood(toric_table, members[0])
            base_m = likelihood(mix_table, members[0])
            for other in members[1:]:
                assert likelihood(toric_table, other) == base_t
                assert likelihood(mix_table, other) == base_m
    print(f"\nPASS criterion 10: equal-statistic tables (n<=6 pool, {pairs} "
          f"adjacent pairs across {len(multi)} fibers) have exactly equal "
          f"likelihoods under both parametrizations, 100 seeds")
