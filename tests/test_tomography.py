"""Inversion of correlators into the anticommutator kernel, and its failure modes."""

import csv
import io
import math

import numpy as np
import pytest

from udwtomo import detector, scenarios
from udwtomo.detector import (CorrelatorTable, correlator_table,
                              random_kernel_matrix, sample_table)
from udwtomo.config import validate_config
from udwtomo.errors import DephasingError, NoiseDominatedError, TangentDomainError
from udwtomo.kernels import FieldState, KernelMatrix, assemble_kernels
from udwtomo.numerics import fit_loglog_slope
from udwtomo.spacetime import Event, LatticeSpec, build_lattice
from udwtomo.tomography import TableReconstruction, reconstruct_table

FIELDS = ("i", "j", "H", "C", "causal", "dephasing_dominated", "condition", "ill_conditioned")


def table(n=2, zz=1.0, yy=0.0, z=1.0, yx=None):
    """Correlator table built by hand: every pair has the given zz and yy,
    ``z`` is shared or per detector, and ``yx`` maps 1-based (i, k) to
    <sy_i sx_k>, zero elsewhere."""
    yx_m = np.zeros((n, n))
    for (i, k), v in (yx or {}).items():
        yx_m[i - 1, k - 1] = v
    pairs = n * (n - 1) // 2
    return CorrelatorTable(z=np.broadcast_to(np.asarray(z, float), (n,)).copy(),
                           zz=np.full(pairs, float(zz)), yy=np.full(pairs, float(yy)), yx=yx_m)


def write_reconstruction(rec, E, path, h_true):
    """The roundtrip's reconstruction CSV of ``rec`` (every pair inverted),
    the true H of each pair read off the matrix ``h_true``."""
    scenarios._write_reconstruction(path, rec, E, h_true[rec.i - 1, rec.j - 1])


def reference(t, i, j):
    """The per-pair inversion, one pair at a time: (H, C, regime, flagged).

    C = (1/4) ln(P+ / P-), with P+- the products of 1 +- x_k over the third
    detectors k in ascending order, the spacelike term is math.atanh of
    yy/zz, and the errors are checked in the order: vanishing <sz> on a
    causal pair, first k outside the arctanh domain, fully dephased zz,
    noise-dominated yy/zz.
    """
    a, b = i - 1, j - 1
    q = a * (2 * t.n - a - 1) // 2 + b - a - 1  # row-major position of pair (i, j)
    others = np.array([k for k in range(t.n) if k not in (a, b)], dtype=int)
    flagged = abs(t.zz[q]) < 1e-6
    causal = bool(np.any(t.yx[a, others] != 0.0) or np.any(t.xy[others, b] != 0.0))
    c = 0.0
    if causal:
        zi, zj = float(t.z[a]), float(t.z[b])
        # <sz> vanishes where it is zero or so small that a ratio of its row
        # overflows
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            overflows = [np.isinf(np.delete(t.yx[r], r) / z).any() for r, z in ((a, zi), (b, zj))]
        if zi == 0.0 or zj == 0.0 or any(overflows):
            raise DephasingError(f"pair ({i},{j}): vanishing <sz> denominator")
        x = (t.yx[a, others] / zi) * (t.xy[others, b] / zj)
        for k, xk in zip(others, x):
            if abs(xk) >= 1.0:
                raise TangentDomainError(
                    f"pair ({i},{j}), correction term k={k + 1}: |product| = "
                    f"{abs(xk):.6g} >= 1 (some 2G approaches pi/2)", k=k + 1)
        c = float(0.25 * np.log(np.prod(1.0 + x) / np.prod(1.0 - x)))
    zz, yy = float(t.zz[q]), float(t.yy[q])
    if abs(zz) < 1e-300:
        raise DephasingError(f"pair ({i},{j}): <sz sz> = {zz:g} is fully dephased")
    ratio = yy / zz
    if abs(ratio) >= 1.0:
        raise NoiseDominatedError(
            f"pair ({i},{j}): |yy/zz| = {abs(ratio):.6g} >= 1, sampled correlators are "
            "noise dominated or zz and yy are equal to float precision", ratio=ratio)
    return 0.5 * math.atanh(ratio) - c, c, "causal" if causal else "spacelike", flagged


def flags(rec):
    """The flags cell of each pair: the names of its flags, joined by ";"."""
    return [";".join(name for name, on in (("dephasing_dominated", d), ("ill_conditioned", i))
                     if on)
            for d, i in zip(rec.dephasing_dominated.tolist(), rec.ill_conditioned.tolist())]


def same_bits(u, v):
    return np.float64(u).view(np.int64) == np.float64(v).view(np.int64)


def same_error(got, want):
    return (type(got) is type(want) and str(got) == str(want)
            and getattr(got, "k", None) == getattr(want, "k", None)
            and same_bits(getattr(got, "ratio", 0.0) or 0.0,
                          getattr(want, "ratio", 0.0) or 0.0))


def assert_same_reconstruction(got, want):
    """Every field bitwise, and the same failures in the same order."""
    for name in FIELDS:
        u, v = getattr(got, name), getattr(want, name)
        assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes(), name
    assert list(got.failures) == list(want.failures)
    for q, err in want.failures.items():
        assert same_error(got.failures[q], err)


def table_of(rec, r):
    """Table r of a stack's reconstruction, laid out as one table's."""
    P = rec.H.shape[-1]
    return TableReconstruction(
        *(getattr(rec, name)[r] for name in FIELDS),
        failures={q - r * P: err for q, err in rec.failures.items() if r * P <= q < (r + 1) * P})


@pytest.fixture
def exact_path(monkeypatch):
    """Every pair on the per-pair path (no series pairs), which the reference
    reproduces bit for bit."""
    monkeypatch.setattr(detector, "_SERIES_RADIUS", 0.0)


def check_against_reference(t):
    """Every pair of ``reconstruct_table(t)`` against the reference; returns
    the error classes met."""
    rec = reconstruct_table(t)
    met = set()
    for q, (i, j) in enumerate(zip(rec.i.tolist(), rec.j.tolist())):
        try:
            h, c, regime, flagged = reference(t, i, j)
        except (DephasingError, NoiseDominatedError, TangentDomainError) as want:
            met.add(type(want).__name__ + (" on <sz>" if "<sz>" in str(want) else ""))
            assert same_error(rec.failures[q], want), (rec.failures[q], want)
            assert math.isnan(rec.H[q]) and math.isnan(rec.C[q])
            continue
        assert q not in rec.failures
        assert same_bits(rec.H[q], h) and same_bits(rec.C[q], c), (i, j)
        assert rec.causal[q] == (regime == "causal")
        assert rec.dephasing_dominated[q] == flagged
    assert np.flatnonzero(~rec.ok).tolist() == list(rec.failures)
    return met


class TestOracle:
    @pytest.mark.usefixtures("exact_path")
    def test_exact_tables(self):
        for seed in range(30):
            n = 2 + seed % 6
            assert not check_against_reference(correlator_table(random_kernel_matrix(n, seed)))

    @pytest.mark.usefixtures("exact_path")
    def test_sampled_tables_fail_in_every_way(self):
        met = set()
        for seed in range(30):
            exact = correlator_table(random_kernel_matrix(2 + seed % 6, seed))
            for shots in (10, 20, 100):
                met |= check_against_reference(sample_table(exact, shots, seed))
        assert met == {"DephasingError on <sz>", "TangentDomainError",
                       "DephasingError", "NoiseDominatedError"}

    @pytest.mark.usefixtures("exact_path")
    def test_large_lattice_tables(self):
        # rows longer than numpy's 8-way unrolled summation: C still adds in
        # the reference's order, bit for bit
        km = random_kernel_matrix(30, 7)
        km = KernelMatrix(H=km.H, GR=0.3 * km.GR)
        exact = correlator_table(km)
        check_against_reference(exact)
        check_against_reference(sample_table(exact, 1000, 7))

    @pytest.mark.usefixtures("exact_path")
    def test_assembled_lattice_table(self):
        # the 3^3 x 2 thermal lattice at 10 ell: 1431 pairs, 1080 of them
        # causal, with exact zeros in most x_k; exact and sampled, bit for bit
        spec = LatticeSpec(3, 2, 10.0, 10.0, Event(-3.306967, 0.059643, 1.581189, 2.675809))
        exact = correlator_table(assemble_kernels(FieldState.thermal(50.0), build_lattice(spec),
                                                  2 * math.pi))
        assert not check_against_reference(exact)
        assert np.count_nonzero(reconstruct_table(exact).causal) == 1080
        check_against_reference(sample_table(exact, 1000, 11))

    def test_zero_sz_gives_nan_ratios(self):
        # z_1 = 0: yx_1k / z_1 is 0/0 for k = 2, 4 and inf for k = 3, so
        # pairs (1, 2) and (1, 4) fail on <sz>, while pair (1, 3), whose
        # third detectors 2 and 4 carry no yx, stays spacelike and inverts
        t = table(n=4, zz=0.8, yy=0.2, z=[0.0, 0.9, 0.8, 0.7],
                  yx={(1, 3): 0.4, (2, 4): 0.1, (4, 2): -0.05})
        assert check_against_reference(t) == {"DephasingError on <sz>"}
        rec = reconstruct_table(t)
        assert sorted(rec.failures) == [0, 2] and not rec.causal[1]

    def test_overflowing_ratio_fails_on_sz(self):
        # a subnormal z_1 whose ratio yx_12 / z_1 overflows to inf: every
        # causal pair on row 1 fails as a vanishing <sz>, where H and C used
        # to be NaN with no failure; the spacelike pair (2, 3) is untouched
        t = table(n=3, zz=0.6, yy=0.3, z=[1e-310, 1.0, 1.0],
                  yx={(1, 2): 0.5, (1, 3): 1e-311, (2, 3): 0.2})
        with np.errstate(all="raise"):
            rec = reconstruct_table(t)
        assert list(rec.failures) == [0, 1]
        for q, pair in ((0, "(1,2)"), (1, "(1,3)")):
            assert same_error(rec.failures[q],
                              DephasingError(f"pair {pair}: vanishing <sz> denominator"))
        assert not rec.causal[2] and rec.C[2] == 0.0
        assert same_bits(rec.H[2], 0.5 * math.atanh(0.3 / 0.6))
        assert check_against_reference(t) == {"DephasingError on <sz>"}

    @pytest.mark.parametrize("t, want", [
        # zero <sz> on a causal pair, also outside the arctanh domain and dephased
        (table(n=3, zz=0.0, z=[0.0, 1.0, 1.0], yx={(1, 3): 0.5, (2, 3): 0.5}),
         DephasingError("pair (1,2): vanishing <sz> denominator")),
        # outside the arctanh domain, also fully dephased and noise dominated
        (table(n=3, zz=0.0, yy=0.5, yx={(1, 3): 2.0, (2, 3): 0.75}),
         TangentDomainError("pair (1,2), correction term k=3: |product| = 1.5 >= 1 "
                            "(some 2G approaches pi/2)", k=3)),
        # fully dephased, also noise dominated (yy/zz is infinite)
        (table(zz=0.0, yy=0.5), DephasingError("pair (1,2): <sz sz> = 0 is fully dephased")),
        # two third detectors outside the domain: the lower label is named
        (table(n=5, yx={(1, 5): 1.5, (2, 5): 1.0, (1, 3): 1.0, (2, 3): -1.0}),
         TangentDomainError("pair (1,2), correction term k=3: |product| = 1 >= 1 "
                            "(some 2G approaches pi/2)", k=3)),
    ])
    def test_error_order(self, t, want):
        assert same_error(reconstruct_table(t).failures[0], want)
        with pytest.raises(type(want)) as ei:
            reference(t, 1, 2)
        assert same_error(ei.value, want)

    # pair (1, 2) is the first of every table, at position 0

    def test_zero_sz_on_spacelike_pair_is_harmless(self):
        rec = reconstruct_table(table(n=3, zz=0.8, yy=0.2, z=[0.0, 1.0, 1.0]))
        assert 0 not in rec.failures
        assert not rec.causal[0] and rec.C[0] == 0.0

    def test_zero_product_still_causal(self):
        # a nonzero <sy_1 sx_3> makes the pair causal even though x_3 = 0
        rec = reconstruct_table(table(n=3, yx={(1, 3): 0.3}))
        assert 0 not in rec.failures
        assert rec.causal[0] and rec.C[0] == 0.0


    def test_yx_diagonal_is_not_read(self):
        # a nonzero yx diagonal, which no table holds, leaves pair (1, 2)
        # spacelike: only third detectors make a pair causal
        t = table(n=3, yx={(1, 1): 0.5, (2, 2): 0.5})
        assert not check_against_reference(t)
        assert not reconstruct_table(t).causal[0]


EPS = 2.0**-52


def series_pairs(t):
    """Mask of the pairs of one table whose C comes from the power series."""
    off = ~np.eye(t.n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(off, t.yx / t.z[:, None], 0.0)
    return ~np.isnan(detector._power_sums(ratios[None], 2)[0][0])


def lattice_kernels(n_space, n_time, state, lam=2 * math.pi, spacing=10.0,
                    origin=Event(-3.306967, 0.059643, 1.581189, 2.675809)):
    spec = LatticeSpec(n_space, n_time, spacing, spacing, origin)
    return assemble_kernels(state, build_lattice(spec), lam)


class TestSeries:
    """Pairs under the series radius take C from power sums of T = yx / z.

    The truncation leaves at most 2^-53 sum_k |x_k|; with rounding, measured
    on these cases, C stays within 2.3 eps sum_k |x_k| of the arctanh sum
    (1/2) sum_k arctanh x_k and H within 1.1 eps (|H| + sum_k |x_k|).  The
    bound asserted is 4 eps of each.  The reference's product form is no
    reference here: where every x_k is tiny, ln(P+ / P-) keeps only about
    eps of the sum (3.7e-17 against 4.6e-18).  Every other pair, and every
    failure, is the reference's bit for bit.
    """

    @staticmethod
    def kernels(case):
        if case == "random":
            scaled = random_kernel_matrix(30, 7)
            return [random_kernel_matrix(2 + seed % 7, seed) for seed in range(14)] + [
                KernelMatrix(H=scaled.H, GR=0.3 * scaled.GR)]
        if case == "thermal-54":
            return [lattice_kernels(3, 2, FieldState.thermal(50.0))]
        return [lattice_kernels(3, 3, FieldState.vacuum())]

    @pytest.mark.parametrize("shots", [None, 1000])
    @pytest.mark.parametrize("case", ["random", "thermal-54", "vacuum-81"])
    def test_series_pairs_within_bound(self, case, shots):
        met_series = met_exact = 0
        for km in self.kernels(case):
            exact = correlator_table(km)
            t = exact if shots is None else sample_table(exact, shots, km.n)
            rec, series = reconstruct_table(t), series_pairs(t)
            ratios = t.yx / t.z[:, None]
            for q, (i, j) in enumerate(zip(rec.i.tolist(), rec.j.tolist())):
                try:
                    h, c, regime, flagged = reference(t, i, j)
                except (DephasingError, NoiseDominatedError, TangentDomainError) as want:
                    assert same_error(rec.failures[q], want), (rec.failures[q], want)
                    continue
                assert q not in rec.failures
                assert rec.causal[q] == (regime == "causal")
                assert rec.dephasing_dominated[q] == flagged
                if not series[q]:
                    met_exact += 1
                    assert same_bits(rec.H[q], h) and same_bits(rec.C[q], c), (i, j)
                    continue
                met_series += 1
                others = [k for k in range(t.n) if k not in (i - 1, j - 1)]
                x = ratios[i - 1, others] * ratios[j - 1, others]
                size = float(np.sum(np.abs(x)))
                c = 0.5 * float(np.sum(np.arctanh(x))) if regime == "causal" else 0.0
                h = 0.5 * math.atanh(t.yy[q] / t.zz[q]) - c
                assert abs(rec.C[q] - c) <= 4 * EPS * size, (i, j)
                assert abs(rec.H[q] - h) <= 4 * EPS * (abs(h) + size), (i, j)
        assert met_series > 0
        if case == "random" and shots:
            assert met_exact > 0, "noisy small tables should leave pairs past the radius"

    @pytest.mark.parametrize("state", ["vacuum", "thermal"])
    def test_per_pair_correction_matches_high_precision(self, state):
        # the 81-region lattice at 2 ell: C of the pairs past the series
        # radius, from (1/4) ln(P+ / P-), against (1/2) sum_k arctanh x_k in
        # 40 digits over the same float x_k, exact and at 10^4 shots
        mpmath = pytest.importorskip("mpmath")
        fs = FieldState.vacuum() if state == "vacuum" else FieldState.thermal(50.0)
        exact = correlator_table(lattice_kernels(3, 3, fs, spacing=2.0))
        for t in (exact, sample_table(exact, 10**4, 81)):
            rec, ratios = reconstruct_table(t), t.yx / t.z[:, None]
            off = [q for q in np.flatnonzero(~series_pairs(t))[::7].tolist()
                   if q not in rec.failures]
            assert len(off) >= 100
            with mpmath.workdps(40):
                for q in off:
                    i, j = int(rec.i[q]) - 1, int(rec.j[q]) - 1
                    others = [k for k in range(t.n) if k not in (i, j)]
                    x = (ratios[i, others] * ratios[j, others]).tolist()
                    want = mpmath.fsum(mpmath.atanh(v) for v in x) / 2
                    assert abs(rec.C[q] - want) <= 2e-15, (i + 1, j + 1)

    @pytest.mark.parametrize("spacing", [1.0, 2.0, 3.0, 10.0])
    @pytest.mark.parametrize("lam, failed", [(4, [28, 28, 28, 0]), (6, [28, 28, 28, 12])])
    def test_16_region_failures_match_exact_path(self, monkeypatch, lam, failed, spacing):
        # the 16-region vacuum lattice: which pairs fail, how and with what
        # message is the per-pair pipeline's, table and inversion alike
        km = lattice_kernels(2, 2, FieldState.vacuum(), lam * math.pi, spacing,
                             Event(0.0, 0.0, 0.0, 0.0))
        rec = reconstruct_table(correlator_table(km))
        monkeypatch.setattr(detector, "_SERIES_RADIUS", 0.0)
        want = reconstruct_table(correlator_table(km))
        assert len(want.failures) == failed[[1.0, 2.0, 3.0, 10.0].index(spacing)]
        assert list(rec.failures) == list(want.failures)
        for q, err in want.failures.items():
            assert same_error(rec.failures[q], err)
        assert np.array_equal(rec.causal, want.causal)
        # zz shrinks with e^(-H_ii) at 6 pi and 1 ell, where H moves most
        assert np.allclose(rec.H[rec.ok], want.H[want.ok], rtol=0, atol=1e-9)

    def test_stack_of_mixed_shots_matches_tables(self, monkeypatch):
        # tables of 10^3 and 10^7 shots need different powers; the stack
        # still inverts each table bitwise as alone
        exact = correlator_table(lattice_kernels(3, 2, FieldState.thermal(50.0)))
        shots, seeds = [10**3, 10**7, 10**3, 10**7], [1, 2, 3, 4]
        powers = []
        last_power = detector._last_power

        def recording(r, step):
            powers.append(last_power(r, step))
            return powers[-1]

        monkeypatch.setattr(detector, "_last_power", recording)
        singles = [reconstruct_table(sample_table(exact, k, seed)) for k, seed in zip(shots, seeds)]
        alone, powers[:] = list(powers), []
        stack = reconstruct_table(sample_table(exact, shots, seeds))
        assert powers == alone and len(set(alone)) > 1, alone
        for r, rec in enumerate(singles):
            assert_same_reconstruction(table_of(stack, r), rec)


class TestRowBlocks:
    @pytest.mark.usefixtures("exact_path")
    def test_blocks_match_one_block(self, monkeypatch):
        # n = 9: 7 third detectors per pair, 8 pairs in the first row; blocks
        # of 5 pairs put a boundary inside the first row and in most others
        t = sample_table(correlator_table(random_kernel_matrix(9, 4)), 30, 4)
        calls = []
        pair_blocks = detector.pair_blocks

        def counting(n, marked):
            for block in pair_blocks(n, marked):
                calls.append(len(block[0]))
                yield block

        monkeypatch.setattr(detector, "pair_blocks", counting)
        monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", 1 << 30)
        whole = reconstruct_table(t)
        assert calls == [36]
        monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", 5 * 9)
        calls.clear()
        blocked = reconstruct_table(t)
        assert calls == [5] * 7 + [1]
        assert whole.failures, "the sampled table should fail somewhere"
        for name in FIELDS:
            u, v = getattr(whole, name), getattr(blocked, name)
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name
        assert list(whole.failures) == list(blocked.failures)
        for q, err in whole.failures.items():
            assert same_error(blocked.failures[q], err)

    @pytest.mark.parametrize("n", [1, 2, 3, 54])
    def test_sampled_roundtrip_is_block_invariant(self, monkeypatch, n):
        # correlator table, sample and inversion at one pair per block, three
        # and four pairs per block and a single block, of one table and of a
        # stack of three (four-pair blocks span two of its tables at n = 2, 3
        # and 54)
        km = random_kernel_matrix(n, n)
        recs, stacks = [], []
        for chunk in (n, 3 * n, 4 * n, 1 << 30):
            monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", chunk)
            exact = correlator_table(km)
            recs.append(reconstruct_table(sample_table(exact, 100, n)))
            stacks.append(reconstruct_table(sample_table(exact, [100, 30, 100],
                                                         [n, n + 1, n + 2])))
        whole = recs[-1]
        if n == 54:
            assert whole.failures, "the sampled table should fail somewhere"
        for blocked in recs[:-1]:
            assert_same_reconstruction(blocked, whole)
        for blocked in stacks[:-1]:
            assert_same_reconstruction(blocked, stacks[-1])
        assert_same_reconstruction(table_of(stacks[-1], 0), whole)

    def test_no_pairs(self):
        rec = reconstruct_table(table(n=1))
        assert len(rec.H) == len(rec.causal) == len(rec.i) == 0 and not rec.failures


class TestStacks:
    """A stack of tables inverts in one pass, bitwise as table by table."""

    @pytest.mark.parametrize("shots, n_failed", [(10, 312), (100, 7)])
    def test_stack_matches_per_table_inversion(self, monkeypatch, shots, n_failed):
        # the shot-noise study's default 16-region lattice, seed and 4 repeats:
        # the failure counts of test_shot_noise_failure_counts
        cfg = validate_config({"scenario_id": "shot_noise_study"})
        exact = correlator_table(assemble_kernels(FieldState.vacuum(), build_lattice(cfg.lattice),
                                                  cfg.lam / cfg.ell))
        seeds = [np.random.SeedSequence(entropy=cfg.seed, spawn_key=(shots, rep))
                 for rep in range(4)]
        singles = [reconstruct_table(sample_table(exact, shots, seed)) for seed in seeds]
        assert sum(len(rec.failures) for rec in singles) == n_failed
        # blocks of 50 rows over 120-pair tables: blocks 2, 4 and 7 span two tables
        monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", 50 * 16)
        stack = reconstruct_table(sample_table(exact, [shots] * 4, seeds))
        assert stack.H.shape == (4, 120)
        for r, rec in enumerate(singles):
            assert_same_reconstruction(table_of(stack, r), rec)
        assert np.flatnonzero(~stack.ok.ravel()).tolist() == list(stack.failures)
        assert np.array_equal(stack.ok, np.array([rec.ok for rec in singles]))

    def test_stack_with_other_zero_columns(self):
        # the 81-region lattice at 2 ell: its exact table has 27 columns of
        # yx that are zero (detectors with no causal future), a table of 10^4
        # shots has none, so stacked the per-pair path keeps every column;
        # each table still inverts bitwise as alone
        exact = correlator_table(lattice_kernels(3, 3, FieldState.vacuum(), spacing=2.0))
        sampled = sample_table(exact, 10**4, 81)
        assert np.count_nonzero(~np.any(exact.yx != 0.0, axis=0)) == 27
        assert np.all(np.any(sampled.yx != 0.0, axis=0))
        parts = [exact, sampled]
        stack = CorrelatorTable(*(np.array([getattr(t, name) for t in parts])
                                  for name in ("z", "zz", "yy", "yx")))
        assert not series_pairs(exact).all() and not series_pairs(sampled).all()
        rec = reconstruct_table(stack)
        for r, t in enumerate(parts):
            assert_same_reconstruction(table_of(rec, r), reconstruct_table(t))

    def test_hand_built_stack(self):
        # tables that fail in different ways, stacked by hand
        parts = [table(n=4, yx={(1, 4): 1.1, (2, 4): 1.0}), table(n=4, zz=0.5, yy=0.6),
                 table(n=4, z=[0.0, 1.0, 1.0, 1.0], yx={(1, 3): 0.1, (2, 3): 0.1})]
        stack = CorrelatorTable(*(np.array([getattr(t, name) for t in parts])
                                  for name in ("z", "zz", "yy", "yx")))
        rec = reconstruct_table(stack)
        assert rec.i.shape == (3, 6) and np.array_equal(rec.i[2], [1, 1, 1, 2, 2, 3])
        for r, t in enumerate(parts):
            assert_same_reconstruction(table_of(rec, r), reconstruct_table(t))
        assert min(rec.failures) == 0 and max(rec.failures) >= 12


class TestSpacelike:
    def test_zero(self):
        assert reconstruct_table(table()).H[0] == 0.0

    def test_arctanh_of_tanh(self):
        t = table(zz=math.exp(-0.2) * math.cosh(0.1), yy=math.exp(-0.2) * math.sinh(0.1))
        assert reconstruct_table(t).H[0] == pytest.approx(0.05, rel=1e-14)

    def test_noise_dominated(self):
        err = reconstruct_table(table(zz=0.5, yy=0.6)).failures[0]
        assert isinstance(err, NoiseDominatedError)
        assert err.ratio == pytest.approx(1.2)

    def test_dephasing(self):
        rec = reconstruct_table(table(zz=0.0, yy=0.0))
        assert isinstance(rec.failures[0], DephasingError) and math.isnan(rec.H[0])

    def test_sampled_error_propagation(self):
        # true H = 0.05 at N = 2; sampled reconstruction within 3 propagated sigma
        h = [[0.3, 0.05], [0.05, 0.3]]
        km = KernelMatrix(H=np.array(h), GR=np.zeros((2, 2)))
        shots = 10**6
        exact = correlator_table(km)
        got = reconstruct_table(sample_table(exact, shots, seed=31)).H[0]
        zz, yy = exact.zz[0], exact.yy[0]
        ratio = yy / zz
        # binomial sigma propagated through (1/2) arctanh(y/z)
        sig = 0.5 / (1 - ratio**2) * math.sqrt(
            (1 - yy**2) / shots + ratio**2 * (1 - zz**2) / shots) / abs(zz)
        assert abs(got - 0.05) <= 3 * sig


class TestCausalCorrection:
    def test_all_zero(self):
        rec = reconstruct_table(table(n=5))
        assert not rec.causal.any() and (rec.C == 0.0).all()

    def test_single_term(self):
        # ratios -tan(2G_13) = 0.1, -tan(2G_23) = 0.2 through third detector 3
        rec = reconstruct_table(table(n=3, yx={(1, 3): 0.1, (2, 3): 0.2}))
        assert rec.C[0] == pytest.approx(0.5 * math.atanh(0.02), rel=1e-14)
        assert rec.H[0] == -rec.C[0]

    def test_tangent_domain_error_names_k(self):
        err = reconstruct_table(table(n=4, yx={(1, 4): 1.1, (2, 4): 1.0})).failures[0]
        assert isinstance(err, TangentDomainError)
        assert err.k == 4

    def test_zero_denominator(self):
        rec = reconstruct_table(table(n=3, z=[0.0, 1.0, 1.0], yx={(1, 3): 0.1, (2, 3): 0.1}))
        assert isinstance(rec.failures[0], DephasingError)


class TestGeneral:
    def test_reduces_to_spacelike(self):
        for n in (2, 4):
            rec = reconstruct_table(table(n=n, zz=0.8, yy=0.2))
            assert not rec.causal[0] and rec.C[0] == 0.0
            assert rec.H[0] == 0.5 * math.atanh(0.2 / 0.8)

    def test_log_form_identity(self):
        # (1/2) arctanh(yy/zz) == (1/4) ln((zz+yy)/(zz-yy))
        direct = reconstruct_table(table(zz=0.7, yy=0.3)).H[0]
        logform = 0.25 * math.log((0.7 + 0.3) / (0.7 - 0.3))
        assert direct == pytest.approx(logform, rel=1e-14)

    def test_roundtrip_causal_chain_n4(self):
        km = random_kernel_matrix(4, seed=21)
        rec = reconstruct_table(correlator_table(km))
        assert not rec.failures
        np.testing.assert_allclose(rec.H, km.H[rec.i - 1, rec.j - 1], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("radius", [detector._SERIES_RADIUS, 0.0])
    def test_inverts_the_table_up_to_the_tangent_domain(self, monkeypatch, radius):
        # GR scaled up until 2G passes pi/2: every pair returns H or fails
        # with TangentDomainError, exactly where the table's own ratios
        # T = yx / z give a third detector k with |T_ik T_jk| >= 1
        monkeypatch.setattr(detector, "_SERIES_RADIUS", radius)
        failed = 0
        for seed in range(20):
            km = random_kernel_matrix(4 + seed % 5, seed)
            for scale in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0):
                scaled = KernelMatrix(H=km.H, GR=scale * km.GR)
                t = correlator_table(scaled)
                rec = reconstruct_table(t)
                ratios = np.where(np.eye(t.n, dtype=bool), 0.0, t.yx / t.z[:, None])
                a, b = rec.i - 1, rec.j - 1
                x = ratios[a] * ratios[b]  # 0 at k = i and k = j
                outside = np.any(np.abs(x) >= 1.0, axis=1)
                assert np.array_equal(~rec.ok, outside), (seed, scale)
                assert all(isinstance(err, TangentDomainError) for err in rec.failures.values())
                assert np.all(np.abs(rec.H[rec.ok] - km.H[a, b][rec.ok]) <= 1e-10), (seed, scale)
                failed += len(rec.failures)
        assert failed > 0

    def test_roundtrip_mixed_n6(self):
        for seed in (3, 4, 5):
            km = random_kernel_matrix(6, seed=seed)
            if np.max(np.abs(2 * km.GR)) > 0.7:
                continue
            rec = reconstruct_table(correlator_table(km))
            assert not rec.failures
            assert rec.H == pytest.approx(km.H[rec.i - 1, rec.j - 1], abs=1e-8)

    def test_exact_records_never_leave_arctanh_domain(self):
        for seed in range(15):
            t = correlator_table(random_kernel_matrix(5, seed))
            assert not reconstruct_table(t).failures


class TestAssembleWightman:
    """W_ij = H_ij/2 + i E_ij/2, from the reconstructed H and the known E."""

    @staticmethod
    def w_cells(t, e_12, path):
        """(Re W, Im W) of pair (1, 2) as written, with E_12 = e_12."""
        write_reconstruction(
            reconstruct_table(t), np.array([[0.0, e_12], [-e_12, 0.0]]), path, np.eye(2))
        with open(path, encoding="utf-8", newline="") as fh:
            row = next(csv.DictReader(fh))
        return float(row["Re_W"]), float(row["Im_W"])

    def test_values(self, tmp_path):
        assert self.w_cells(table(), 0.0, tmp_path / "zero.csv") == (0.0, 0.0)
        t = table(zz=0.7, yy=0.3)
        assert self.w_cells(t, -0.6, tmp_path / "w.csv") == (
            0.5 * reconstruct_table(t).H[0], -0.3)

    def test_roundtrip(self, tmp_path):
        km = random_kernel_matrix(4, seed=9)
        t = correlator_table(km)
        path = tmp_path / "recon.csv"
        rec = reconstruct_table(t)
        write_reconstruction(rec, km.E, path, km.H)
        for line, h, e in zip(path.read_text().splitlines()[1:], rec.H,
                              km.E[rec.i - 1, rec.j - 1]):
            cells = line.split(",")
            assert float(cells[6]) == 0.5 * h and float(cells[7]) == 0.5 * e


class TestReconstructRecord:
    """Per-pair results of the table inversion: regime, flags, CSV rows."""

    def test_regime_detection(self):
        t = correlator_table(random_kernel_matrix(4, seed=2))
        rec = reconstruct_table(t)
        has_link = np.any(t.yx[0, 2:] != 0.0) or np.any(t.xy[2:, 1] != 0.0)
        assert 0 not in rec.failures
        assert rec.causal[0] == has_link
        # a causal link through a third detector switches the regime
        assert reconstruct_table(table(n=3, yx={(1, 3): 0.1})).causal[0]

    def test_dephasing_flag(self):
        rec = reconstruct_table(table(zz=5e-7, yy=1e-7))
        assert 0 not in rec.failures
        assert rec.dephasing_dominated[0]

    def test_condition_number(self):
        # kappa = |zz| / (|zz| - |yy|), inf where |yy| >= |zz|; a pair is
        # ill-conditioned where kappa 2^-52 > 1e-8, i.e. kappa > 4.5e7
        zz = [0.8, -0.8, 0.5, 0.5, 0.5, 0.0, 0.5, 0.5, 1.0, 1.0]
        yy = [0.4, 0.4, 0.5 * (1 - 1e-9), 0.5 * (1 - 1e-6), 0.5, 0.0, -0.6, -0.25,
              1 - 2.0**-26, 1 - 2.0**-25]
        t = CorrelatorTable(z=np.ones(5), zz=np.array(zz), yy=np.array(yy), yx=np.zeros((5, 5)))
        rec = reconstruct_table(t)
        assert rec.condition.tolist() == [abs(z) / (abs(z) - abs(y)) if abs(y) < abs(z)
                                          else math.inf for z, y in zip(zz, yy)]
        assert rec.condition[8:].tolist() == [2.0**26, 2.0**25]
        assert rec.ill_conditioned.tolist() == [False, False, True, False, True, True, True,
                                                False, True, False]
        # the pairs with |yy| >= |zz| fail, and are flagged all the same
        assert list(rec.failures) == [4, 5, 6]

    def test_csv_output(self, tmp_path):
        km = random_kernel_matrix(3, seed=8)
        rec = reconstruct_table(correlator_table(km))
        path = tmp_path / "recon.csv"
        write_reconstruction(rec, km.E, path, h_true=km.H)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["i", "j", "regime", "H_reconstructed"]
        assert len(lines) == 1 + len(rec.H)
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["1", "2"], ["1", "3"], ["2", "3"]]

    def test_csv_regime_and_flags(self, tmp_path):
        # the text columns follow the table's masks, pair by pair
        km = random_kernel_matrix(4, seed=2)
        for name, t, h_true in (("mixed", correlator_table(km), km.H),
                                ("dephased", table(zz=5e-7, yy=1e-7), np.eye(2))):
            rec = reconstruct_table(t)
            path = tmp_path / f"{name}.csv"
            write_reconstruction(rec, np.zeros((t.n, t.n)), path, h_true)
            with open(path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [r["regime"] for r in rows] == [
                "causal" if c else "spacelike" for c in rec.causal]
            assert [r["flags"] for r in rows] == flags(rec)
            assert [float(r["H_true_if_known"]) for r in rows] == (
                h_true[rec.i - 1, rec.j - 1].tolist())
        assert rows[0]["flags"] == "dephasing_dominated"

    def test_csv_flags(self, tmp_path):
        # four spacelike detectors, one pair per flags text: neither flag,
        # dephasing-dominated (|zz| < 1e-6), ill-conditioned (kappa > 4.5e7)
        # and both, joined by ";"
        zz = [0.8, 5e-7, 0.5, 5e-7, 0.9, 1.0]
        yy = [0.4, 1e-7, 0.5 * (1 - 1e-9), 5e-7 * (1 - 1e-9), 0.1, 1 - 2.0**-26]
        t = CorrelatorTable(z=np.ones(4), zz=np.array(zz), yy=np.array(yy), yx=np.zeros((4, 4)))
        rec = reconstruct_table(t)
        assert not rec.failures
        path = tmp_path / "flags.csv"
        write_reconstruction(rec, np.zeros((4, 4)), path, np.eye(4))
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["flags"] for r in rows] == flags(rec) == [
            "", "dephasing_dominated", "ill_conditioned", "dephasing_dominated;ill_conditioned",
            "", "ill_conditioned"]

    def test_csv_bytes(self, tmp_path):
        # byte for byte what csv.writer writes for the pairs, with the
        # regime and flags texts that the masks stand for
        km = random_kernel_matrix(5, seed=2)
        mixed = CorrelatorTable(z=np.array([1.0, 0.9, 0.8]), zz=np.array([5e-7, 0.8, 0.5]),
                                yy=np.array([1e-7, 0.2, 0.1]),
                                yx=np.array([[0.0, 0.0, 0.1], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        for name, t, E, h_true in (("lattice", correlator_table(km), km.E, km.H),
                                   ("mixed", mixed, np.zeros((3, 3)), np.eye(3))):
            rec = reconstruct_table(t)
            path = tmp_path / f"{name}.csv"
            assert not rec.failures
            write_reconstruction(rec, E, path, h_true)
            i, j = rec.i, rec.j
            buf = io.StringIO(newline="")
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["i", "j", "regime", "H_reconstructed", "H_true_if_known", "C_ij",
                             "Re_W", "Im_W", "flags"])
            for row in zip(i.tolist(), j.tolist(),
                           np.where(rec.causal, "causal", "spacelike").tolist(),
                           rec.H.tolist(), h_true[i - 1, j - 1].tolist(),
                           rec.C.tolist(), (0.5 * rec.H).tolist(),
                           (0.5 * E[i - 1, j - 1]).tolist(), flags(rec)):
                writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
            assert path.read_bytes() == buf.getvalue().encode("utf-8")
        # (1, 2) is causal and flagged, (1, 3) and (2, 3) neither
        assert [(c[:3], c[-1]) for c in csv.reader(path.read_text().splitlines()[1:])] == [
            (["1", "2", "causal"], "dephasing_dominated"), (["1", "3", "spacelike"], ""),
            (["2", "3", "spacelike"], "")]


class TestConditioning:
    """The ill_conditioned flag on the 81-region 3^3 x 3 lattices of the
    exact roundtrip (lambda = 2 pi): near 1.5 ell spacing |yy/zz| comes
    within rounding of 1, and H's error grows with kappa."""

    @pytest.mark.parametrize("spacing, flagged, kappa_max", [
        (1.5, 197, None), (2.0, 0, 2.6e7), (3.0, 0, 330.0), (10.0, 0, 1.07)])
    @pytest.mark.parametrize("state", [{"state": "vacuum"},
                                       {"state": "thermal", "beta": 50.0}],
                             ids=["vacuum", "thermal"])
    def test_exact_roundtrip(self, spacing, flagged, kappa_max, state):
        cfg = validate_config({
            "scenario_id": "tomography_roundtrip", "lambda": 2 * math.pi, **state,
            "lattice": {"n_space": 3, "n_time": 3, "spacing_space": spacing,
                        "spacing_time": spacing}})
        _, exact, h_true = scenarios._lattice(cfg)
        rec = reconstruct_table(exact)
        assert not rec.failures
        err = np.abs(rec.H - h_true)
        ill = rec.ill_conditioned
        assert np.count_nonzero(ill) == flagged
        # every pair off by more than the 1e-8 roundtrip gate is flagged, and
        # the worst unflagged one (9.4e-10 vacuum, 1.19e-9 thermal at 1.5
        # ell) stays below it
        assert ill[err > 1e-8].all()
        assert err[~ill].max() < 1e-8
        # the error stays within 0.41 kappa eps (0.402 at most, 2 ell vacuum)
        assert (err <= 0.41 * rec.condition * 2.0**-52).all()
        if flagged:
            # the flagged pairs hold errors of 2.96e-4 (vacuum) and 3.47e-4
            assert 1e-4 < err.max() < 1e-3
        else:
            assert rec.condition.max() == pytest.approx(kappa_max, rel=0.02)


def test_noise_scaling_slope():
    # RMS reconstruction error scales like shots^(-1/2); use a benign fixed
    # kernel (moderate local noise, weak causal links) so no sampled table
    # leaves the arctanh domain even at 10^3 shots
    n = 4
    H = 0.05 * np.ones((n, n)) + 0.35 * np.eye(n)
    GR = np.zeros((n, n))
    GR[2, 0] = GR[3, 1] = 0.05
    exact = correlator_table(KernelMatrix(H=H, GR=GR))
    pts = []
    for shots in (10**3, 10**4, 10**5, 10**6):
        errs = []
        for rep in range(6):
            rec = reconstruct_table(sample_table(exact, shots, seed=1000 + rep))
            assert not rec.failures
            errs += ((rec.H - H[rec.i - 1, rec.j - 1]) ** 2).tolist()
        pts.append((float(shots), math.sqrt(sum(errs) / len(errs))))
    fit = fit_loglog_slope(pts)
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
