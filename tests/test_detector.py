"""Exact detector-state simulation: density matrix, correlators, sampling.

The density matrix built from the non-perturbative evolution formula is the
single source of truth; every entry of the closed-form correlator table is
checked against it.
"""

import math
import types

import numpy as np
import pytest

from udwtomo import detector
from udwtomo.detector import (CorrelatorTable, DensityMatrix, PauliLabel, correlator_table,
                              density_matrix, pauli_ev_oracle,
                              random_kernel_matrix, sample_table)
from udwtomo.errors import CapacityError, ConsistencyError
from udwtomo.kernels import FieldState, KernelMatrix, assemble_kernels
from udwtomo.spacetime import Event, LatticeSpec, build_lattice


def plain_kernels(n, h=None, gr=None):
    H = np.zeros((n, n)) if h is None else np.asarray(h, dtype=float)
    GR = np.zeros((n, n)) if gr is None else np.asarray(gr, dtype=float)
    return KernelMatrix(H=H, GR=GR)


def permuted(km, perm):
    """The same detectors relabelled: new label a is old label perm[a]."""
    P = np.eye(km.n)[perm]
    return KernelMatrix(H=P @ km.H @ P.T, GR=P @ km.GR @ P.T)


def pair_position(n, i, j):
    """Row-major position of the unordered pair {i, j} (1-based labels)."""
    i, j = min(i, j), max(i, j)
    return (i - 1) * (2 * n - i) // 2 + j - i - 1


def pair_matrix(n, pairs):
    """Symmetric n x n matrix with zero diagonal from a pair vector."""
    m = np.zeros((n, n))
    m[np.triu_indices(n, 1)] = pairs
    return m + m.T


def table_entry(table, i, j, kind):
    """The table entry that holds the correlator ``kind`` of detectors i != j
    (1-based): the expectation of the operators ``KIND_OPS[kind](i, j)``."""
    a, b, q = i - 1, j - 1, pair_position(table.n, i, j)
    return {"ZZ": table.zz[q], "YY": table.yy[q], "Zi": table.z[a],
            "Zj": table.z[b], "YiXj": table.yx[a, b], "XiYj": table.xy[a, b]}[kind]


def closed_form(km, i, j, kind):
    """The closed forms of the module docstring written out for one entry
    (1-based i != j), the reference the table's blockwise array pass must
    reproduce to rounding."""
    H, G, n = km.H, km.GR, km.n
    a, b = i - 1, j - 1
    others = [k for k in range(n) if k not in (a, b)]
    if kind in ("ZZ", "YY"):
        plus = math.exp(2.0 * H[a, b]) * math.prod(
            math.cos(2.0 * G[a, k] - 2.0 * G[b, k]) for k in others)
        minus = math.exp(-2.0 * H[a, b]) * math.prod(
            math.cos(2.0 * G[a, k] + 2.0 * G[b, k]) for k in others)
        sign = 1.0 if kind == "ZZ" else -1.0
        return 0.5 * math.exp(-H[a, a] - H[b, b]) * (plus + sign * minus)
    if kind in ("Zi", "Zj"):
        c = a if kind == "Zi" else b
        return math.exp(-H[c, c]) * math.prod(math.cos(2.0 * G[c, k]) for k in range(n) if k != c)
    c, d = (a, b) if kind == "YiXj" else (b, a)
    return -math.exp(-H[c, c]) * math.sin(2.0 * G[c, d]) * math.prod(
        math.cos(2.0 * G[c, k]) for k in others)


KIND_OPS = {
    "ZZ": lambda i, j: [PauliLabel("Z", i), PauliLabel("Z", j)],
    "YY": lambda i, j: [PauliLabel("Y", i), PauliLabel("Y", j)],
    "Zi": lambda i, j: [PauliLabel("Z", i)],
    "Zj": lambda i, j: [PauliLabel("Z", j)],
    "YiXj": lambda i, j: [PauliLabel("Y", i), PauliLabel("X", j)],
    "XiYj": lambda i, j: [PauliLabel("X", i), PauliLabel("Y", j)],
}


def kernel_draws(sizes, seeds):
    """Random kernels and a relabelling of each, so GR is not time ordered."""
    for n in sizes:
        for seed in seeds:
            km = random_kernel_matrix(n, seed=seed)
            yield km
            yield permuted(km, np.random.default_rng(seed).permutation(n))


class TestDensityMatrix:
    def test_single_free_detector(self):
        rho = density_matrix(plain_kernels(1))
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)))  # pure ground state

    def test_single_noisy_detector(self):
        rho = density_matrix(plain_kernels(1, h=[[0.2]]))
        off = 0.5 * math.exp(-0.2)
        assert rho.entries[0, 0] == pytest.approx(0.5)
        assert rho.entries[0, 1] == pytest.approx(off)
        assert rho.entries[1, 0] == pytest.approx(off)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_kernels_give_physical_states(self, n):
        for seed in range(5):
            km = random_kernel_matrix(n, seed=seed)
            rho = density_matrix(km)
            ent = rho.entries
            assert np.max(np.abs(ent - ent.conj().T)) <= 1e-12
            assert abs(np.trace(ent) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(ent).min() >= -1e-10

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            density_matrix(plain_kernels(13))

    def test_construction_refuses_unphysical_entries(self):
        for entries, match in ((np.array([[0.5, 0.1], [0.3, 0.5]]), "not Hermitian"),
                               (np.eye(2), "trace"),
                               (np.diag([1.5, -0.5]), "not PSD"),
                               (np.ones(4) / 4.0, r"shape \(4,\), need 2\^n"),
                               # these two passed every check (a NaN fails no
                               # comparison), the second as a state of 1 qubit
                               (np.full((2, 2), np.nan), "not finite"),
                               (np.eye(3) / 3.0, r"shape \(3, 3\), need 2\^n")):
            with pytest.raises(ConsistencyError, match=match):
                DensityMatrix(entries=entries)
        # a NaN kernel that bypasses KernelMatrix used to leak numpy's LinAlgError
        nan_h = types.SimpleNamespace(n=2, H=np.full((2, 2), np.nan), E=np.zeros((2, 2)),
                                      Delta=np.zeros((2, 2)))
        with pytest.raises(ConsistencyError, match="not finite"):
            density_matrix(nan_h)

    def test_perturbative_excitation_limit(self):
        # weak coupling: excitation probability P_e = (1 - e^{-H11})/2 must
        # reduce to the first-order response H11/2 = lam^2 W(region, region)
        for h11 in (1e-3, 1e-4, 1e-5):
            rho = density_matrix(plain_kernels(1, h=[[h11]])).entries
            # |e> = (|+> - |->)/sqrt2 in the mu basis
            p_e = 0.5 * float((rho[0, 0] + rho[1, 1] - rho[0, 1] - rho[1, 0]).real)
            assert p_e == pytest.approx(h11 / 2.0, rel=h11)

    def test_label_permutation_covariance(self):
        # permuting detectors and kernel rows/columns permutes the state
        km = random_kernel_matrix(3, seed=11)
        perm = [2, 0, 1]
        km_p = permuted(km, perm)
        rho = density_matrix(km).entries
        rho_p = density_matrix(km_p).entries
        # basis permutation of qubit labels
        idx = np.arange(8)
        bits = ((idx[:, None] >> (2 - np.arange(3))[None, :]) & 1)
        new_idx = (bits[:, perm] << (2 - np.arange(3))[None, :]).sum(axis=1)
        assert np.allclose(rho_p[np.ix_(new_idx, new_idx)], rho, atol=1e-14)


class TestPauliOracle:
    def test_identity_is_one(self):
        km = random_kernel_matrix(3, seed=0)
        rho = density_matrix(km)
        assert pauli_ev_oracle(rho, []) == pytest.approx(1.0, abs=1e-13)
        assert pauli_ev_oracle(rho, [PauliLabel("I", 1)]) == pytest.approx(1.0, abs=1e-13)

    def test_single_qubit_z(self):
        rho = density_matrix(plain_kernels(1, h=[[0.2]]))
        assert pauli_ev_oracle(rho, [PauliLabel("Z", 1)]) == pytest.approx(
            math.exp(-0.2), rel=1e-13)

    def test_duplicate_qubits_rejected(self):
        rho = density_matrix(plain_kernels(2))
        with pytest.raises(ValueError):
            pauli_ev_oracle(rho, [PauliLabel("Z", 1), PauliLabel("Y", 1)])

    def test_bad_label(self):
        with pytest.raises(ValueError):
            PauliLabel("Q", 1)
        with pytest.raises(ValueError):
            PauliLabel("Z", 0)


class TestClosedForms:
    def test_trivial_kernels(self):
        table = correlator_table(plain_kernels(2))
        assert table_entry(table, 1, 2, "ZZ") == 1.0
        assert table_entry(table, 1, 2, "YY") == 0.0
        assert table_entry(table, 1, 2, "YiXj") == 0.0

    def test_two_spacelike_detectors(self):
        h = [[0.3, 0.1], [0.1, 0.4]]
        table = correlator_table(plain_kernels(2, h=h))
        want_zz = math.exp(-0.7) * math.cosh(0.2)
        want_yy = math.exp(-0.7) * math.sinh(0.2)
        assert table_entry(table, 1, 2, "ZZ") == pytest.approx(want_zz, rel=1e-14)
        assert table_entry(table, 1, 2, "YY") == pytest.approx(want_yy, rel=1e-14)
        # ratio identity behind the spacelike reconstruction
        assert want_yy / want_zz == pytest.approx(math.tanh(0.2), rel=1e-14)

    def test_single_causal_link_z(self):
        # H diagonal large enough to keep (H + iE)/2 positive (physical state)
        gr = np.zeros((3, 3))
        gr[0, 2] = 0.2  # detector 1 in the future of detector 3
        km = plain_kernels(3, h=np.diag([0.5, 0.5, 0.5]), gr=gr)
        want = math.exp(-0.5) * math.cos(0.4)
        assert table_entry(correlator_table(km), 1, 2, "Zi") == pytest.approx(want, rel=1e-14)
        rho = density_matrix(km)
        assert pauli_ev_oracle(rho, [PauliLabel("Z", 1)]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_kinds_match_oracle(self, n):
        for seed in range(10):
            km = random_kernel_matrix(n, seed=100 + seed)
            table, rho = correlator_table(km), density_matrix(km)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    for kind, ops in KIND_OPS.items():
                        closed = table_entry(table, i, j, kind)
                        oracle = pauli_ev_oracle(rho, ops(i, j))
                        assert closed == pytest.approx(oracle, abs=1e-12), (n, seed, i, j, kind)

    def test_matches_oracle_at_n10(self):
        # the defining contract extends to n = 10 (1024 x 1024 dense state)
        km = random_kernel_matrix(10, seed=424)
        table, rho = correlator_table(km), density_matrix(km)
        for (i, j) in ((1, 10), (3, 7), (9, 2)):
            for kind, ops in (("ZZ", [PauliLabel("Z", i), PauliLabel("Z", j)]),
                              ("YiXj", [PauliLabel("Y", i), PauliLabel("X", j)]),
                              ("Zi", [PauliLabel("Z", i)])):
                closed = table_entry(table, i, j, kind)
                oracle = pauli_ev_oracle(rho, ops)
                assert closed == pytest.approx(oracle, abs=1e-10)

    def test_magnitude_bound(self):
        # every correlator stays within [-1, 1] for valid kernels
        for seed in range(5):
            table = correlator_table(random_kernel_matrix(4, seed=seed))
            for kind in KIND_OPS:
                assert abs(table_entry(table, 1, 3, kind)) <= 1.0 + 1e-12

    def test_yy_strictly_inside_zz(self):
        # guarantees the arctanh domain of the noiseless reconstruction
        for seed in range(10):
            table = correlator_table(random_kernel_matrix(5, seed=seed))
            for i in range(1, 6):
                for j in range(i + 1, 6):
                    zz = table_entry(table, i, j, "ZZ")
                    yy = table_entry(table, i, j, "YY")
                    assert zz > 0
                    assert abs(yy) < zz


class TestCorrelatorTable:
    def test_matches_closed_forms(self):
        for km in kernel_draws(range(2, 7), range(6)):
            table = correlator_table(km)
            for i in range(1, km.n + 1):
                for j in range(1, km.n + 1):
                    if i == j:
                        continue
                    for kind in KIND_OPS:
                        got = table_entry(table, i, j, kind)
                        want = closed_form(km, i, j, kind)
                        assert abs(got - want) <= 1e-14, (km.n, i, j, kind)

    def test_matches_density_matrix_oracle(self):
        for km in kernel_draws(range(2, 7), range(3)):
            table = correlator_table(km)
            rho = density_matrix(km)
            for i in range(1, km.n + 1):
                for j in range(1, km.n + 1):
                    if i == j:
                        continue
                    for kind, ops in KIND_OPS.items():
                        got = table_entry(table, i, j, kind)
                        want = pauli_ev_oracle(rho, ops(i, j))
                        assert abs(got - want) <= 1e-10, (km.n, i, j, kind)

    def test_pair_vectors_match_density_matrix_oracle(self):
        # zz[q], yy[q] are the pair at position q of np.triu_indices(n, 1)
        for n in range(2, 9):
            for seed in range(2):
                km = random_kernel_matrix(n, seed=50 + seed)
                table, rho = correlator_table(km), density_matrix(km)
                assert table.zz.shape == table.yy.shape == (n * (n - 1) // 2,)
                for q, (a, b) in enumerate(zip(*np.triu_indices(n, 1))):
                    i, j = int(a) + 1, int(b) + 1
                    zz = pauli_ev_oracle(rho, [PauliLabel("Z", i), PauliLabel("Z", j)])
                    yy = pauli_ev_oracle(rho, [PauliLabel("Y", i), PauliLabel("Y", j)])
                    assert abs(table.zz[q] - zz) <= 1e-10, (n, i, j)
                    assert abs(table.yy[q] - yy) <= 1e-10, (n, i, j)

    def test_layout(self):
        table = correlator_table(random_kernel_matrix(5, seed=2))
        assert table.z.shape == (5,) and table.yx.shape == (5, 5)
        assert table.zz.shape == table.yy.shape == (10,)
        assert np.all(np.diag(table.yx) == 0.0)

    def test_old_layout_rejected(self):
        n = 3
        with pytest.raises(ValueError, match=r"zz of shape \(3, 3\)"):
            CorrelatorTable(z=np.ones(n), zz=np.eye(n), yy=np.zeros(3), yx=np.zeros((n, n)))
        with pytest.raises(ValueError, match=r"yy of shape \(2,\)"):
            CorrelatorTable(z=np.ones(n), zz=np.zeros(3), yy=np.zeros(2), yx=np.zeros((n, n)))
        with pytest.raises(ValueError, match=r"yx of shape \(6,\)"):
            CorrelatorTable(z=np.ones(n), zz=np.zeros(3), yy=np.zeros(3), yx=np.zeros(6))

    def test_relabelling_permutes_the_table(self):
        perm = [3, 0, 4, 2, 1]
        km = random_kernel_matrix(5, seed=9)
        t, tp = correlator_table(km), correlator_table(permuted(km, perm))
        ix = np.ix_(perm, perm)
        assert np.allclose(tp.z, t.z[perm], rtol=0, atol=1e-15)
        assert np.allclose(tp.yx, t.yx[ix], rtol=0, atol=1e-15)
        for name in ("zz", "yy"):
            assert np.allclose(pair_matrix(5, getattr(tp, name)),
                               pair_matrix(5, getattr(t, name))[ix], rtol=0, atol=1e-15)

    def test_row_blocks_agree_with_one_block(self, monkeypatch):
        # one pair per block, three pairs per block, and a single block
        for n in (1, 2, 3, 54):
            km = random_kernel_matrix(n, seed=4)
            runs = []
            for chunk in (n, 3 * n, 1 << 30):
                monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", chunk)
                every = np.ones(n * (n - 1) // 2, dtype=bool)
                sizes = [len(a) for _, a, _ in detector.pair_blocks(n, every)]
                assert sum(sizes) == len(every) and max(sizes, default=0) <= chunk // n
                exact = correlator_table(km)
                runs.append((exact, sample_table(exact, 100, seed=n)))
            for exact, sampled in runs[1:]:
                for name in ("z", "zz", "yy", "yx"):
                    for got, want in ((exact, runs[0][0]), (sampled, runs[0][1])):
                        u, v = getattr(got, name), getattr(want, name)
                        assert u.shape == v.shape and u.tobytes() == v.tobytes(), (n, name)

    def test_pair_blocks_cover_the_pairs_in_row_major_order(self, monkeypatch):
        monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", 3 * 6)  # three pairs per block
        blocks = list(detector.pair_blocks(6, np.ones(15, dtype=bool)))
        assert [at.tolist() for at, _, _ in blocks] == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11], [12, 13, 14]]
        a, b = (np.concatenate(col) for col in zip(*(block[1:] for block in blocks)))
        iu = np.triu_indices(6, 1)
        assert np.array_equal(a, iu[0]) and np.array_equal(b, iu[1])
        # only the marked pairs, and no block without one
        marked = np.zeros(15, dtype=bool)
        marked[[1, 2, 9, 14]] = True
        blocks = list(detector.pair_blocks(6, marked))
        assert [at.tolist() for at, _, _ in blocks] == [[1, 2], [9], [14]]
        assert [(a.tolist(), b.tolist()) for _, a, b in blocks] == [
            ([0, 0], [2, 3]), ([2], [3]), ([4], [5])]
        assert not list(detector.pair_blocks(6, np.zeros(15, dtype=bool)))
        for n in (0, 1):
            assert not list(detector.pair_blocks(n, np.zeros(0, dtype=bool)))

    def test_pair_blocks_run_over_a_stack(self, monkeypatch):
        # 3 tables of 15 pairs in blocks of 4 rows: blocks 3, 7 and 11 span two tables
        monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", 4 * 6)
        blocks = list(detector.pair_blocks(6, np.ones(45, dtype=bool)))
        assert [at[0] for at, _, _ in blocks] == list(range(0, 45, 4))
        a, b = (np.concatenate(col) for col in zip(*(block[1:] for block in blocks)))
        iu = np.triu_indices(6, 1)
        assert np.array_equal(a, np.tile(iu[0], 3)) and np.array_equal(b, np.tile(iu[1], 3))
        # the block of rows 12-15 spans tables 0 and 1: pair 14 of one, pair 0 of the next
        marked = np.zeros(45, dtype=bool)
        marked[[14, 15]] = True
        [(at, a, b)] = detector.pair_blocks(6, marked)
        assert at.tolist() == [14, 15] and a.tolist() == [4, 0] and b.tolist() == [5, 1]

    @staticmethod
    def lattice_kernels(state, n_space, n_time):
        # 10 ell spacing at lambda = 2 pi, off a non-round origin
        spec = LatticeSpec(n_space, n_time, 10.0, 10.0, Event(1.234567, -3.5, 2.25, 0.1))
        return assemble_kernels(state, build_lattice(spec), 2 * math.pi)

    @staticmethod
    def block_sparse_kernels():
        # G nonzero in columns 2, 4 and 6 only (1-based), on both sides of the
        # diagonal (the labels are not in time order); pairs such as (2, 6)
        # and (2, 7) hold a nonzero column at i, and (1, 4) and (3, 6) one at
        # j, whose factor (cos 2G_ji, cos 2G_ij) must be left out
        km = random_kernel_matrix(8, seed=31)
        GR = np.zeros((8, 8))
        for (i, k), g in {(6, 2): 0.25, (7, 2): -0.2, (1, 4): 0.15, (8, 4): 0.3,
                          (3, 6): -0.1, (7, 6): 0.2}.items():
            GR[i - 1, k - 1] = g
        return KernelMatrix(H=km.H + 0.5 * np.eye(8), GR=GR)

    @pytest.mark.parametrize("case", ["thermal-54", "vacuum-16", "block-sparse", "n1", "n2",
                                      "zero-gr"])
    def test_lattice_shapes_match_closed_forms(self, case):
        km = {
            "thermal-54": lambda: self.lattice_kernels(FieldState.thermal(50.0), 3, 2),
            "vacuum-16": lambda: self.lattice_kernels(FieldState.vacuum(), 2, 2),
            "block-sparse": self.block_sparse_kernels,
            "n1": lambda: plain_kernels(1, h=[[0.4]]),
            "n2": lambda: random_kernel_matrix(2, seed=5),
            "zero-gr": lambda: KernelMatrix(H=random_kernel_matrix(5, seed=6).H,
                                            GR=np.zeros((5, 5))),
        }[case]()
        n, table = km.n, correlator_table(km)
        assert np.any(km.GR != 0.0) == (case not in ("n1", "zero-gr"))
        if case == "block-sparse":
            assert np.count_nonzero(np.any(km.GR != 0.0, axis=0)) == 3
        rho = density_matrix(km) if n <= 10 else None
        if n == 1:
            assert table.z[0] == math.exp(-0.4)
            assert abs(table.z[0] - pauli_ev_oracle(rho, [PauliLabel("Z", 1)])) <= 1e-10
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                for kind, ops in KIND_OPS.items():
                    got = table_entry(table, i, j, kind)
                    assert abs(got - closed_form(km, i, j, kind)) <= 1e-14, (i, j, kind)
                    if rho is not None:
                        assert abs(got - pauli_ev_oracle(rho, ops(i, j))) <= 1e-10, (i, j, kind)

    @pytest.mark.parametrize("case", ["random", "thermal-54", "vacuum-81", "strong"])
    def test_series_matches_exact_path(self, monkeypatch, case):
        # the series pairs against the per-pair products (every pair exact at
        # radius 0); "strong" has rows with |tan 2G| >= 1, whose pairs keep
        # the exact path bit for bit
        kms = {
            "random": lambda: list(kernel_draws(range(2, 9), range(3))),
            "thermal-54": lambda: [self.lattice_kernels(FieldState.thermal(50.0), 3, 2)],
            "vacuum-81": lambda: [self.lattice_kernels(FieldState.vacuum(), 3, 3)],
            "strong": lambda: [self.strong_rows(km) for km in kernel_draws([6, 8], range(3))],
        }[case]()
        tables = [correlator_table(km) for km in kms]
        radius = detector._SERIES_RADIUS
        monkeypatch.setattr(detector, "_SERIES_RADIUS", 0.0)
        met = {True: 0, False: 0}
        for km, got in zip(kms, tables):
            want = correlator_table(km)
            assert got.z.tobytes() == want.z.tobytes() and got.yx.tobytes() == want.yx.tobytes()
            t = np.tan(2.0 * km.GR)
            np.fill_diagonal(t, 0.0)
            kept = np.all(np.abs(t) < 1.0, axis=1)
            bound = np.max(np.abs(t), axis=1)
            for q, (a, b) in enumerate(zip(*np.triu_indices(km.n, 1))):
                series = bool(kept[a] and kept[b] and bound[a] * bound[b] < radius)
                met[series] += 1
                if series:
                    assert abs(got.zz[q] - want.zz[q]) <= 1e-14, (a, b)
                    assert abs(got.yy[q] - want.yy[q]) <= 1e-14, (a, b)
                else:
                    assert got.zz[q] == want.zz[q] and got.yy[q] == want.yy[q], (a, b)
        assert met[True] > 0 and (met[False] > 0 or case != "strong"), met

    @staticmethod
    def strong_rows(km):
        # the last detector with 2G = 1.8 to the first (cos 2G < 0), the one
        # before it with 2G = 1 (tan 2G > 1); the labels need not be in time order
        GR = km.GR.copy()
        GR[-1, 0], GR[-2, 0] = 0.9, 0.5
        return KernelMatrix(H=km.H + 2.0 * np.eye(km.n), GR=GR)

    def test_negative_cos_row_takes_the_series(self, monkeypatch):
        # the last detector at 2G = pi - 0.2 to the first: cos 2G < 0 but
        # |tan 2G| = 0.2, so the series rule that the inversion shares takes
        # the pairs of that row
        pair_blocks, marked = detector.pair_blocks, []

        def record(n, exact):
            marked.append(exact.copy())
            return pair_blocks(n, exact)

        checked = 0
        for km in kernel_draws([6, 8], range(3)):
            GR = km.GR.copy()
            GR[-1, 0] = (math.pi - 0.2) / 2.0
            km = KernelMatrix(H=km.H + 2.0 * np.eye(km.n), GR=GR)
            assert np.cos(2.0 * GR[-1, 0]) < 0.0
            monkeypatch.setattr(detector, "pair_blocks", record)
            marked.clear()
            got = correlator_table(km)
            row = [pair_position(km.n, i, km.n) for i in range(1, km.n)]
            assert not any(np.any(m[row]) for m in marked)  # no row pair on the exact path
            monkeypatch.setattr(detector, "_SERIES_RADIUS", 0.0)
            want = correlator_table(km)
            monkeypatch.undo()
            rho = density_matrix(km)
            for i, q in enumerate(row, 1):
                assert abs(got.zz[q] - want.zz[q]) <= 1e-14, i
                assert abs(got.yy[q] - want.yy[q]) <= 1e-14, i
                for kind in ("ZZ", "YY"):
                    oracle = pauli_ev_oracle(rho, KIND_OPS[kind](i, km.n))
                    assert abs(table_entry(got, i, km.n, kind) - oracle) <= 1e-10, (i, kind)
            checked += len(row)
        assert checked == 72

    @pytest.mark.parametrize("state", ["vacuum", "thermal"])
    def test_exact_path_matches_high_precision_products(self, state):
        # the 81-region lattice at 2 ell: pairs past the series bound take
        # the per-pair products 1 +- T_ik T_jk, each relative to a 40-digit
        # product of cos(2G_ik -+ 2G_jk) over the float entries of H and GR
        mpmath = pytest.importorskip("mpmath")
        fs = FieldState.vacuum() if state == "vacuum" else FieldState.thermal(50.0)
        km = assemble_kernels(fs, build_lattice(LatticeSpec(3, 3, 2.0, 2.0)), 2 * math.pi)
        table = correlator_table(km)
        t = np.tan(2.0 * km.GR)
        np.fill_diagonal(t, 0.0)
        kept = np.all(np.abs(t) < 1.0, axis=1)
        bound = np.max(np.abs(t), axis=1)
        a, b = np.triu_indices(km.n, 1)
        off = np.flatnonzero(~(kept[a] & kept[b] & (bound[a] * bound[b] < 0.5)))
        assert len(off) > 1000
        H, G2 = ([[mpmath.mpf(v) for v in row] for row in m.tolist()]
                 for m in (km.H, 2.0 * km.GR))  # 2G is exact in binary
        with mpmath.workdps(40):
            for q in off[::len(off) // 120].tolist():
                i, j = int(a[q]), int(b[q])
                others = [k for k in range(km.n) if k not in (i, j)]
                plus = mpmath.exp(2 * H[i][j]) * mpmath.fprod(
                    mpmath.cos(G2[i][k] - G2[j][k]) for k in others)
                minus = mpmath.exp(-2 * H[i][j]) * mpmath.fprod(
                    mpmath.cos(G2[i][k] + G2[j][k]) for k in others)
                pref = mpmath.exp(-H[i][i] - H[j][j]) / 2
                for got, want in ((table.zz[q], pref * (plus + minus)),
                                  (table.yy[q], pref * (plus - minus))):
                    assert abs((got - want) / want) <= 1e-14, (i, j)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_exact_path_near_vanishing_cos(self, eps):
        # up to three entries at 2G = pi/2 +- eps: |T| ~ 1/eps, c ~ eps, so
        # the rows leave the series and z_i z_j / (c_ij c_ji) and the factors
        # 1 +- T_ik T_jk carry large cancelling magnitudes
        rng = np.random.default_rng(7)
        for count in (1, 2, 3):
            for km in kernel_draws([4, 6], range(2)):
                GR = km.GR.copy()
                below = np.flatnonzero(GR != 0.0)
                for at in rng.choice(below, count, replace=False):
                    GR.flat[at] = (math.pi / 2.0 + rng.choice([-eps, eps])) / 2.0
                E = GR - GR.T
                w_min = float(np.linalg.eigvalsh(0.5 * (km.H + 1j * E)).min())
                km = KernelMatrix(H=km.H + 2.0 * max(0.0, 1e-6 - w_min) * np.eye(km.n), GR=GR)
                table, rho = correlator_table(km), density_matrix(km)
                assert np.max(np.abs(np.tan(2.0 * GR))) > 0.5 / eps
                for i in range(1, km.n + 1):
                    for j in range(i + 1, km.n + 1):
                        for kind in ("ZZ", "YY"):
                            want = pauli_ev_oracle(rho, KIND_OPS[kind](i, j))
                            got = table_entry(table, i, j, kind)
                            assert abs(got - want) <= 1e-14, (count, i, j, kind)

    @staticmethod
    def strong_coupling_kernels(case):
        # H ~ 400 on and near the diagonal: z_i z_j underflows to 0 where
        # cosh(2 H_ij + O) or e^(2 H_ij) overflows, which the table once wrote
        # as 0 * inf = NaN; "lattice-8" is the 2^3 x 1 lattice at 0.3 ell
        # spacing and lambda/ell = 2 pi / 0.0353, "per-pair" adds rows with
        # |tan 2G| >= 1 so that pairs leave the series
        if case == "two-detector":
            return [plain_kernels(2, h=[[400.0, 390.0], [390.0, 400.0]],
                                  gr=[[0.0, 0.0], [0.1, 0.0]])]
        if case == "lattice-8":
            lattice = build_lattice(LatticeSpec(2, 1, 0.3, 0.3))
            return [assemble_kernels(FieldState.vacuum(), lattice, 2 * math.pi / 0.0353)]
        kms = []
        for seed in range(3):
            km = random_kernel_matrix(5, seed=seed)
            GR = km.GR.copy()
            GR[-1, 0], GR[-2, 0] = 0.9, 0.5
            kms.append(KernelMatrix(H=km.H + 390.0 * np.ones((5, 5)) + 10.0 * np.eye(5), GR=GR))
        return kms

    @pytest.mark.parametrize("case", ["two-detector", "lattice-8", "per-pair"])
    def test_strong_coupling_matches_oracle(self, case):
        for km in self.strong_coupling_kernels(case):
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                table = correlator_table(km)
            assert np.all(table.z < 1e-170)
            rho = density_matrix(km)
            for i in range(1, km.n + 1):
                for j in range(i + 1, km.n + 1):
                    for kind in ("ZZ", "YY"):
                        want = pauli_ev_oracle(rho, KIND_OPS[kind](i, j))
                        got = table_entry(table, i, j, kind)
                        assert abs(got - want) <= 1e-10 * abs(want), (i, j, kind)

    def test_yy_strictly_inside_zz(self):
        # the arctanh domain of the noiseless reconstruction, for every pair
        for km in kernel_draws([5, 6], range(10)):
            table = correlator_table(km)
            assert np.all(table.zz > 0)
            assert np.all(np.abs(table.yy) < table.zz)


def ev_table(z, zz, yy, yx):
    return CorrelatorTable(z=np.asarray(z, float), zz=np.asarray(zz, float),
                           yy=np.asarray(yy, float), yx=np.asarray(yx, float))


def constant_table(n, value):
    """Every sampled observable has mean ``value``."""
    off = ~np.eye(n, dtype=bool)
    pairs = np.full(n * (n - 1) // 2, value)
    return ev_table(np.full(n, value), pairs, pairs, np.where(off, value, 0.0))


class TestSampler:
    def test_degenerate(self):
        exact = ev_table(z=[1.0, -1.0, 1.0],
                         zz=[-1, 1, -1],  # pairs (1,2), (1,3), (2,3)
                         yy=np.ones(3),
                         yx=[[0, 1, -1], [-1, 0, 1], [1, 1, 0]])
        got = sample_table(exact, 100, seed=4)
        for name in ("z", "zz", "yy", "yx"):
            assert np.array_equal(getattr(got, name), getattr(exact, name))

    def test_unbiased_scale(self):
        # binomial standard error 1e-3 at 1e6 shots; 5 sigma bound on every entry
        got = sample_table(constant_table(3, 0.0), 10**6, seed=123)
        off = ~np.eye(3, dtype=bool)
        for values in (got.z, got.zz, got.yy, got.yx[off]):
            assert np.max(np.abs(values)) <= 5e-3

    def test_deterministic(self):
        exact = correlator_table(random_kernel_matrix(4, seed=3))
        a = sample_table(exact, 1000, seed=77)
        b = sample_table(exact, 1000, seed=77)
        c = sample_table(exact, 1000, seed=78)
        for name in ("z", "zz", "yy", "yx"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(a.yx, c.yx)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_table(constant_table(2, 1.5), 10, seed=0)
        with pytest.raises(ValueError):
            sample_table(constant_table(2, 0.0), 0, seed=0)

    @pytest.mark.parametrize("shots", [2.5, True, 10**19, 2**63, 0, -3, np.True_,
                                       np.float64(10.0), "10", None])
    def test_shots_must_be_integers_in_range(self, shots):
        # 2.5 would draw binomial(2, p) and divide by 2.5, True would mean one
        # shot, and 10^19 overflows the draw's int64 count
        exact = constant_table(2, 0.0)
        with pytest.raises(ValueError, match="shots must be integers in"):
            sample_table(exact, shots, seed=0)
        with pytest.raises(ValueError, match="shots must be integers in"):
            sample_table(exact, [10, shots], seed=[0, 1])

    def test_integer_shots_accepted_up_to_int64(self):
        exact = constant_table(2, 0.0)
        for shots in (1, np.int64(7), np.uint8(3), 2**63 - 1):
            got = sample_table(exact, shots, seed=0)
            assert got.z.shape == (2,) and np.all(np.abs(got.z) <= 1.0)


def four_draws(exact, shots, seed):
    """The sampler written as one binomial draw per correlator family (z, zz,
    yy, yx off the diagonal, in that order) from one generator: the stream
    that a table's single concatenated draw reproduces bit for bit."""
    rng = np.random.default_rng(seed)
    off = ~np.eye(exact.n, dtype=bool)

    def draw(ev):
        return 2.0 * rng.binomial(shots, np.clip((1.0 + ev) / 2.0, 0.0, 1.0)) / shots - 1.0

    z, zz, yy, yx_off = (draw(ev) for ev in (exact.z, exact.zz, exact.yy, exact.yx[off]))
    yx = np.zeros((exact.n, exact.n))
    yx[off] = yx_off
    return CorrelatorTable(z=z, zz=zz, yy=yy, yx=yx)


def same_table(got, want):
    return all(getattr(got, name).shape == getattr(want, name).shape
               and getattr(got, name).tobytes() == getattr(want, name).tobytes()
               for name in ("z", "zz", "yy", "yx"))


class TestStack:
    """A stack of sampled tables is its tables, each sampled alone."""

    def test_one_table_matches_four_family_draws(self):
        for n in (1, 2, 5, 16):
            exact = correlator_table(random_kernel_matrix(n, n))
            for seed in range(8):
                for shots in (1, 10, 1000, 10**7):
                    assert same_table(sample_table(exact, shots, seed),
                                      four_draws(exact, shots, seed)), (n, seed, shots)

    def test_stack_matches_single_tables(self):
        exact = correlator_table(random_kernel_matrix(6, 2))
        shots = [10, 1000, 7, 10**6, 1000]
        seeds = [np.random.SeedSequence(entropy=5, spawn_key=(s, r)) for r, s in enumerate(shots)]
        stack = sample_table(exact, shots, seeds)
        assert stack.n == 6
        assert (stack.z.shape, stack.zz.shape, stack.yy.shape, stack.yx.shape) == (
            (5, 6), (5, 15), (5, 15), (5, 6, 6))
        assert np.all(np.diagonal(stack.yx, axis1=1, axis2=2) == 0.0)
        for r, (k, seed) in enumerate(zip(shots, seeds)):
            one = sample_table(exact, k, seed)
            assert same_table(CorrelatorTable(*(getattr(stack, name)[r]
                                                for name in ("z", "zz", "yy", "yx"))), one)
            assert np.all(np.diag(one.yx) == 0.0)
        # one seed through the stacked and the unstacked call
        single = sample_table(exact, shots[:1], seeds[:1])
        assert single.z.shape == (1, 6) and single.yx.shape == (1, 6, 6)
        assert same_table(CorrelatorTable(single.z[0], single.zz[0], single.yy[0],
                                          single.yx[0]), sample_table(exact, 10, seeds[0]))

    def test_stack_arguments(self):
        exact = constant_table(3, 0.0)
        with pytest.raises(ValueError, match="2 shot counts need as many seeds, got 3"):
            sample_table(exact, [10, 10], [0, 1, 2])
        with pytest.raises(ValueError, match="one table, not a stack"):
            sample_table(sample_table(exact, [10], [0]), 10, 0)
        empty = sample_table(exact, [], [])
        assert empty.z.shape == (0, 3) and empty.yx.shape == (0, 3, 3)

    def test_stack_layout(self):
        z, pairs, yx = np.ones((3, 4)), np.zeros((3, 6)), np.arange(48.0).reshape(3, 4, 4)
        stack = CorrelatorTable(z=z, zz=pairs, yy=pairs, yx=yx)
        assert stack.n == 4
        for r in range(3):
            assert np.array_equal(stack.xy[r], yx[r].T)
        with pytest.raises(ValueError, match=r"zz of shape \(2, 6\) for 4 detectors, "
                                             r"need \(3, 6\)"):
            CorrelatorTable(z=z, zz=np.zeros((2, 6)), yy=pairs, yx=yx)
        with pytest.raises(ValueError, match=r"yx of shape \(4, 4\)"):
            CorrelatorTable(z=z, zz=pairs, yy=pairs, yx=yx[0])

    def test_stack_size_within_budget(self, monkeypatch):
        for budget, n, want in ((1 << 14, 16, 32), (1536, 16, 3), (100, 16, 1), (10, 0, 10)):
            monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", budget)
            assert detector.stack_size(n) == want


class TestRecords:
    """The table holds, once, every correlator a pair inversion reads."""

    def test_exact_record_contents(self):
        km = random_kernel_matrix(4, seed=5)
        table = correlator_table(km)
        assert table.n == 4
        assert table.zz[1] == pytest.approx(closed_form(km, 1, 3, "ZZ"), abs=1e-14)
        # the third-detector cross correlators of pair (1, 3) are rows of yx
        assert table.yx[0, 1] == pytest.approx(closed_form(km, 1, 2, "YiXj"), abs=1e-14)
        assert table.xy[3, 2] == pytest.approx(closed_form(km, 4, 3, "XiYj"), abs=1e-14)
        assert table.xy[3, 2] == table.yx[2, 3]

    def test_sampled_record_determinism_and_convergence(self):
        km = random_kernel_matrix(3, seed=6)
        exact = correlator_table(km)
        a = sample_table(exact, shots=10**6, seed=9)
        b = sample_table(exact, shots=10**6, seed=9)
        assert np.array_equal(a.zz, b.zz) and np.array_equal(a.yx, b.yx)
        assert np.all(np.diag(a.yx) == 0.0)
        off = ~np.eye(3, dtype=bool)
        assert np.max(np.abs(a.yx - exact.yx)[off]) <= 5e-3
        for name in ("z", "zz", "yy"):
            assert np.max(np.abs(getattr(a, name) - getattr(exact, name))) <= 5e-3


class TestRandomKernelMatrix:
    def test_generator_constraints(self):
        for seed in range(10):
            km = random_kernel_matrix(5, seed=seed)
            KernelMatrix(H=km.H, GR=km.GR)
            assert np.max(np.abs(km.GR)) <= 0.3
            assert np.all(np.tril(km.GR, -1) == km.GR)  # strictly lower triangular
            for i in range(5):
                for j in range(5):
                    if i != j:
                        assert abs(km.H[i, j]) <= min(km.H[i, i], km.H[j, j]) + 1e-12
            w_min = np.linalg.eigvalsh(0.5 * (km.H + 1j * km.E)).min()
            assert w_min >= 0.0

    @staticmethod
    def loop_reference(n, seed):
        """The generator written pair by pair: one uniform draw per GR entry
        below the diagonal in row-major order, and the diagonal boost as the
        running maximum over the off-diagonal pairs."""
        rng = np.random.default_rng(seed)
        GR = np.zeros((n, n))
        for a in range(n):
            for b in range(a):
                GR[a, b] = rng.uniform(-0.3, 0.3)
        E = GR - GR.T
        A = rng.normal(size=(n, n))
        H = A @ A.T / n
        boost = 0.0
        for a in range(n):
            for b in range(n):
                if a != b:
                    boost = max(boost, abs(H[a, b]) - min(H[a, a], H[b, b]) + 0.05)
        H += boost * np.eye(n)
        w_min = float(np.linalg.eigvalsh(0.5 * (H + 1j * E)).min())
        if w_min < 1e-6:
            H += 2.0 * (1e-6 - w_min) * np.eye(n)
        return H, GR

    def test_matches_loop_reference_bitwise(self):
        for n in range(1, 13):
            for seed in range(40):
                km = random_kernel_matrix(n, seed)
                H, GR = self.loop_reference(n, seed)
                assert km.H.tobytes() == H.tobytes(), (n, seed)
                assert km.GR.tobytes() == GR.tobytes(), (n, seed)
