"""End-to-end acceptance suite.

Each test pins one headline guarantee of the toolkit at its stated tolerance
and runtime budget: the 2-level baseline, classification oracles, the
antidegradability equivalence on full parameter grids, the 4-level worked
example's capacity regions, capacity monotonicity half-spaces, the 3-level
connecting-channel iteration, algebraic property suites, and output
determinism.
"""
import itertools
import json
import time

import numpy as np

from madcap.capacity import adc_capacity, certify_capacity
from madcap.channel import (TransitionMatrix, channel_map, compose,
                            decompose_by_level, decompose_single_decays,
                            random_transition_matrix,
                            recompose_single_decays)
from madcap.complementary import complementary_apply, env_dim, \
    stinespring_isometry
from madcap.inverse import mad_inverse
from madcap.linalg import (min_eigenvalues, partial_trace, psd_rule,
                           random_density_matrix)
from madcap.structure import (connecting_choi, connecting_eigenvalues,
                              is_antidegradable, is_degradable,
                              mad_choi_states, monotonicity_certificate,
                              two_extension_taus)

from test_structure import example_channel, sparse_channel


# ---------------------------------------------------------------------------
# vectorized helpers for the full-grid antidegradability equivalence


def admissible_rows(width, steps):
    """All decay tuples with entries k/steps and total <= 1, shape (n, width)."""
    rows = [c for c in itertools.product(range(steps + 1), repeat=width)
            if sum(c) <= steps]
    return np.array(rows, dtype=float) / steps


def row_diagonal(rows, steps):
    """Survival probability 1 - sum(row), snapped back onto the k/steps grid
    so that boundary points compare exactly against the decay entries."""
    return np.rint((1.0 - rows.sum(axis=1)) * steps) / steps


def lg_f(x):
    """Vectorized log2 of f(x) = x^x / (1+x)^(1+x), f(0) = 1."""
    x = np.asarray(x, dtype=float)
    term = np.where(x > 0, x * np.log2(np.where(x > 0, x, 1.0)), 0.0)
    return term - (1.0 + x) * np.log2(1.0 + x)


def row_witness(rows, steps):
    """Per row config: the positive-capacity witness if the row violates
    antidegradability (gamma_j0 < gamma_jj), else -inf."""
    g0 = rows[:, 0]
    gjj = row_diagonal(rows, steps)
    w = 0.5 * (lg_f(g0) - lg_f(gjj))
    return np.where(g0 < gjj, w, -np.inf)


def row_antidegradable(rows, steps):
    return rows[:, 0] >= row_diagonal(rows, steps)


def reference_tau(tm):
    """Scalar two-extension assembly, entry by entry: the independent
    reference for the library's table-driven two_extension_taus."""
    d = tm.dim
    g = tm.gamma
    p = np.zeros((d, d))
    for j in range(1, d):
        if g[j, j] < 1.0:
            p[j, :j] = g[j, :j] / (1.0 - g[j, j])
    n = d ** 3
    tau = np.zeros((n, n))

    def idx(a, b1, b2):
        return (a * d + b1) * d + b2

    # Diagonal-in-A part.
    tau[idx(0, 0, 0), idx(0, 0, 0)] = g[0, 0]
    for j in range(1, d):
        delta = g[j, 0] - g[j, j]
        r1, r2 = idx(j, 0, j), idx(j, j, 0)
        tau[r1, r1] += g[j, j]
        tau[r2, r2] += g[j, j]
        tau[r1, r2] += g[j, j]
        tau[r2, r1] += g[j, j]
        for i in range(1, j):
            tau[idx(j, i, i), idx(j, i, i)] += g[j, i]
        for i in range(j):
            tau[idx(j, 0, i), idx(j, 0, i)] += p[j, i] * delta
        for i in range(1, j):
            tau[idx(j, i, 0), idx(j, i, 0)] += p[j, i] * delta
            tau[idx(j, i, i), idx(j, i, i)] -= p[j, i] * delta
    # Off-diagonal-in-A part.
    surv = np.sqrt(np.diag(g))
    for j in range(d):
        for i in range(d):
            if i == j:
                continue
            c = surv[j] * surv[i]
            tau[idx(j, 0, j), idx(i, 0, i)] += c
            tau[idx(j, j, 0), idx(i, i, 0)] += c
            if j > 0 and i > 0:
                tau[idx(j, j, 0), idx(i, 0, i)] += c
                tau[idx(j, 0, j), idx(i, i, 0)] += c
    return tau / d


def reference_choi(tm):
    """Scalar MAD Choi-state assembly: the reference for mad_choi_states."""
    d = tm.dim
    g = tm.gamma
    c = np.zeros((d * d, d * d))
    for j in range(d):
        for i in range(j + 1):
            c[j * d + i, j * d + i] = g[j, i]
    surv = np.sqrt(np.diag(g))
    for j in range(d):
        for i in range(d):
            if i != j:
                c[j * d + j, i * d + i] = surv[j] * surv[i]
    return c / d


def batch_min_eig_ok(tau, tol=1e-9):
    """PSD check for a batch: sector-split minimum eigenvalues, against
    linalg.psd_rule with scale max(1, max |entry|) (from max and min: tau is
    real)."""
    scale = np.maximum(1.0, np.maximum(tau.max(axis=(1, 2)),
                                       -tau.min(axis=(1, 2))))
    return bool(np.all(psd_rule(min_eigenvalues(tau), scale, tol)))


def gamma_batch_d3(rows1, rows2, i1, i2, steps):
    n = i1.size
    g = np.zeros((n, 3, 3))
    g[:, 0, 0] = 1.0
    g[:, 1, 0] = rows1[i1, 0]
    g[:, 1, 1] = row_diagonal(rows1, steps)[i1]
    g[:, 2, :2] = rows2[i2]
    g[:, 2, 2] = row_diagonal(rows2, steps)[i2]
    return g


def gamma_batch_d4(rows1, rows2, rows3, i1, i2, i3, steps):
    n = i1.size
    g = np.zeros((n, 4, 4))
    g[:, 0, 0] = 1.0
    g[:, 1, 0] = rows1[i1, 0]
    g[:, 1, 1] = row_diagonal(rows1, steps)[i1]
    g[:, 2, :2] = rows2[i2]
    g[:, 2, 2] = row_diagonal(rows2, steps)[i2]
    g[:, 3, :3] = rows3[i3]
    g[:, 3, 3] = row_diagonal(rows3, steps)[i3]
    return g


def check_extension_batch(d, big_g):
    """Assert every point in the batch has a PSD two-extension whose partial
    traces both reproduce the Choi state to 1e-10."""
    tau = two_extension_taus(big_g)
    choi = mad_choi_states(big_g)
    t = tau.reshape(tau.shape[0], d, d, d, d, d, d)
    tr_b2 = np.einsum('nabcdec->nabde', t).reshape(choi.shape)
    tr_b1 = np.einsum('nabcdbe->nacde', t).reshape(choi.shape)
    assert np.max(np.abs(tr_b2 - choi)) < 1e-10
    assert np.max(np.abs(tr_b1 - choi)) < 1e-10
    assert batch_min_eig_ok(tau)


def test_acceptance_1_adc_anchors_and_monotone_sweep():
    start = time.time()
    assert abs(adc_capacity(0.0) - 1.0) < 1e-7
    assert abs(adc_capacity(0.5)) < 1e-7
    values = [adc_capacity(round(0.01 * i, 10)) for i in range(101)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-7
    assert values[-1] == 0.0
    assert time.time() - start < 10.0


def test_acceptance_2_d2_classification_oracle():
    start = time.time()
    step = 0.01
    for i in range(101):
        g = round(step * i, 10)
        tm = TransitionMatrix(2, {(1, 0): g} if g > 0 else {})
        res = is_degradable(tm)
        assert res.antidegradable == (g >= 0.5)
        if g >= 1.0:
            assert res.degradable == "unknown"
        elif g <= 0.5 - step - 1e-12:
            assert res.degradable == "yes", (g, res)
        elif g >= 0.5 + step + 1e-12:
            assert res.degradable == "no", (g, res)
        else:  # within one grid step of the flip
            assert res.degradable in ("yes", "no", "boundary")
    assert time.time() - start < 30.0


class TestAcceptance3AntidegradabilityEquivalence:
    def test_vectorized_assembly_matches_reference(self, rng):
        # byte for byte, on channels with and without a PSD two-extension
        for d in (2, 3, 4, 5):
            tms = [random_transition_matrix(d, rng) for _ in range(12)]
            tms += [sparse_channel(d, rng) for _ in range(12)]
            anti = [is_antidegradable(tm) for tm in tms]
            assert any(anti) and not all(anti)
            stack = np.stack([tm.gamma for tm in tms])
            taus, chois = two_extension_taus(stack), mad_choi_states(stack)
            for tm, tau, choi in zip(tms, taus, chois):
                assert tau.tobytes() == reference_tau(tm).tobytes()
                assert choi.tobytes() == reference_choi(tm).tobytes()

    def test_d3_grid(self):
        start = time.time()
        steps = 20
        rows1 = admissible_rows(1, steps)
        rows2 = admissible_rows(2, steps)
        a1 = row_antidegradable(rows1, steps)
        a2 = row_antidegradable(rows2, steps)
        w1, w2 = row_witness(rows1, steps), row_witness(rows2, steps)
        # every non-antidegradable point carries a strictly positive witness
        witness = np.maximum(w1[:, None], w2[None, :])
        anti = a1[:, None] & a2[None, :]
        assert np.all(witness[~anti] > 1e-9)
        assert np.all(np.isneginf(witness[anti]))
        # every antidegradable point yields a valid PSD two-extension
        i1, i2 = np.nonzero(anti)
        big_g = gamma_batch_d3(rows1, rows2, i1, i2, steps)
        check_extension_batch(3, big_g)
        assert time.time() - start < 120.0

    def test_d4_grid(self):
        start = time.time()
        steps = 20
        rows1 = admissible_rows(1, steps)
        rows2 = admissible_rows(2, steps)
        rows3 = admissible_rows(3, steps)
        assert len(rows1) * len(rows2) * len(rows3) == 8591121
        a1, a2, a3 = (row_antidegradable(r, steps)
                      for r in (rows1, rows2, rows3))
        w1, w2, w3 = (row_witness(r, steps) for r in (rows1, rows2, rows3))
        witness = np.maximum(w1[:, None, None],
                             np.maximum(w2[None, :, None], w3[None, None, :]))
        anti = a1[:, None, None] & a2[None, :, None] & a3[None, None, :]
        assert np.all(witness[~anti] > 1e-9)
        assert np.all(np.isneginf(witness[anti]))
        del witness
        k1 = np.nonzero(a1)[0]
        k2 = np.nonzero(a2)[0]
        k3 = np.nonzero(a3)[0]
        m2, m3 = k2.size, k3.size
        total = k1.size * m2 * m3
        chunk = 2048
        for lo in range(0, total, chunk):
            flat = np.arange(lo, min(lo + chunk, total))
            i1 = k1[flat // (m2 * m3)]
            i2 = k2[(flat % (m2 * m3)) // m3]
            i3 = k3[flat % m3]
            big_g = gamma_batch_d4(rows1, rows2, rows3, i1, i2, i3, steps)
            check_extension_batch(4, big_g)
        assert time.time() - start < 600.0


class TestAcceptance4WorkedExample:
    def test_degradability_region(self):
        start = time.time()
        step = 0.02
        band = step + 1e-9
        for i in range(0, 51):
            for j in range(0, 51):
                g11 = round(step * i, 10)
                g33 = round(step * j, 10)
                if abs(g11 - 0.5) < band or abs(g33 - 0.5) < band:
                    continue  # one-grid-step boundary band
                tm = example_channel(1 - g11, (1 - g33) / 2, (1 - g33) / 2)
                got = is_degradable(tm).degradable in ("yes", "boundary")
                expect = g11 > 0.5 and g33 > 0.5
                assert got == expect, (g11, g33)
        assert time.time() - start < 300.0

    def test_constant_strip_matches_border_value(self):
        start = time.time()
        border = certify_capacity(example_channel(0.25, 0.25, 0.25))
        assert border.exact
        for j in range(1, 25):
            g33 = round(0.02 * j, 10)
            tm = example_channel(0.25, (1 - g33) / 2, (1 - g33) / 2)
            cert = certify_capacity(tm)
            assert cert.exact, g33
            assert abs(cert.value - border.value) <= 1e-6, (g33, cert.value)
        assert time.time() - start < 300.0

    def test_unit_capacity_quadrant(self):
        start = time.time()
        for i in range(1, 26):
            for j in range(1, 26):
                g11 = round(0.02 * i, 10)
                g33 = round(0.02 * j, 10)
                tm = example_channel(1 - g11, (1 - g33) / 2, (1 - g33) / 2)
                cert = certify_capacity(tm)
                assert cert.exact, (g11, g33, cert.kind)
                assert abs(cert.value - 1.0) <= 1e-6, (g11, g33, cert.value)
        assert time.time() - start < 900.0


class TestAcceptance5MonotonicityRegions:
    @staticmethod
    def _grid(step=0.05):
        steps = int(round(1 / step))
        for i10 in range(steps + 1):
            g10 = i10 * step
            if g10 >= 1.0 - 1e-9:
                continue  # survival of level 1 required for the inverse map
            for i20 in range(steps + 1):
                for i21 in range(steps + 1 - i20):
                    yield g10, i20 * step, i21 * step

    def test_gamma21_increase_half_space(self):
        start = time.time()
        step = 0.05
        for g10, g20, g21 in self._grid(step):
            g22 = 1.0 - g20 - g21
            eps = min(0.025, g22)
            if eps <= 1e-9:
                continue
            if abs(g20 - g10) <= step + 1e-9:
                continue  # one-grid-step boundary band
            decays = {k: v for k, v in
                      {(1, 0): g10, (2, 0): g20, (2, 1): g21}.items() if v > 0}
            tm = TransitionMatrix(4, decays)
            cert = monotonicity_certificate(
                tm, tm.with_decay(2, 1, g21 + eps))[1]
            assert cert.cp == (g20 > g10), (g10, g20, g21, cert.min_eig)
        assert time.time() - start < 600.0

    def test_gamma20_increase_half_space(self):
        start = time.time()
        step = 0.05
        for g10, g20, g21 in self._grid(step):
            g22 = 1.0 - g20 - g21
            eps = min(0.025, g22)
            if eps <= 1e-9:
                continue
            if abs(1.0 - g21 - g10) <= step + 1e-9:
                continue
            decays = {k: v for k, v in
                      {(1, 0): g10, (2, 0): g20, (2, 1): g21}.items() if v > 0}
            tm = TransitionMatrix(4, decays)
            cert = monotonicity_certificate(
                tm, tm.with_decay(2, 0, g20 + eps))[1]
            assert cert.cp == (1.0 - g21 - g10 > 0), (g10, g20, g21)
        assert time.time() - start < 600.0

    def test_left_certificate_requires_empty_top_row(self):
        # with gamma_32 = 0 the left map is a channel for any lower decays
        for g10, g20, g21 in itertools.product((0.0, 0.25, 0.6),
                                               (0.0, 0.3), (0.1, 0.4)):
            if g20 + g21 >= 1.0 - 0.05:
                continue
            decays = {k: v for k, v in
                      {(1, 0): g10, (2, 0): g20, (2, 1): g21}.items() if v > 0}
            tm = TransitionMatrix(4, decays)
            cert = monotonicity_certificate(
                tm, tm.with_decay(2, 1, g21 + 0.05))[0]
            assert cert.cp, (g10, g20, g21, cert.min_eig)
        # any decay out of the top level breaks it
        for g32 in (0.1, 0.3):
            for g10 in (0.1, 0.5):
                for g20, g21 in ((0.3, 0.2), (0.6, 0.1)):
                    tm = TransitionMatrix(4, {(1, 0): g10, (2, 0): g20,
                                              (2, 1): g21, (3, 2): g32})
                    cert = monotonicity_certificate(
                        tm, tm.with_decay(2, 1, g21 + 0.05))[0]
                    assert not cert.cp, (g32, g10, g20, g21)


class TestAcceptance6Mad3ConnectingChannel:
    def test_closed_form_eigenvalues_500_random(self, rng):
        start = time.time()
        for _ in range(500):
            g = float(rng.uniform(0.0, 0.99))
            w = float(rng.uniform(0.0, 1.0))
            k = float(rng.uniform(1.0, 1.999))
            c = connecting_choi(g, w, k)
            num = np.sort(np.linalg.eigvalsh((c + c.conj().T) / 2))
            ana = np.sort(np.concatenate(
                [connecting_eigenvalues(g, w, k), np.zeros(6)]))
            assert np.max(np.abs(num - ana)) < 1e-9
        assert time.time() - start < 120.0

    def test_psd_boundary_matches_halving_sequence(self):
        start = time.time()
        step = 0.02
        for n in range(5):
            g21 = 1.0 - 2.0 ** (-n)
            for k in (1.0, 1.25, 1.5, 1.75):
                bound = 1.0 - k / 2.0 ** (n + 1)
                for w in np.arange(0.0, 1.0 + 1e-12, step):
                    w = float(w)
                    if min(abs(w - bound), abs(w - g21)) <= step + 1e-9:
                        continue  # grid-resolution band at the borders
                    c = connecting_choi(g21, w, k)
                    scale = max(1.0, float(np.max(np.abs(c))))
                    lo = float(np.linalg.eigvalsh((c + c.conj().T) / 2)[0])
                    expect = g21 < w < bound or abs(w - g21) < 1e-12
                    assert (lo >= -1e-9 * scale) == expect, (n, k, w, lo)
        assert time.time() - start < 300.0

    def test_slice_certificates_match_adc_capacity(self):
        start = time.time()
        from madcap.capacity import mad3_acge_verification
        for g10 in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
            rep = mad3_acge_verification(g10, grid_step=0.05, iterations=3)
            assert abs(rep["certificate_value"] - adc_capacity(g10)) <= 1e-6
            assert rep["crosscheck"]["matches"], g10
            total = sum(kc["mismatches"] for s in rep["steps"]
                        for kc in s["k_checks"])
            assert total == 0, g10
        assert time.time() - start < 600.0


class TestAcceptance7AlgebraicProperties:
    def test_composition_matches_sequential_choi(self, rng):
        start = time.time()
        for _ in range(100):
            d = int(rng.integers(2, 6))
            a = random_transition_matrix(d, rng)
            b = random_transition_matrix(d, rng)
            seq = channel_map(a).then(channel_map(b))
            diff = channel_map(compose(a, b)).choi() - seq.choi()
            assert np.max(np.abs(diff)) < 1e-11
        assert time.time() - start < 300.0

    def test_decompositions_reconstruct(self, rng):
        for d in (2, 3, 4, 5):
            for _ in range(25):
                tm = random_transition_matrix(d, rng)
                prod = np.eye(d)
                for f in decompose_by_level(tm):
                    prod = prod @ f.gamma
                assert np.max(np.abs(prod - tm.gamma)) < 1e-12
                rec = recompose_single_decays(d, decompose_single_decays(tm))
                assert np.max(np.abs(rec.gamma - tm.gamma)) < 1e-12

    def test_inverse_round_trips(self, rng):
        done = 0
        while done < 100:
            d = int(rng.integers(2, 6))
            tm = random_transition_matrix(d, rng)
            if min(tm.gamma[k, k] for k in range(1, d)) < 0.15:
                continue
            done += 1
            ch = channel_map(tm)
            inv = mad_inverse(tm)
            for m in range(d):
                for n in range(d):
                    e = np.zeros((d, d), dtype=complex)
                    e[m, n] = 1.0
                    assert np.max(np.abs(inv(ch(e)) - e)) < 1e-10
                    assert np.max(np.abs(ch(inv(e)) - e)) < 1e-10

    def test_complementary_closed_form_vs_stinespring(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 6))
            tm = random_transition_matrix(d, rng)
            rho = random_density_matrix(d, rng)
            v = stinespring_isometry(tm)
            env = partial_trace(v @ rho @ v.conj().T, [d, env_dim(d)], [1])
            s_env = np.sort(np.linalg.eigvalsh(env))
            s_cf = np.sort(np.linalg.eigvalsh(complementary_apply(tm, rho)))
            assert np.max(np.abs(s_env - s_cf)) < 1e-10

    def test_degradable_composition_lemma(self, rng):
        # generic multi-decay draws are essentially never degradable, so the
        # 3-level cases come from the two families that are
        for case in range(100):
            if case % 3 == 0:
                tm = TransitionMatrix(2, {(1, 0): float(rng.uniform(0, 0.49))})
            elif case % 3 == 1:
                u = rng.uniform(0.0, 0.5) * rng.dirichlet([1.0, 1.0])
                tm = TransitionMatrix(3, {(2, 0): float(u[0]),
                                          (2, 1): float(u[1])})
            else:
                tm = TransitionMatrix(3, {(1, 0): float(rng.uniform(0, 0.5)),
                                          (2, 0): float(rng.uniform(0, 0.5))})
            assert is_degradable(tm).degradable == "yes"
            for f in decompose_by_level(tm):
                if any(f.gamma[k, k] <= 0 for k in range(1, tm.dim)):
                    continue
                assert is_degradable(f).degradable in ("yes", "boundary")


class TestAcceptance8Determinism:
    def test_sweep_csv_identical_cold_and_warm(self, tmp_path, fresh_stores):
        # the first sweep starts from empty stores, the second reuses what
        # the first remembered
        from madcap.cli import main
        spec = {
            "dim": 2,
            "decays": [{"from": 1, "to": 0, "p": "g"}],
            "slots": {"g": {"min": 0.0, "max": 1.0, "step": 0.05}},
            "analyses": ["capacity"],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outputs = []
        for run in ("cold", "warm"):
            out = tmp_path / f"sweep-{run}.csv"
            code = main(["--seed", "7",
                         "sweep", str(spec_path), "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_analyze_and_mad3_reports_are_reproducible(self, tmp_path,
                                                       capsys):
        from madcap.cli import main
        ch = tmp_path / "ch.json"
        ch.write_text(TransitionMatrix(4, {(1, 0): 0.25, (3, 2): 0.375,
                                           (3, 0): 0.375}).to_json())
        texts = []
        for _ in range(2):
            assert main(["analyze", str(ch)]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        summaries = []
        for _ in range(2):
            assert main(["mad3", "--gamma10", "0.2", "--iterations", "1"]) == 0
            summaries.append(capsys.readouterr().out)
        assert summaries[0] == summaries[1]
