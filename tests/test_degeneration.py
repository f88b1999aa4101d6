from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from gcflag.degeneration import (
    binomial_relation_holds,
    deformed_plucker,
    diagonal_monomial_exponents,
    make_plucker_point,
    moment_mu,
    moment_nu,
    monomial_embedding,
    multi_deformed_plucker,
    multi_weight,
    parse_relation,
    random_torus_point,
    verify_family_equation,
    weight_matrix,
    TorusPoint,
)
from gcflag.flags import FlagType
from gcflag.polytopes import build_polytope, free_positions
from gcflag.system import eigenvalues_desc

F3 = FlagType.full(3)
F4 = FlagType.full(4)
G24 = FlagType.grassmannian(2, 4)


# ---------------------------------------------------------------------------
# weights


def test_weight_matrix_values():
    w = weight_matrix(4)
    assert w[2][1] == 1
    assert w[3][1] == 3
    assert w[4][1] == 9
    assert w[4][3] == 1
    assert w[1][1] == 0 and w[2][3] == 0


def test_multi_weight_telescopes():
    n = 4
    w = weight_matrix(n)
    wm = multi_weight(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert sum(wm[k][i][j] for k in wm) == w[i][j]


# ---------------------------------------------------------------------------
# deformed Pluecker coordinates


def test_q23_hand_expansion():
    # q_{23} = z_21 z_32 - t z_31 z_22 for n = 3
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for t in (0.0, 0.3, 1.0, 2.0 + 1.0j):
        want = z[1, 0] * z[2, 1] - t * z[2, 0] * z[1, 1]
        assert abs(deformed_plucker(z, (2, 3), t) - want) < 1e-12


def test_endpoints():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for I in [(1,), (3,), (1, 3), (2, 4), (1, 2, 4), (1, 2, 3, 4)]:
        # t = 1 recovers the plain minor
        minor = np.linalg.det(z[np.ix_([i - 1 for i in I], range(len(I)))])
        assert abs(deformed_plucker(z, I, 1.0) - minor) < 1e-10
        # t = 0 leaves the diagonal monomial
        diag = np.prod([z[i - 1, l] for l, i in enumerate(I)])
        assert abs(deformed_plucker(z, I, 0.0) - diag) < 1e-12


def _weighted_det(z, I, ts, tables):
    # det(prod_k t_k^(w_k[i][j]) z_ij) over rows I, columns 1..|I|, divided by
    # the diagonal's weight prod_k t_k^(tr w_k,I)
    rows = [i - 1 for i in I]
    m = z[np.ix_(rows, range(len(I)))].astype(complex)
    diag = 1.0 + 0.0j
    for t, w in zip(ts, tables):
        m = m * np.array([[t ** w[i][l + 1] for l in range(len(I))] for i in I])
        diag *= t ** sum(w[i][l + 1] for l, i in enumerate(I))
    return np.linalg.det(m) / diag


def test_generic_t_matches_the_weighted_determinant():
    rng = np.random.default_rng(7)
    for n in (4, 5):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        wm = multi_weight(n)
        sets = [I for k in range(1, n + 1) for I in combinations(range(1, n + 1), k)]
        for t in (0.37, 0.7 - 0.2j, 2 + 1j):
            ts = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
            for I in sets:
                want = _weighted_det(z, I, (t,), (weight_matrix(n),))
                assert abs(deformed_plucker(z, I, t) - want) <= 1e-10 * abs(want)
                want = _weighted_det(z, I, ts, [wm[k] for k in range(2, n + 1)])
                got = multi_deformed_plucker(z, I, tuple(ts))
                assert abs(got - want) <= 1e-10 * abs(want)


def test_plucker_refuses_invalid_index_sets():
    z = np.arange(16).reshape(4, 4)
    for I in [(0,), (5,), (1, 1), (2, 0, 3)]:
        with pytest.raises(ValueError, match="invalid index set"):
            deformed_plucker(z, I, 1.0)
        with pytest.raises(ValueError, match="invalid index set"):
            multi_deformed_plucker(z, I, (0.5, 0.5, 0.5))


def test_unsorted_index_set_carries_the_permutation_sign():
    # q_{sigma I} = sgn(sigma) q_I, the convention of PluckerPoint.get,
    # at every t including 0
    z = np.arange(1, 17).reshape(4, 4)
    assert deformed_plucker(z, (2, 3), 0.5) == 23
    assert deformed_plucker(z, (3, 2), 0.5) == -23
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for I, sign in [((3, 2), -1), ((4, 1, 2), 1), ((3, 1, 4, 2), -1)]:
        srt = tuple(sorted(I))
        for t in (0.0, 0.5, 1.0):
            assert deformed_plucker(z, I, t) == sign * deformed_plucker(z, srt, t)
        ts = (0.0, 0.5, 0.7 - 0.2j)
        assert multi_deformed_plucker(z, I, ts) == sign * multi_deformed_plucker(z, srt, ts)


def test_multi_parameter_collapse():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    t = 0.7 - 0.2j
    for I in [(2,), (1, 3), (2, 3, 4)]:
        assert abs(
            multi_deformed_plucker(z, I, (t, t, t)) - deformed_plucker(z, I, t)
        ) < 1e-10
        assert abs(
            multi_deformed_plucker(z, I, (1.0, 1.0, 1.0))
            - deformed_plucker(z, I, 1.0)
        ) < 1e-10


def test_multi_parameter_last_stage_off():
    # t_n = 0 freezes the last row block: rows < n are unaffected by stage n,
    # so index sets avoiding row n agree with the (t_2, ..., t_{n-1}) family
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    t2, t3 = 0.5, 0.9
    for I in [(1, 2), (2, 3), (1, 2, 3)]:
        a = multi_deformed_plucker(z, I, (t2, t3, 0.0))
        b = multi_deformed_plucker(z[:3, :3], I, (t2, t3))
        assert abs(a - b) < 1e-10


# ---------------------------------------------------------------------------
# relation parsing and family equations


def test_parse_relation():
    terms = parse_relation("+Z[1]Z[2,3] -Z[2]Z[1,3] +t Z[3]Z[1,2]")
    assert terms == [
        (1, 0, ((1,), (2, 3))),
        (-1, 0, ((2,), (1, 3))),
        (1, 1, ((3,), (1, 2))),
    ]
    terms = parse_relation("+t^2 Z[1,2] -Z[2,1]")
    assert terms[0] == (1, 2, ((1, 2),))


def test_parse_relation_errors():
    for bad in ["", "Z[1]", "+Z[]", "+Q[1]"]:
        with pytest.raises(ValueError):
            parse_relation(bad)


def test_family_equation_flag3():
    res = verify_family_equation(
        F3, "+Z[1]Z[2,3] -Z[2]Z[1,3] +t Z[3]Z[1,2]", samples=50, seed=0
    )
    assert res < 1e-12


def test_family_equation_classical_plucker():
    # undeformed (t = 1) three-term Pluecker relation on Gr(2,4)
    res = verify_family_equation(
        F4,
        "+Z[1,2]Z[3,4] -Z[1,3]Z[2,4] +Z[1,4]Z[2,3]",
        samples=50,
        seed=0,
        t=1.0,
    )
    assert res < 1e-12


def test_family_equation_rejects_bad_indices():
    with pytest.raises(ValueError):
        verify_family_equation(F3, "+Z[1,1]Z[2]")
    with pytest.raises(ValueError):
        verify_family_equation(F3, "+Z[4]Z[1,2]")


def test_family_equation_detects_false_relation():
    res = verify_family_equation(
        F3, "+Z[1]Z[2,3] +Z[2]Z[1,3]", samples=20, seed=0
    )
    assert res > 1e-3


# ---------------------------------------------------------------------------
# diagonal monomials and binomial relations


def test_diagonal_monomial_exponents_full5():
    fl = FlagType.full(5)
    c = diagonal_monomial_exponents(fl, (2, 3))
    assert c == Counter(
        {(2, 1): 1, (3, 1): 1, (4, 1): 1, (3, 2): 1, (4, 2): 1}
    )
    assert diagonal_monomial_exponents(fl, (1,)) == Counter(
        {(1, 1): 1, (2, 1): 1, (3, 1): 1, (4, 1): 1}
    )


def test_binomial_relations_hold():
    for fl in (F4, FlagType.full(5), G24):
        n = fl.n
        for k1 in fl.steps:
            for k2 in fl.steps:
                for I in combinations(range(1, n + 1), k1):
                    for J in combinations(range(1, n + 1), k2):
                        assert binomial_relation_holds(fl, I, J)


# ---------------------------------------------------------------------------
# torus points and the monomial embedding


def test_torus_point_validation():
    tau = {pos: 1.0 for pos in free_positions(F3)}
    TorusPoint(flag=F3, tau=tau)
    with pytest.raises(ValueError, match="tau must be given exactly on the free positions"):
        TorusPoint(flag=F3, tau={(1, 1): 1.0})
    bad = dict(tau)
    bad[(1, 1)] = 0.0
    with pytest.raises(ValueError, match="tau values must be nonzero"):
        TorusPoint(flag=F3, tau=bad)


def test_torus_point_pinned_values():
    tp = random_torus_point(G24, seed=0)
    # (1, 1) is pinned for Gr(2,4); top row always 1
    assert tp.value(4, 1) == 1.0
    assert tp.value(3, 1) == 1.0
    assert tp.value(2, 1) != 1.0 or True  # free, arbitrary


def test_monomial_embedding_full5_example():
    tp = random_torus_point(FlagType.full(5), seed=4)
    Z = monomial_embedding(tp)
    raw = 1.0 + 0.0j
    for box in [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2)]:
        raw *= tp.value(*box)
    # ratio to another size-2 coordinate removes the normalization
    raw13 = 1.0 + 0.0j
    for box in [(1, 1), (2, 1), (3, 1), (4, 1), (3, 2), (4, 2)]:
        raw13 *= tp.value(*box)
    got = Z.get((2, 3)) / Z.get((1, 3))
    assert abs(got - raw / raw13) < 1e-10


def test_monomial_embedding_satisfies_binomials():
    tp = random_torus_point(F4, seed=5)
    Z = monomial_embedding(tp)
    from gcflag.flags import meet_join

    for k1 in F4.steps:
        for k2 in F4.steps:
            for I in combinations(range(1, 5), k1):
                for J in combinations(range(1, 5), k2):
                    meet, join = meet_join(I, J)
                    lhs = Z.get(I) * Z.get(J)
                    rhs = Z.get(meet) * Z.get(join)
                    # un-normalized ratio: same size classes on both sides
                    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_plucker_point_sign_convention():
    Z = make_plucker_point(F3, {(1, 2): 1.0, (1, 3): 2.0, (2, 3): 2.0,
                                (1,): 1.0, (2,): 0.0, (3,): 0.0})
    assert abs(Z.get((2, 1)) + Z.get((1, 2))) < 1e-15
    assert Z.get((1, 1)) == 0.0
    norm = sum(abs(Z.get(I)) ** 2 for I in combinations(range(1, 4), 2))
    assert abs(norm - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# moment maps


def test_moment_mu_standard_point():
    # Z concentrated on the leading coordinates gives the diagonal orbit point
    vals = {I: 0.0 for I in combinations(range(1, 4), 1)}
    vals.update({I: 0.0 for I in combinations(range(1, 4), 2)})
    vals[(1,)] = 1.0
    vals[(1, 2)] = 1.0
    Z = make_plucker_point(F3, vals)
    lam = [2.0, 0.0, -2.0]
    m3 = moment_mu(Z, 3, lam)
    assert np.allclose(m3, np.diag(lam), atol=1e-12)
    m2 = moment_mu(Z, 2, lam)
    assert np.allclose(m2, np.diag(lam[:2]), atol=1e-12)


def test_moment_mu_sphere_fiber():
    # over the apex of the F(1,2,3) cone the 2x2 block is scalar: the
    # Z-coordinates (z1, z2, l1-l2) / (l2-l3, z2~, -z1~) with
    # |z1|^2+|z2|^2 = (l1-l2)(l2-l3) give mu^(2) = lambda_2 I
    lam = [2.0, 0.0, -2.0]
    z1, z2 = 1.0 + 0.0j, np.sqrt(3.0) * np.exp(0.4j)
    assert abs(abs(z1) ** 2 + abs(z2) ** 2 - 4.0) < 1e-12
    vals = {
        (1,): z1,
        (2,): z2,
        (3,): lam[0] - lam[1],
        (1, 2): lam[1] - lam[2],
        (1, 3): np.conj(z2),
        (2, 3): -np.conj(z1),
    }
    Z = make_plucker_point(F3, vals)
    m2 = moment_mu(Z, 2, lam)
    assert np.allclose(m2, lam[1] * np.eye(2), atol=1e-12)
    m3 = moment_mu(Z, 3, lam)
    assert abs(np.trace(m3) - sum(lam)) < 1e-12
    assert np.allclose(eigenvalues_desc(m3), lam, atol=1e-9)


def test_moment_mu_trace():
    for fl, lam in [(F3, [2, 0, -2]), (G24, [1, 1, -1, -1])]:
        Z = monomial_embedding(random_torus_point(fl, seed=6))
        m = moment_mu(Z, fl.n, lam)
        assert abs(np.trace(m).real - sum(lam)) < 1e-10


def test_moment_spectra_match_nu_per_box():
    # on the degenerate limit the ladder-box eigenvalues of mu^(m) coincide
    # with the torus moment coordinates nu~
    for fl, lam in [(F3, [2.0, 0.0, -2.0]), (G24, [1.0, 1.0, -1.0, -1.0])]:
        for seed in range(5):
            Z = monomial_embedding(random_torus_point(fl, seed=seed))
            for (m, j) in free_positions(fl):
                ev = eigenvalues_desc(moment_mu(Z, m, lam))
                nu = moment_nu(Z, (m, j), lam)
                assert abs(ev[j - 1] - nu) < 1e-9


def test_nu_image_in_polytope():
    for fl, lam in [(F3, [2.0, 0.0, -2.0]), (G24, [1.0, 1.0, -1.0, -1.0])]:
        poly = build_polytope(fl, [int(x) for x in lam])
        for seed in range(10):
            Z = monomial_embedding(random_torus_point(fl, seed=seed))
            u = [moment_nu(Z, box, lam) for box in poly.coords]
            assert poly.contains_float(u, tol=1e-9)


def test_moment_maps_refuse_bad_boxes_and_lambda():
    Z = monomial_embedding(random_torus_point(F3, seed=8))
    for box in [(5, 1), (1, 0), (0, 1), (1, 2), (4, 4)]:
        with pytest.raises(ValueError, match="box out of range"):
            moment_nu(Z, box, [2.0, 0.0, -2.0])
    for m in (0, 4):
        with pytest.raises(ValueError, match="block size out of range"):
            moment_mu(Z, m, [2.0, 0.0, -2.0])
    for lam in ([2.0, -2.0], [2.0, 1.0, 0.0, -2.0]):
        with pytest.raises(ValueError, match="lambda needs n = 3 entries"):
            moment_mu(Z, 2, lam)
        with pytest.raises(ValueError, match="lambda needs n = 3 entries"):
            moment_nu(Z, (2, 1), lam)


def test_nu_affine_in_lambda():
    Z = monomial_embedding(random_torus_point(F3, seed=8))
    lam = [2.0, 0.0, -2.0]
    box = (2, 1)
    base = moment_nu(Z, box, lam)
    shifted = moment_nu(Z, box, [x + 0.5 for x in lam])
    scaled = moment_nu(Z, box, [3 * x for x in lam])
    assert abs(shifted - base - 0.5) < 1e-12
    assert abs(scaled - 3 * base) < 1e-12
