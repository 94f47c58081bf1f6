"""Acceptance gate: one test per shipped guarantee of the package.

Each test exercises a complete pipeline (exact integer arithmetic mod m
throughout) and prints a single summary line on success.  Criterion 7
rebuilds the modulus-2 solution set of the constraint solver by brute force
over an independent probe family; criterion 8 checks invariance of every
exported invariant on a thousand seeded random Reidemeister scrambles per
bundled fixture, and on scrambles of connected sums whose quivers have
thousands of vertices.
"""

import random
from collections import Counter

import numpy as np
import pytest

from arrowquiver.arrowweight import (
    WeightTensor,
    _check_rotations,
    generate_constraints,
    is_valid_weight,
    sigma_coefficients,
    solve_constraints,
    weight_multiset,
)
from arrowquiver.biquandle import BiquandleError, load as load_biquandle
from arrowquiver.gausscode import (
    Endpoint,
    GaussDiagram,
    R3Slide,
    apply_move,
    enumerate_moves,
    inverse_move,
    parse_gauss_code,
)
from arrowquiver.homset import enumerate_colorings, transport_coloring
from arrowquiver.invariants import (
    phi_indegree,
    phi_quotient_loop,
    phi_twovar,
    phi_weight,
    weight_polynomial,
)
from arrowquiver.knotdata import bundled_path, orientation_variants
from arrowquiver.quiver import build_quiver, quiver_isomorphic

from conftest import listed_move

SEED = 20260815


def variant_renders(b, w, d, endos, phi):
    """The invariant render of each orientation variant of ``d``."""
    return [
        str(phi(build_quiver(b, w, v, endos))) for v in orientation_variants(d)
    ]


def test_criterion_1_two_element_pipeline(flip2, w16, table):
    d = table.get("2.1")
    colorings = enumerate_colorings(flip2, d)
    assert colorings == [(1, 2, 1, 2), (2, 1, 2, 1)]
    for c in colorings:
        assert _check_rotations(w16, d.compiled, c) == 0
    assert weight_multiset(flip2, w16, d) == (8, 8)
    assert str(weight_polynomial(flip2, w16, d)) == "2u^8"
    endos = flip2.endomorphisms()
    assert endos == [(1, 2), (2, 1)]
    q = build_quiver(flip2, w16, d, endos)
    assert len(q.vertices) == 2 and len(q.edges) == 4
    print(
        "PASS criterion 1: two-element pipeline on 2.1 "
        "(2 colorings, weights {8,8}, 2u^8, 2 endomorphisms)"
    )


INDEG_SAMPLES = {
    "2.1": "3u^4w^3",
    "3.3": "3w^3",
    "4.22": "3uw^3",
    "4.13": "3u^2w^3",
    "4.24": "3u^3w^3",
    "4.66": "3u^5w^3",
    "4.10": "3u^6w^3",
    "4.28": "3u^7w^3",
}


def test_criterion_2_indegree_samples(cyc3, w8, endos_cyc3, table):
    zero = WeightTensor(3, 8, (0,) * 81)
    for name, expected in INDEG_SAMPLES.items():
        renders = variant_renders(
            cyc3, w8, table.get(name), endos_cyc3, phi_indegree
        )
        assert expected in renders, (name, expected, renders)
        unweighted = variant_renders(
            cyc3, zero, table.get(name), endos_cyc3, phi_indegree
        )
        assert unweighted == ["3w^3"] * 4, name
    print(
        "PASS criterion 2: indegree renders over Z_8 hit all eight sample "
        "values; every variant unweights to 3w^3"
    )


TWOVAR_SAMPLES = {"2.1": "9", "4.11": "9st", "4.10": "9s^2t^2"}


def test_criterion_3_misprint_rejected_and_reconciled(
    cyc3, w3, endos_cyc3, table
):
    with pytest.raises(BiquandleError) as exc:
        load_biquandle(bundled_path("biquandle_cyc3_misprint.txt"))
    vs = exc.value.violations
    assert [v.axiom for v in vs] == ["B2"]
    assert vs[0].witness == (3,)
    assert "under column y=3 is (3, 1, 3), not a bijection" in vs[0].message

    # the adopted reconciliation changes exactly one cell: under(3, 3) 3 -> 2
    raw = bundled_path("biquandle_cyc3_misprint.txt").read_text()
    lines = [
        ln for ln in (s.strip() for s in raw.splitlines())
        if ln and not ln.startswith("#")
    ]
    printed_under = tuple(
        tuple(int(t) for t in ln.split()) for ln in lines[1:4]
    )
    printed_over = tuple(
        tuple(int(t) for t in ln.split()) for ln in lines[4:7]
    )
    assert printed_over == cyc3.over
    diff = [
        (x, y)
        for x in (1, 2, 3)
        for y in (1, 2, 3)
        if printed_under[x - 1][y - 1] != cyc3.under_of(x, y)
    ]
    assert diff == [(3, 3)]
    assert printed_under[2][2] == 3 and cyc3.under_of(3, 3) == 2

    for name, expected in TWOVAR_SAMPLES.items():
        renders = variant_renders(
            cyc3, w3, table.get(name), endos_cyc3, phi_twovar
        )
        assert expected in renders, (name, expected, renders)
    print(
        "PASS criterion 3: misprinted table rejected with a precise B2 "
        "witness; reconciled table reproduces 9 / 9st / 9s^2t^2"
    )


QLOOP_QUAD_SAMPLES = {"3.1": "10 + x^3", "3.3": "6 + 4x^3"}
QLOOP_SHIFT_SAMPLES = {"2.1": "4 + 4x^2", "3.1": "16", "3.5": "16x^2"}


def test_criterion_4_quotient_loop_samples(
    quad4, w6, endos_quad4, shift4, w4, endos_shift4, table
):
    for name, expected in QLOOP_QUAD_SAMPLES.items():
        renders = variant_renders(
            quad4, w6, table.get(name), endos_quad4, phi_quotient_loop
        )
        assert expected in renders, (name, expected, renders)
    for name, expected in QLOOP_SHIFT_SAMPLES.items():
        renders = variant_renders(
            shift4, w4, table.get(name), endos_shift4, phi_quotient_loop
        )
        assert expected in renders, (name, expected, renders)
    print(
        "PASS criterion 4: quotient loop polynomials match on 3.1/3.3 over "
        "Z_6 and 2.1/3.1/3.5 over Z_4"
    )


def test_criterion_5_weights_separate_isomorphic_quivers(
    quad4, w6, endos_quad4, table
):
    q1 = build_quiver(quad4, w6, table.get("3.1"), endos_quad4)
    q2 = build_quiver(quad4, w6, table.get("3.3"), endos_quad4)
    assert quiver_isomorphic(q1, q2, ignore_weights=True)
    assert not quiver_isomorphic(q1, q2)
    assert str(phi_quotient_loop(q1)) != str(phi_quotient_loop(q2))
    print(
        "PASS criterion 5: 3.1 and 3.3 have isomorphic unweighted quivers "
        "but different weighted invariants"
    )


def test_criterion_6_validity_check(flip2, cyc3, quad4, shift4, w16, w8, w3, w6, w4):
    fixtures = [
        (flip2, w16),
        (cyc3, w8),
        (cyc3, w3),
        (quad4, w6),
        (shift4, w4),
    ]
    for b, w in fixtures:
        assert is_valid_weight(b, w, trials=6), w
        zero = WeightTensor(b.n, w.m, (0,) * b.n**4)
        assert is_valid_weight(b, zero, trials=2)
    rng = random.Random(SEED)
    fails = sum(
        1
        for _ in range(1000)
        if not is_valid_weight(
            flip2, WeightTensor(2, 16, tuple(rng.randrange(16) for _ in range(16)))
        )
    )
    assert fails >= 990
    print(
        "PASS criterion 6: all five bundled tensors and zero tensors are "
        f"valid; {fails}/1000 random Z_16 tensors are rejected"
    )


# A fixed probe family for the modulus-2 brute force: every move and every
# basepoint rotation applicable to these hosts, after shifting the basepoint
# by three and renaming the chords, yields difference rows whose common
# kernel already equals the full solution set.
PROBE_HOSTS = [
    "",
    "O1+U1+",
    "O1-U1-",
    "O1+O2+U1+U2+",
    "O1+O2-U1+U2-",
    "O1+U2+O3+U1+O2+U3+",
    "O1-U2-O3-U1-O2-U3-",
    "U1+U2+O1+U3+O2+O3+",
    "U1-U2-O1-U3-O2-O3-",
    "O1+U2-U1+O2-",
    "O1+U2+U1+O2+",
    "U1+U2+O4+O1+U3+U4+O2+O3+",
    "U1+U2+O4+O1+U3+O2+O3+U4+",
]


def test_criterion_7_mod2_brute_force_matches_solver(flip2):
    rows = set()
    for code in PROBE_HOSTS:
        d = parse_gauss_code(code).rotated(3)._relabeled()
        for c in enumerate_colorings(flip2, d):
            base = sigma_coefficients(d.compiled, c, 2)
            after = []
            for mv in enumerate_moves(d):
                d2 = apply_move(d, mv)
                after.append(
                    sigma_coefficients(d2.compiled, transport_coloring(flip2, d, mv, c), 2)
                )
            for k in range(1, len(d.endpoints)):
                after.append(
                    sigma_coefficients(d.rotated(k).compiled, c[k:] + c[:k], 2)
                )
            for coeffs in after:
                row = [0] * 16
                for s, v in base.items():
                    row[s] += v
                for s, v in coeffs.items():
                    row[s] -= v
                reduced = tuple(v % 2 for v in row)
                if any(reduced):
                    rows.add(reduced)
    matrix = np.array(sorted(rows), dtype=np.int8)
    vectors = np.array(
        [[(i >> k) & 1 for k in range(16)] for i in range(2**16)], dtype=np.int8
    )
    in_kernel = ((vectors @ matrix.T) % 2 == 0).all(axis=1)
    brute = {tuple(int(x) for x in v) for v in vectors[in_kernel]}
    solved = set(solve_constraints(generate_constraints(flip2, 2)))
    assert brute == solved
    assert len(brute) == 8
    print(
        "PASS criterion 7: modulus-2 brute force over 65536 tensors matches "
        f"the solver exactly ({len(brute)} solutions, {len(rows)} probe rows)"
    )


def _random_diagram(rng, max_chords):
    n = rng.randint(0, max_chords)
    word = []
    for c in range(1, n + 1):
        s = rng.choice((1, -1))
        word.append(Endpoint(c, "O", s))
        word.append(Endpoint(c, "U", s))
    rng.shuffle(word)
    return GaussDiagram(tuple(word))


def _scramble(rng, d):
    for _ in range(rng.randint(1, 8)):
        move = listed_move(rng, d)
        if move is None:
            break
        d = apply_move(d, move)
    return d


def _assert_same_invariants(b, w, endos, d1, d2):
    assert len(enumerate_colorings(b, d1)) == len(enumerate_colorings(b, d2))
    assert weight_multiset(b, w, d1) == weight_multiset(b, w, d2)
    q1 = build_quiver(b, w, d1, endos)
    q2 = build_quiver(b, w, d2, endos)
    for phi in (phi_weight, phi_indegree, phi_twovar, phi_quotient_loop):
        assert str(phi(q1)) == str(phi(q2)), (str(d1), str(d2))
    assert quiver_isomorphic(q1, q2), (str(d1), str(d2))


def _check_move_invariance(b, w, trials=1000):
    endos = b.endomorphisms()
    rng = random.Random(SEED)
    for _ in range(trials):
        d1 = _random_diagram(rng, 6)
        _assert_same_invariants(b, w, endos, d1, _scramble(rng, d1))
    print(
        f"PASS criterion 8: {trials} random move scrambles preserve count, "
        f"weights, all four polynomials and the quiver (modulus {w.m})"
    )


def test_criterion_8_invariance_flip2(flip2, w16):
    _check_move_invariance(flip2, w16)


def test_criterion_8_invariance_cyc3_z8(cyc3, w8):
    _check_move_invariance(cyc3, w8)


def test_criterion_8_invariance_cyc3_z3(cyc3, w3):
    _check_move_invariance(cyc3, w3)


def test_criterion_8_invariance_quad4(quad4, w6):
    _check_move_invariance(quad4, w6)


def test_criterion_8_invariance_shift4(shift4, w4):
    _check_move_invariance(shift4, w4)


def _connected_copies(d, copies):
    """The connected sum of ``copies`` copies of ``d``: its word repeated,
    the chords of copy i renumbered from i * n + 1."""
    return GaussDiagram(
        tuple(Endpoint(e.chord + i * d.n, e.passage, e.sign) for i in range(copies) for e in d.endpoints)
    )


def test_criterion_8_invariance_many_colorings(quad4, w6, table):
    """Scrambles of two and three connected copies of 4.99, with 256 and
    4 096 quad4 colorings: quivers far larger than those of the random
    diagrams above.  Each takes 1-3 moves, insertions included, so a
    scramble reaches up to 18 chords.  A move's kind is drawn first, among
    the kinds listed for the diagram, then a move of that kind: drawn from
    the whole list, nearly every move would be an R2 insertion, which
    outnumber the others by far."""
    endos = quad4.endomorphisms()
    rng = random.Random(SEED)
    trials = 8
    kinds = Counter()
    for trial in range(trials):
        copies = 2 + trial % 2
        d1 = _connected_copies(table.get("4.99"), copies)
        assert len(enumerate_colorings(quad4, d1)) == 16**copies
        d2 = d1
        for _ in range(rng.randint(1, 3)):
            by_kind = {}
            for move in enumerate_moves(d2):
                by_kind.setdefault(type(move), []).append(move)
            kind = rng.choice(list(by_kind))
            kinds[kind.__name__] += 1
            d2 = apply_move(d2, rng.choice(by_kind[kind]))
        _assert_same_invariants(quad4, w6, endos, d1, d2)
    # the draw reaches deletions, not only insertions
    assert {"R1Delete", "R2Delete"} <= set(kinds), kinds
    print(
        f"PASS criterion 8: {trials} move scrambles of connected sums of 4.99 "
        "(256 and 4096 colorings) preserve every invariant (modulus 6)"
    )


@pytest.mark.parametrize("copies", [2, 3, 4])
def test_criterion_8_slide_on_many_colorings(quad4, w6, table, copies):
    """An R3 slide on a host with 256, 4 096 or 65 536 quad4 colorings: connected
    copies of 4.99 followed by the slide host ``U1+U2+O1+U3+O2+O3+``,
    renumbered past them.  Every listed slide, and the slide back, keeps
    every invariant; the slide back is listed on the slid diagram and
    restores the word."""
    endos = quad4.endomorphisms()
    knots = _connected_copies(table.get("4.99"), copies)
    host = parse_gauss_code("U1+U2+O1+U3+O2+O3+").endpoints
    d1 = GaussDiagram(
        knots.endpoints + tuple(Endpoint(e.chord + knots.n, e.passage, e.sign) for e in host)
    )
    assert len(enumerate_colorings(quad4, d1)) == 16**copies
    # the host's one slide: the copies of 4.99 have none
    slides = [mv for mv in enumerate_moves(d1) if isinstance(mv, R3Slide)]
    assert len(slides) == 1
    for move in slides:
        d2 = apply_move(d1, move)
        _assert_same_invariants(quad4, w6, endos, d1, d2)
        back = inverse_move(d1, move)
        assert back in enumerate_moves(d2)
        restored = apply_move(d2, back)
        assert restored == d1
        _assert_same_invariants(quad4, w6, endos, d2, restored)
    print(
        f"PASS criterion 8: an R3 slide and its inverse on {copies} connected "
        f"copies of 4.99 ({16**copies} colorings) preserve every invariant (modulus 6)"
    )


def test_criterion_9_table_output_deterministic(capsys):
    from arrowquiver.cli import main

    argv = [
        "table",
        "--type", "indeg",
        "--biquandle", str(bundled_path("biquandle_cyc3.txt")),
        "--tensor", str(bundled_path("weight_cyc3_z8.txt")),
        "--endos", str(bundled_path("endos_cyc3.txt")),
    ]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert len(first.splitlines()) == 116
    print(
        "PASS criterion 9: two same-seed table runs over all 116 knots are "
        "byte-identical"
    )
