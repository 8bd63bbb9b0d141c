"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite output doubles as a
checklist.  Tolerances are pinned: exact checks must be identically zero,
numeric checks use 1e-6, and the finite-difference convergence slope must
lie in 2 +- 0.3.
"""

import random
import time
from fractions import Fraction

from h5twistor import ansatz, checks, gauge, heisenberg, numcheck, realslice, so6model, twistor
from h5twistor.exactalg import CRational, MatRF, MultiPoly, RationalFunction, make_context
from h5twistor.heisenberg import CTX5, FieldId


def _report(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    line = f"acceptance-{number:02d} {name}: {status}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def rf(name):
    return RationalFunction.var(CTX5, name)


def test_01_fundamental_seed_harmonic():
    start = time.perf_counter()
    ok = heisenberg.sub_laplacian(heisenberg.phi_inst()).is_zero()
    elapsed = time.perf_counter() - start
    _report(1, "fundamental-seed-harmonic", ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_02_instanton_connection_asd():
    start = time.perf_counter()
    rng = random.Random(2024)

    def rnd():
        return RationalFunction.const(
            CTX5,
            CRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            ),
        )

    phi_t = MatRF([[rnd(), rnd()], [rnd(), rnd()]])
    conn = ansatz.build_connection(ansatz.seed_catalog("inst"), phi_t=phi_t)
    ok = gauge.is_asd(conn)
    elapsed = time.perf_counter() - start
    _report(2, "instanton-connection-asd", ok and elapsed < 5.0, f"{elapsed:.3f}s")


def test_03_bracket_relations_generic_quadratic():
    names = tuple(f"c{k}" for k in range(15))
    ctx = make_context(*(heisenberg.COMPLEX_VARS + names))
    vs = [MultiPoly.var(ctx, n) for n in heisenberg.COMPLEX_VARS]
    quad = MultiPoly.zero(ctx)
    k = 0
    for i in range(5):
        for j in range(i, 5):
            quad = quad + MultiPoly.var(ctx, names[k]) * vs[i] * vs[j]
            k += 1
    f = RationalFunction(quad)
    fields = list(FieldId)
    ok = True
    checked = 0
    for i in range(5):
        for j in range(i + 1, 5):
            a, b = fields[i], fields[j]
            lhs = heisenberg.apply_field(a, heisenberg.apply_field(b, f)) - heisenberg.apply_field(
                b, heisenberg.apply_field(a, f)
            )
            rhs = heisenberg.apply_field(FieldId.T, f) * RationalFunction.const(
                ctx, heisenberg.bracket_table(a, b)
            )
            ok = ok and lhs == rhs
            checked += 1
    _report(3, "bracket-relations", ok and checked == 10, f"{checked} pairs")


def test_04_twistor_correspondence():
    ok = (
        twistor.tangency_certificate()
        and twistor.commuting_certificate()
        and twistor.diagram_check()
        and twistor.alpha_roundtrip_certificate()
        and twistor.parametrization_agreement_certificate()
        and not twistor.diagram_check(use_erratum_variant=True)
    )
    _report(4, "twistor-correspondence", ok, "misprint variant rejected")


def test_05_gamma_chains_depth_two():
    ok = True
    for name in ("t", "lin:y00p"):
        seed = ansatz.seed_catalog(name)
        chain = ansatz.gamma_recursion(seed, 2)
        ok = ok and chain.depth >= 2 and chain.verify()
        ok = ok and ansatz.h_connection_check(seed, chain)
    _report(5, "gamma-chains-and-h-connection", ok)


def test_06_birkhoff_factorization():
    ok, failures = ansatz.birkhoff_identity_check()
    _report(6, "birkhoff-factorization", ok, ",".join(failures) or "all identities")


def test_07_real_slice_splitting():
    ok = realslice.eigenvalue_certificate()
    ok = ok and realslice.real_sub_laplacian(realslice.phi_real()).is_zero()
    ok = ok and realslice.fiber_uniqueness_certificate()
    seeds = [
        ansatz.seed_catalog("inst"),
        ansatz.seed_catalog("t"),
        ansatz.seed_catalog("lin:y00p"),
        ansatz.HarmonicSeed.create(rf("y00p") * rf("y10p")),
    ]
    # the two non-ASD connections have nonzero F_H^+, so the paths compare
    # more than zeros
    conns = [ansatz.build_connection(seed) for seed in seeds]
    conns += [checks._nonasd_example(), checks._nonharmonic_example()]
    for conn in conns:
        rc = realslice.pullback_connection(conn)
        fh, _ = realslice.real_curvature_split(rc)
        fh2 = realslice.real_curvature_split_projector(rc)
        ok = ok and all(a == b for a, b in zip(fh, fh2))
    _report(7, "real-slice-splitting", ok, f"{len(conns)} connections, both paths")


def test_08_matrix_model_identities():
    start = time.perf_counter()
    results = so6model.verify_all()
    elapsed = time.perf_counter() - start
    ok = len(results) == 7 and all(results.values()) and elapsed < 30.0
    _report(8, "matrix-model-identities", ok, f"{len(results)} identities, {elapsed:.2f}s")


def test_09_finite_difference_oracle():
    plan = numcheck.SamplePlan(count=100, seed=2024)
    pts, _ = numcheck.sample_points(plan, heisenberg.COMPLEX_VARS)
    ok = len(pts) == 100
    functions = [
        rf("y00p") ** 2,
        rf("t"),
        heisenberg.phi_inst(),
        rf("y00p") * rf("y11p"),
        (rf("y10p") + rf("t")) / (rf("y00p") + 3),
    ]
    worst = 0.0
    for f in functions:
        for fid in FieldId:
            worst = max(worst, numcheck.fd_field_check(fid, f, plan))
    ok = ok and worst <= 1e-6
    slope = numcheck.convergence_slope(FieldId.V11, heisenberg.phi_inst(), plan)
    ok = ok and abs(slope - 2.0) <= 0.3
    _report(9, "finite-difference-oracle", ok, f"err {worst:.2e}, slope {slope:.3f}")


def test_10_gauge_invariance_of_asd():
    rng = random.Random(2024)
    conn = ansatz.build_connection(ansatz.seed_catalog("t"))
    one = RationalFunction.one(CTX5)
    zero = RationalFunction.zero(CTX5)

    def rnd_poly():
        out = RationalFunction.zero(CTX5)
        for name in heisenberg.COMPLEX_VARS:
            c = CRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            out = out + RationalFunction.const(CTX5, c) * rf(name)
        return out

    ok = True
    for _ in range(3):
        upper = MatRF([[one, rnd_poly()], [zero, one]])
        lower = MatRF([[one, zero], [rnd_poly() / (rf("t") + 5), one]])
        scalar = RationalFunction.const(
            CTX5, CRational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        )
        g = upper @ lower @ MatRF([[scalar, zero], [zero, one]])
        ok = ok and gauge.is_asd(gauge.gauge_transform(conn, g))
    _report(10, "gauge-invariance-of-asd", ok, "3 random gauge moves")
