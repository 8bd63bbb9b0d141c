import pytest

from h5twistor import heisenberg, numcheck
from h5twistor.exactalg import RationalFunction
from h5twistor.heisenberg import CTX5, COMPLEX_VARS, FieldId


def rf(name):
    return RationalFunction.var(CTX5, name)


def sample_functions():
    return [
        rf("y00p") ** 2,
        rf("t"),
        heisenberg.phi_inst(),
        rf("y00p") * rf("y11p"),
        (rf("y10p") + rf("t")) / (rf("y00p") + 3),
    ]


class TestSampling:
    def test_deterministic(self):
        plan = numcheck.SamplePlan(count=10, seed=5)
        a, _ = numcheck.sample_points(plan, COMPLEX_VARS)
        b, _ = numcheck.sample_points(plan, COMPLEX_VARS)
        assert a == b

    def test_count_and_box(self):
        plan = numcheck.SamplePlan(count=25, seed=1, box=1.5)
        pts, _ = numcheck.sample_points(plan, COMPLEX_VARS)
        assert len(pts) == 25
        for p in pts:
            for v in p.values():
                assert abs(v.real) <= 1.5 and abs(v.imag) <= 1.5

    def test_guard_rejects(self):
        plan = numcheck.SamplePlan(count=5, seed=3, eps_den=1e12)
        with pytest.raises(numcheck.NearSingularError):
            numcheck.sample_points(plan, COMPLEX_VARS, guards=(heisenberg.phi_inst(),))

    def test_evaluate_guard(self):
        f = heisenberg.phi_inst()
        origin = {n: 0j for n in COMPLEX_VARS}
        with pytest.raises(numcheck.NearSingularError):
            numcheck.evaluate(f, origin)

    def test_evaluate_guard_follows_eps_den(self):
        f = 1 / rf("y00p")
        point = {n: 1 + 0j for n in COMPLEX_VARS}
        point["y00p"] = 1e-4
        assert numcheck.evaluate(f, point) == pytest.approx(1e4)
        with pytest.raises(numcheck.NearSingularError):
            numcheck.evaluate(f, point, eps_den=1e-3)


class TestFiniteDifferences:
    def test_all_fields_all_functions(self):
        plan = numcheck.SamplePlan(count=20, seed=2024)
        for f in sample_functions():
            for fid in FieldId:
                err = numcheck.fd_field_check(fid, f, plan)
                assert err <= plan.tol, (fid, err)

    def test_second_order_convergence(self):
        plan = numcheck.SamplePlan(seed=2024)
        slope = numcheck.convergence_slope(FieldId.V11, heisenberg.phi_inst(), plan)
        assert abs(slope - 2.0) <= 0.3

    def test_polynomial_exact(self):
        # degree-1 functions are differentiated exactly by central differences
        plan = numcheck.SamplePlan(seed=2024)
        slope = numcheck.convergence_slope(FieldId.T, rf("t"), plan)
        assert slope == 2.0
