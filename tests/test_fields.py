import pytest

from unitary_schemes.fields import SUPPORTED_Q, build_field, norm_solutions, trace_solutions

from _reference import RefField


@pytest.mark.parametrize("q", [6, 10, 12, 1, 0])
def test_rejects_non_prime_powers(q):
    with pytest.raises(ValueError, match="prime power"):
        build_field(q)


@pytest.mark.parametrize("q", [11, 13, 16, 25])
def test_rejects_unsupported_prime_powers(q):
    with pytest.raises(ValueError, match="supported range"):
        build_field(q)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_exp_log_bijective(q):
    ft = build_field(q)
    assert ft.exp_table[0] == ft.one
    for e in range(ft.order - 1):
        assert ft.log(ft.exp(e)) == e
    for a in range(1, ft.order):
        assert ft.exp(ft.log(a)) == a


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_power_law_in_log_model(q):
    ft = build_field(q)
    n1 = ft.order - 1
    for i in range(n1):
        for j in range(n1):
            assert ft.mul(ft.exp(i), ft.exp(j)) == ft.exp((i + j) % n1)
            assert ft.div(ft.exp(i), ft.exp(j)) == ft.exp((i - j) % n1)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_conjugation_is_an_involutive_automorphism(q):
    ft = build_field(q)
    for a in ft.elements():
        assert ft.conj(ft.conj(a)) == a
        assert ft.conj(a) == ft.pow(a, q)  # square-and-multiply route
        assert (ft.conj(a) == a) == (a in ft.base_field)
    for a in ft.elements():
        for b in ft.elements():
            assert ft.conj(ft.add(a, b)) == ft.add(ft.conj(a), ft.conj(b))
            assert ft.conj(ft.mul(a, b)) == ft.mul(ft.conj(a), ft.conj(b))
    assert len(ft.base_field) == q


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_tables_match_polynomial_arithmetic(q):
    ft = build_field(q)
    ref = RefField(q)
    for a in ft.elements():
        assert tuple(ft.coeff_digits[a].tolist()) == ref.elements[a]
        assert ft.id_of_coeff[ft.coeff_table[a]] == a
        assert ft.neg(a) == ref.id_of(ref.neg(ref.elements[a]))
        for b in ft.elements():
            assert ft.add(a, b) == ref.id_of(ref.add(ref.elements[a], ref.elements[b]))
            assert ft.mul(a, b) == ref.id_of(ref.mul(ref.elements[a], ref.elements[b]))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_norm_fibers(q):
    ft = build_field(q)
    base_star = [a for a in ft.base_field if a != 0]
    covered = set()
    for lam in base_star:
        sols = norm_solutions(ft, lam)
        assert len(sols) == q + 1
        covered.update(sols)
        assert all(ft.norm(x) == lam for x in sols)
    assert covered == set(range(1, ft.order))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_trace_fibers(q):
    ft = build_field(q)
    covered = set()
    for lam in ft.base_field:
        sols = trace_solutions(ft, lam)
        assert len(sols) == q
        covered.update(sols)
        assert all(ft.trace(x) == lam for x in sols)
    assert covered == set(ft.elements())


def test_f4_structure():
    ft = build_field(2)
    g = ft.generator
    # modulus x^2 + x + 1: g^2 + g + 1 = 0 and conj(g) = g^2
    assert ft.modulus_poly == (1, 1, 1)
    assert ft.add(ft.add(ft.mul(g, g), g), ft.one) == 0
    assert ft.conj(g) == ft.mul(g, g)
    assert norm_solutions(ft, 1) == [1, 2, 3]  # all of F_4*, since x^3 = 1
    assert trace_solutions(ft, 0) == [0, 1]


def test_f9_structure():
    ft = build_field(3)
    g = ft.generator
    assert ft.conj(g) == ft.pow(g, 3)
    # the embedded F_3 = {0, 1, 2} where 2 = -1 = g^4
    assert ft.base_field == (0, 1, ft.exp(4))
    assert ft.neg(ft.one) == ft.exp(4)
    assert len(norm_solutions(ft, ft.exp(4))) == 4
    assert len(trace_solutions(ft, 1)) == 3


def test_trace_fiber_size_f4():
    # independent scan: x + x^2 = 1 over the four reference elements
    ref = RefField(2)
    sols = [a for a in ref.elements if ref.add(a, ref.conj(a)) == ref.one]
    assert len(sols) == 2
    ft = build_field(2)
    assert len(trace_solutions(ft, 1)) == len(sols)


def test_solution_preconditions():
    ft = build_field(2)
    with pytest.raises(ValueError):
        norm_solutions(ft, 0)
    ft9 = build_field(3)
    with pytest.raises(ValueError):
        norm_solutions(ft9, ft9.generator)  # g is not in F_3
    with pytest.raises(ValueError):
        trace_solutions(ft9, ft9.generator)


def test_division_by_zero():
    ft = build_field(2)
    with pytest.raises(ZeroDivisionError):
        ft.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        ft.inv(0)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_modulus_poly_has_base_coefficients_and_kills_generator(q):
    ft = build_field(q)
    c0, c1, c2 = ft.modulus_poly
    assert ft.in_base_field(c0) and ft.in_base_field(c1) and c2 == ft.one
    g = ft.generator
    value = ft.add(ft.add(ft.mul(g, g), ft.mul(c1, g)), c0)
    assert value == 0
