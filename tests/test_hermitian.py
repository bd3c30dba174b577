from ballquot.cyclotomic import CycElt, lam, lam_bar
from ballquot.hermitian import H_b, H_c, standard_basis


def test_twisted_form_entries():
    h = H_b()
    e = h.entries
    assert e[0][0].as_rational() == -1
    assert e[1][1].as_rational() == -1
    assert e[2][2].as_rational() == -1
    assert e[0][1] == lam() and e[0][2] == lam()
    assert e[1][0] == lam_bar() and e[2][0] == lam_bar()
    assert e[1][2] == lam() and e[2][1] == lam_bar()


def test_twisted_form_signature():
    sig = H_b().signature()
    assert (sig.positives, sig.negatives, sig.zeros) == (1, 2, 0)


def test_diagonal_form_signature():
    sig = H_c().signature()
    assert (sig.positives, sig.negatives, sig.zeros) == (1, 2, 0)


def test_only_first_basis_vector_is_in_the_ball():
    hc = H_c()
    flags = [hc.in_ball(v) for v in standard_basis()]
    assert flags == [True, False, False]


def test_form_evaluation_is_real():
    hb = H_b()
    for v in standard_basis():
        val = hb.evaluate(v)
        assert val.conjugate() == val
    mixed = (CycElt.one(7), lam(), lam_bar())
    assert hb.evaluate(mixed).conjugate() == hb.evaluate(mixed)
