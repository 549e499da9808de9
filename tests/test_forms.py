import numpy as np
import pytest

import coxpack as cp
from coxpack import forms
from coxpack.forms import FormError, SingularFormError, TypeClass


def test_signature_examples(universal4):
    sig = cp.signature(np.eye(5))
    assert (sig.n_plus, sig.n_zero, sig.n_minus) == (5, 0, 0)

    affine = np.array([[1.0, -1.0], [-1.0, 1.0]])  # eigenvalues {0, 2}
    sig = cp.signature(affine)
    assert (sig.n_plus, sig.n_zero, sig.n_minus) == (1, 1, 0)

    sig = cp.signature(universal4.gram)  # eigenvalues {2, 2, 2, -2}
    assert (sig.n_plus, sig.n_zero, sig.n_minus) == (3, 0, 1)
    assert sig.min_eigenvalue == pytest.approx(-2.0)


def test_signature_errors():
    with pytest.raises(FormError):
        cp.signature(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        cp.signature(np.eye(2), zero_tol=0.0)
    with pytest.raises(FormError):
        cp.signature(np.ones((2, 3)))


def test_roundoff_guard_refuses_undecidable_forms():
    """Eigenvalues of a rank-3 form with weight c carry roundoff of about 3 * eps * c."""
    for c in (2e12, 1e150):
        g = cp.parse_compact(f"n=3; 0-1:inf({c}) 1-2:3")
        for decide in (cp.signature, forms.classify_gram):
            with pytest.raises(cp.GraphError, match="roundoff"):
                decide(g.gram)
        for decide in (cp.classify_type, cp.level, cp.is_strict_level2):
            with pytest.raises(cp.GraphError, match="roundoff"):
                decide(g)
        for r in (0, 1, 2):
            with pytest.raises(cp.GraphError, match="roundoff"):
                cp.is_level_at_most(g, r)
    g = cp.parse_compact("n=3; 0-1:inf(1e12) 1-2:3")
    assert cp.signature(g.gram).n_minus == 1 and cp.level(g) == 2
    with pytest.raises(cp.GraphError):
        cp.level(g, zero_tol=1e-4)


def test_signature_counts_sum(fig1a, fig1b, five_cycle, universal4, star_inf):
    for g in (fig1a, fig1b, five_cycle, universal4, star_inf):
        sig = cp.signature(g.gram)
        assert sig.n == g.rank


def test_gram_entries_zero_or_below_half(fig1a, fig1b, five_cycle, universal4):
    for g in (fig1a, fig1b, five_cycle, universal4, cp.complete_graph(5, 3)):
        b = g.gram
        off = b[~np.eye(g.rank, dtype=bool)]
        assert np.all((off == 0) | (off <= -0.5))


def test_classify_type(fig1a):
    assert cp.classify_type(cp.path_graph([3])) is TypeClass.FINITE  # eigenvalues 1/2, 3/2
    assert cp.classify_type(fig1a) is TypeClass.LORENTZIAN
    # (3/2) I - (1/2) J has eigenvalues {3/2, 3/2, 3/2, -1/2}
    assert cp.classify_type(cp.complete_graph(4, 3)) is TypeClass.LORENTZIAN
    assert cp.classify_type(cp.cycle_graph([3, 3, 3])) is TypeClass.AFFINE
    # two disjoint dotted bonds: eigenvalues {-1/2, 5/2} twice
    two_dotted = cp.CoxeterGraph(
        4, ((0, 1, cp.EdgeLabel(None, 1.5)), (2, 3, cp.EdgeLabel(None, 1.5)))
    )
    assert cp.classify_type(two_dotted) is TypeClass.OTHER_INDEFINITE


def test_is_level_at_most(fig1a):
    assert cp.is_level_at_most(cp.path_graph([3, 3]), 0)
    assert not cp.is_level_at_most(fig1a, 1)
    assert cp.is_level_at_most(fig1a, 2)
    dotted = cp.CoxeterGraph(3, ((0, 1, cp.EdgeLabel(None, 1.5)),))
    assert cp.is_level_at_most(dotted, 2)
    assert not cp.is_level_at_most(dotted, 1)
    with pytest.raises(ValueError):
        cp.is_level_at_most(fig1a, 4)
    with pytest.raises(ValueError):
        cp.is_level_at_most(fig1a, -1)


def test_level_examples(fig1a, fig1b, five_cycle):
    assert cp.level(fig1a) == 2
    assert cp.level(fig1b) == 3
    assert cp.level(five_cycle) == 2
    assert cp.level(cp.path_graph([3, 3])) == 0


def test_level_monotone(fig1a, fig1b, five_cycle, universal4, star_inf):
    for g in (fig1a, fig1b, five_cycle, universal4, star_inf):
        values = [cp.is_level_at_most(g, r) for r in range(g.rank)]
        for a, b in zip(values, values[1:]):
            assert (not a) or b


def test_fundamental_weights_identity():
    w, norms = cp.fundamental_weights(np.eye(3))
    assert np.allclose(w, np.eye(3))
    assert np.allclose(norms, 1.0)


def test_fundamental_weights_universal(universal4):
    w, norms = cp.fundamental_weights(universal4.gram)
    expected = 0.5 * np.eye(4) - 0.25 * np.ones((4, 4))
    assert np.allclose(w, expected, atol=1e-12)
    assert np.allclose(norms, 0.25, atol=1e-12)
    off = w - np.diag(np.diag(w))
    assert np.allclose(off[off != 0], -0.25)
    # duality: B(alpha_s, omega_t) = delta_st
    assert np.allclose(universal4.gram @ w, np.eye(4), atol=1e-12)


def test_fundamental_weights_singular():
    affine = np.array([[1.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(SingularFormError):
        cp.fundamental_weights(affine)
    with pytest.raises(SingularFormError):
        cp.fundamental_weights(cp.cycle_graph([3, 3, 3]).gram)


def test_fundamental_weights_of_a_stack_match_single_calls(census_entries):
    """Each form of a stacked call gets the bits of a call of its own, at every
    rank of the census, and the arrays returned are read-only."""
    for n in sorted({e.rank for e in census_entries}):
        grams = np.stack([e.graph.gram for e in census_entries if e.rank == n])
        w, norms = cp.fundamental_weights(grams)
        assert w.shape == grams.shape and norms.shape == grams.shape[:2]
        assert not w.flags.writeable and not norms.flags.writeable
        for gram, wi, ni in zip(grams, w, norms, strict=True):
            w1, n1 = cp.fundamental_weights(gram)
            assert w1.tobytes() == wi.tobytes() and n1.tobytes() == ni.tobytes()
    w, norms = cp.fundamental_weights(np.zeros((0, 4, 4)))
    assert w.shape == (0, 4, 4) and norms.shape == (0, 4)


@pytest.mark.parametrize("at", [0, 2, 4])
def test_fundamental_weights_of_a_stack_with_a_singular_form(at):
    """One singular form in a stack raises, wherever it stands."""
    forms_ = [cp.path_graph(labels).gram for labels in ([3, 3], [4, 3], [5, 3], [5, 5])]
    forms_.insert(at, cp.cycle_graph([3, 3, 3]).gram)
    with pytest.raises(SingularFormError):
        cp.fundamental_weights(np.stack(forms_))
    del forms_[at]
    assert cp.fundamental_weights(np.stack(forms_))[0].shape == (4, 3, 3)
    with pytest.raises(FormError, match="not symmetric"):
        cp.fundamental_weights(np.stack(forms_) + np.triu(np.ones((3, 3)), 1))
    with pytest.raises(FormError, match="square"):
        cp.fundamental_weights(np.zeros((2, 3, 4)))


def test_type_stable_under_tolerance(fig1a, fig1b, five_cycle, universal4):
    for g in (fig1a, fig1b, five_cycle, universal4, cp.path_graph([4, 3, 4])):
        kinds = {cp.classify_type(g, tol) for tol in (5e-4, 1e-3, 2e-3)}
        assert len(kinds) == 1
