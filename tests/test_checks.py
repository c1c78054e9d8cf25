"""Mutation controls for the shared acceptance checks.

The CLI suites and the acceptance gate both trust excpoly.checks, so each
check must be able to fail: with the library function beneath it made to
return a wrong value, the check returns ok False.
"""

from fractions import Fraction

import pytest

from excpoly import (
    CycleDist,
    FieldElem,
    UniPoly,
    checks,
    coset_cycle_types,
    curves,
    exceptional,
    f_closed,
    make_field,
    weil_check,
)

G4 = make_field(2, 2)
G16 = make_field(2, 4)
F8 = f_closed(8, FieldElem(G4, 2))
COSET = coset_cycle_types(8, 1)       # the coset the GF(4^2) fibers follow
# a 28-cycle: no element of the degree-28 action has order 28
FOREIGN = CycleDist(28, {(28,): Fraction(1)})


def _weil_never_violated(g, s, claimed):
    return dict(weil_check(g, s, claimed), violates=False)


MUTATIONS = {
    # name: (module, function to replace, wrong stand-in, the check under test)
    "form-equality": (
        checks, "f_product", lambda q, a: f_closed(q, a),
        lambda: checks.form_equality(4)),
    "structure-facts": (
        checks, "trace_poly", lambda q, ctx: UniPoly.X(ctx),
        lambda: checks.structure_facts(4)),
    "product-identity": (
        checks, "verify_product_identity", lambda q, mutate=False: True,
        lambda: checks.product_identity(4)),
    "dickson-identity": (
        checks, "dickson", lambda d, a: UniPoly.X(a.ctx),
        lambda: checks.dickson_identity(1, 20)),
    "canonicalization": (
        checks, "f_closed", lambda q, al: f_closed(q, al + FieldElem(al.ctx, 1)),
        lambda: checks.canonicalization(8, 1, 3)),
    "perm-grid": (
        exceptional, "is_permutation", lambda *args, **kwargs: (True, None),
        lambda: checks.perm_grid(8)),
    "sl2-certificate": (
        checks, "sl2_certificate", lambda q, alpha: {"ok": False},
        lambda: checks.certificate(4, FieldElem(G16, 2))),
    "b-action-grid": (
        checks, "verify_b_action", lambda q, alpha, beta: False,
        lambda: checks.action_grid(8, 5)),
    "smoothness": (
        checks, "smoothness_check", lambda model: (True, []),
        lambda: checks.smoothness(4)),
    "shape-inclusion": (
        checks, "coset_cycle_types", lambda q, j: FOREIGN,
        lambda: checks.shape_inclusion(COSET, 8, 2)),
    "tv-distance": (
        checks, "coset_cycle_types", lambda q, j: FOREIGN,
        lambda: checks.tv_distance(COSET, 8, 2)),
    "branch-points": (
        checks, "branch_points", lambda f, base: [],
        lambda: checks.branch_point(F8, 2)),
    "weil-headline": (
        curves, "weil_check", _weil_never_violated,
        lambda: checks.weil_headline(curves.weil_contradiction_report(8))),
    "weil-contradiction": (
        curves, "weil_check", _weil_never_violated,
        lambda: checks.weil_contradiction(8)),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_shared_check_fails_on_a_wrong_library_value(name, monkeypatch):
    module, attr, wrong, check = MUTATIONS[name]
    ok, _data = check()
    assert ok is True, name
    monkeypatch.setattr(module, attr, wrong)
    ok, data = check()
    assert ok is False, (name, data)


@pytest.mark.parametrize("samples", [0, -3])
def test_dickson_identity_fails_without_samples(samples):
    assert checks.dickson_identity(1, samples) == (False, {"samples": 0, "max_degree": 11})


def test_shape_inclusion_names_a_foreign_shape():
    ok, data = checks.shape_inclusion(FOREIGN, 8, 2)
    assert ok is False and data["foreign_shapes"] == [[28]]


def test_zeta_summary_needs_an_ordinary_curve():
    body = {"g": 6, "p_rank": 6, "L": [1] * 13, "counts": [35] * 6}
    assert checks.zeta_summary(body)[0] is True
    assert checks.zeta_summary(dict(body, p_rank=5))[0] is False
    assert checks.zeta_summary(dict(body, L=[1] * 12))[0] is False
