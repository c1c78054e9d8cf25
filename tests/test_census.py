"""The census of internal checks: every `raise ArithmeticError` in the package.

An ArithmeticError says that the library computed something wrong, not
that it was called wrongly.  Each site is listed in CENSUS with the test
whose mutant makes it fire, or None while it has none yet.  A site no
mutant can reach holds by construction and is deleted rather than listed.
Adding, moving or removing a site means updating the table.
"""

import ast
import pathlib
import re

import excpoly

TESTS = pathlib.Path(__file__).parent

# (module, enclosing function, first words of the message) -> the test that
# fires the site, as "file::function", or None
CENSUS = {
    ("curves", "_unit_root", "the root of unity"): None,
    ("curves", "sl2_certificate", "hat-identity residual disagrees with"): None,
    ("curves", "sl2_certificate", "g + 1/g must"): None,
    ("curves", "sl2_certificate", "T(1 / (g +"): None,
    ("curves", "sl2_certificate", "the moved point misses"): None,
    ("curves", "smoothness_check", "a partial derivative misses"): None,
    ("curves", "smoothness_check", "a point at infinity"):
        "test_curves.py::test_certificate_invariants_raise_arithmetic_error",
    ("curves", "_count_plane_fiber_range", "degrees a = {},"):
        "test_curves.py::test_counter_self_checks_raise",
    ("curves", "_count_plane_fiber_range", "the quadratic solver returned"):
        "test_curves.py::test_wrong_solver_root_raises",
    ("curves", "_count_plane_fiber", "orbit weights do not"):
        "test_curves.py::test_counter_self_checks_raise",
    ("curves", "count_points", "count {} over GF({})"): None,
    ("exceptional", "_mult_order", "{} is not a"):
        "test_ff.py::test_library_checks_raise_under_python_O",
    ("exceptional", "_verdict_dickson", "Dickson verdict {} disagrees"): None,
    ("exceptional", "_verdict_char3", "order {} of alpha's"): None,
    ("families", "f_closed", "f_closed gave degree {},"): None,
    ("families", "f_product", "f_product gave degree {},"): None,
    ("families", "family_iv", "family_iv gave degree {},"): None,
    ("families", "family_v", "family_v gave degree {},"): None,
    ("ff", "_edf", "division was not exact"): None,
    ("ff", "FieldCtx._build_tables", "generator closed early; modulus"):
        "test_ff.py::test_table_build_errors_fire",
    ("ff", "FieldCtx._build_tables", "generator order does not"):
        "test_ff.py::test_table_build_errors_fire",
    ("ff", "Embedding.section_index", "embedding not injective"): None,
    ("monodromy", "PermAction.__init__", "domain size {}"): None,
    ("monodromy", "PermAction.elements", "linear group order {}"): None,
    ("monodromy", "PermAction._validate", "action not transitive: orbit"): None,
    ("monodromy", "PermAction._validate", "stabilizer order {}, want"): None,
    ("monodromy", "coset_cycle_types", "the identity is not"): None,
    ("monodromy", "coset_cycle_types", "the coset does not"): None,
    ("monodromy", "_shape_ddf", "degree {} at level"):
        "test_monodromy.py::test_shape_ddf_errors_fire",
    ("monodromy", "_shape_ddf", "fiber at t index"):
        "test_monodromy.py::test_shape_ddf_errors_fire",
    ("monodromy", "_shape_one", "fiber at t index"): None,
    ("monodromy", "_gcd_degrees", "gcd loop failed to"):
        "test_monodromy.py::test_gcd_loop_guard_fires",
    ("monodromy", "_vector_shapes", "root counts are not"):
        "test_monodromy.py::test_vector_engine_count_checks_fire",
    ("monodromy", "_vector_shapes", "leftover degree {} is"):
        "test_monodromy.py::test_vector_engine_count_checks_fire",
    ("monodromy", "_vector_shapes", "vectorized shape disagrees with"):
        "test_monodromy.py::test_vector_engine_checks_survive_python_O",
    ("monodromy", "_check_orbit", "fibers {} and {}"):
        "test_monodromy.py::test_orbit_check_catches_a_wrong_representative_shape",
    ("monodromy", "chebotarev_sample", "the linear factors over"):
        "test_monodromy.py::test_conservation_law_catches_a_wrong_linear_count",
    ("poly", "UniPoly.exact_div", "division was not exact"):
        "test_ff.py::test_library_checks_raise_under_python_O",
    ("poly", "_pth_root_poly", "not a p-th power"):
        "test_ff.py::test_library_checks_raise_under_python_O",
}


def _first_words(node):
    """The message's first four words, each interpolated value shown as {}."""
    if isinstance(node, ast.JoinedStr):
        text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
    elif isinstance(node, ast.BinOp):         # "..." % (...)
        text = re.sub(r"%[ds]", "{}", node.left.value)
    else:
        text = node.value
    return " ".join(text.split()[:4])


def _arithmetic_error_sites():
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and getattr(child.exc.func, "id", None) == "ArithmeticError"):
                sites.append((module, ".".join(scope), _first_words(child.exc.args[0])))
            visit(child, module, scope)

    for path in sorted(pathlib.Path(excpoly.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return sites


def test_every_arithmetic_error_site_is_in_the_census():
    sites = _arithmetic_error_sites()
    assert len(set(sites)) == len(sites), "two sites share a census key"
    assert sorted(sites) == sorted(CENSUS)


def test_census_names_tests_that_exist():
    for site, test in CENSUS.items():
        if test is None:
            continue
        filename, name = test.split("::")
        tree = ast.parse((TESTS / filename).read_text())
        names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert name in names, f"{site}: {test} does not exist"
