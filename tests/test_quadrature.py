import ast
import math
from pathlib import Path

import numpy as np
import pytest

import wigosc
from wigosc import QuadratureNotConverged
from wigosc.quadrature import integrate, integrate_angular


def _names_scipy(tree, sub: str) -> list:
    """Line numbers where ``tree`` imports or names the SciPy subpackage ``sub``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == sub
                and isinstance(node.value, ast.Name) and node.value.id == "scipy"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith(f"scipy.{sub}")
                or node.module == "scipy" and any(a.name == sub for a in node.names)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith(f"scipy.{sub}")
                                                  for a in node.names):
            lines.append(node.lineno)
    return lines


def _src_names_scipy(sub: str) -> dict:
    found = {}
    for path in sorted(Path(wigosc.__file__).parent.glob("*.py")):
        lines = _names_scipy(ast.parse(path.read_text()), sub)
        if lines:
            found[path.name] = lines
    return found


def test_no_module_names_scipy_integrate():
    # every angle integral runs on the numpy rule; QUADPACK stays a test oracle
    assert _src_names_scipy("integrate") == {}


def test_no_module_names_scipy_fft():
    # the variance-table FFTs are numpy's, same bits; scipy.fft stays a test oracle
    assert _src_names_scipy("fft") == {}


def test_the_pin_sees_each_spelling():
    for sub in ("integrate", "fft"):
        for code in (f"import scipy\nscipy.{sub}.quad", f"from scipy.{sub} import quad",
                     f"from scipy import {sub}", f"import scipy.{sub}"):
            assert _names_scipy(ast.parse(code), sub) != [], code


@pytest.mark.parametrize("tol", [1e-10, 1e-13])
@pytest.mark.parametrize("width", [1e-1, 1e-3, 1e-5])
def test_narrow_lorentzian_within_tol(tol, width):
    # width/((x - c)**2 + width**2) on [-1, 2] integrates to atan((2 - c)/width) + atan((1 + c)/width)
    centre = 0.3
    exact = math.atan((2.0 - centre) / width) + math.atan((1.0 + centre) / width)
    got = integrate(lambda x: width / ((x - centre) ** 2 + width ** 2), (-1.0, 2.0), tol)
    assert abs(got - exact) <= tol


def test_entire_integrand_on_many_pieces():
    edges = np.linspace(0.0, 10.0, 6)
    assert abs(integrate(np.exp, edges, 1e-12) - math.expm1(10.0)) <= 1e-12 * math.exp(10.0)


def test_integrand_sees_rows_in_increasing_order():
    rows = []

    def g(x):
        rows.append(x[:, 0].copy())
        return 1.0 / (x * x + 1e-6)

    integrate(g, (-1.0, 0.5, 1.0), 1e-10)
    assert len(rows) > 1
    assert all((np.diff(first) > 0.0).all() for first in rows)


def test_log_singularity_across_zero_raises():
    with pytest.raises(QuadratureNotConverged, match="did not converge") as info:
        integrate(lambda x: 1.0 / np.abs(x), (-1.0, 1.0), 1e-10)
    assert info.value.error_estimate > info.value.tol == 1e-10


def test_nan_integrand_raises():
    with pytest.raises(QuadratureNotConverged, match="non-finite"):
        integrate(lambda x: np.where(x > 0.5, np.nan, x), (0.0, 1.0), 1e-10)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tol_must_be_finite_and_positive(tol):
    # 0, -1 and nan used to bisect for up to 0.3 s before raising; inf returned
    # the first round's estimate
    with pytest.raises(ValueError, match="tol"):
        integrate(np.cos, (0.0, 1.0), tol)


def test_integrate_angular_takes_float_functions():
    assert abs(integrate_angular(math.cos)) <= 1e-10
    assert integrate_angular(lambda phi: phi * phi) == pytest.approx(2.0 * math.pi ** 3 / 3.0,
                                                                     rel=1e-14)
