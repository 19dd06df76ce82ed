"""Every threshold lives in ``fcontact.tolerances``, and its residual is scale-free."""

import ast
import re
from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st

import fcontact
from fcontact.tolerances import relative_residual

SOURCES = sorted(p for p in Path(fcontact.__file__).parent.glob("*.py") if p.name != "tolerances.py")


def test_no_bare_small_literal_outside_tolerances():
    found = []
    for path in SOURCES:
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                written = ast.get_source_segment(text, node)
                if re.search(r"[eE]-\d", written):
                    found.append(f"{path.name}:{node.lineno}: {written}")
    assert SOURCES
    assert not found, found


sides = st.lists(st.floats(min_value=1.0, max_value=1e3), min_size=1, max_size=6)


@given(sides, sides, st.floats(min_value=1.0, max_value=1e8))
def test_relative_residual_is_unchanged_by_scaling_sides_of_size_one_or_more(lhs, rhs, c):
    n = min(len(lhs), len(rhs))
    lhs, rhs = np.array(lhs[:n]), np.array(rhs[:n])
    base = relative_residual([(lhs, rhs)])
    assert np.isclose(relative_residual([(c * lhs, c * rhs)]), base, rtol=1e-12, atol=1e-15)


@given(sides, sides, st.floats(min_value=0.0, max_value=1e8))
def test_a_scale_only_raises_the_divisor(lhs, rhs, scale):
    n = min(len(lhs), len(rhs))
    lhs, rhs = np.array(lhs[:n]), np.array(rhs[:n])
    size = max(1.0, scale, np.abs(lhs).max(), np.abs(rhs).max())
    assert relative_residual([(lhs, rhs)], scale) <= relative_residual([(lhs, rhs)])
    assert relative_residual([(lhs, rhs)], scale) == np.abs(lhs - rhs).max() / size


@given(st.lists(st.tuples(sides, sides), min_size=1, max_size=4), st.booleans())
def test_overwrite_only_decides_where_the_difference_is_written(blocks, nan):
    pairs = [(np.array(lhs[:n]), np.array(rhs[:n])) for lhs, rhs in blocks for n in [min(len(lhs), len(rhs))]]
    if nan:
        pairs[-1][1][0] = np.nan
    kept = relative_residual((lhs, rhs.copy()) for lhs, rhs in pairs)
    written = relative_residual(((lhs, rhs.copy()) for lhs, rhs in pairs), overwrite=True)
    if nan:
        assert np.isnan(kept) and np.isnan(written)
    else:
        size = max(1.0, *(max(np.abs(lhs).max(), np.abs(rhs).max()) for lhs, rhs in pairs))
        assert kept == written == max(np.abs(lhs - rhs).max() for lhs, rhs in pairs) / size
