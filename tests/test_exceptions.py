import math
import re
from fractions import Fraction

import numpy as np
import pytest

from lingcond.exceptions import finite, finite_array, integer, sample_matrix, square_matrix
from lingcond.graphs import support_graph
from lingcond.harness import ols_slope
from lingcond.ica import center_whiten, fastica
from lingcond.recover import (
    b_from_w, enumerate_admissible, hungarian_admissible, recover_condensation,
)
from lingcond.scm import (
    ScmSpec, WeightedAdjacency, generate_scm, sample, save_samples_csv, spectral_radius,
)


class TestInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
    def test_integers_pass_as_python_int(self, value):
        result = integer(value, "x")
        assert result == 3 and type(result) is int

    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(2.0), "3", True, np.True_, None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match="x must be an integer"):
            integer(value, "x")

    def test_low_bound(self):
        assert integer(0, "x", low=0) == 0
        with pytest.raises(ValueError, match="x must be an integer >= 1, got 0"):
            integer(0, "x", low=1)


class TestFinite:
    @pytest.mark.parametrize("value, expected", [
        (0.5, 0.5), (2, 2.0), (np.float32(0.5), 0.5), (np.int64(2), 2.0), (Fraction(1, 4), 0.25),
    ])
    def test_finite_reals_pass_as_float(self, value, expected):
        result = finite(value, "y")
        assert result == expected and type(result) is float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "0.1", True, None, 1j])
    def test_others_rejected(self, value):
        with pytest.raises(ValueError, match="y must be a finite number"):
            finite(value, "y")


class TestFiniteArray:
    @pytest.mark.parametrize("value", [
        [1, 2], [0.5, 2], np.array([1, 2], dtype=np.int32), np.array([1, 2], dtype=np.uint8),
        np.array([0.5, 2.0], dtype=np.float32), [[1.0], [2.5]],
    ])
    def test_integers_and_floats_pass_as_float64(self, value):
        result = finite_array(value, "z")
        assert result.dtype == np.float64 and np.array_equal(result, np.asarray(value))

    def test_float64_array_is_not_copied(self):
        x = np.ones((4, 3))
        assert finite_array(x, "z") is x

    @pytest.mark.parametrize("value", [
        [True, False], np.array(["0.5", "1"]), ["0.5", "1"], [None, 1.0],
        np.array([0.5, 1.0], dtype=object), [1j, 2.0], np.array([1.0], dtype=complex),
    ])
    def test_non_numeric_dtypes_rejected(self, value):
        with pytest.raises(ValueError, match="z must hold integers or floats"):
            finite_array(value, "z")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="z must be finite"):
            finite_array([[0.5, bad], [1.0, 2.0]], "z")

    def test_a_lone_bool_among_floats_is_inferred_as_float(self):
        # the rule reads the inferred dtype, not each element (see the docstring)
        assert np.array_equal(finite_array([0.5, True], "z"), [0.5, 1.0])


class TestSquareMatrix:
    def test_square_matrix_passes_as_float64(self):
        x = np.eye(3)
        assert square_matrix(x, "m") is x
        assert square_matrix([[1, 2], [3, 4]], "m").dtype == np.float64

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2), ()])
    def test_other_shapes_rejected_with_their_shape(self, shape):
        message = f"m must be a square matrix, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            square_matrix(np.ones(shape), "m")

    def test_the_array_rule_comes_first(self):
        with pytest.raises(ValueError, match="m must be finite"):
            square_matrix([[math.nan, 0.0]], "m")


class TestSampleMatrix:
    def test_sample_matrix_passes_as_float64(self):
        x = np.ones((5, 3))
        assert sample_matrix(x, "x") is x
        assert sample_matrix([[1, 2]], "x").dtype == np.float64

    @pytest.mark.parametrize("shape", [(0, 3), (5, 0), (0, 0), (4,), (2, 2, 2), ()])
    def test_other_shapes_rejected_with_their_shape(self, shape):
        message = f"x: expected a 2-D sample matrix with a row and a column, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_matrix(np.ones(shape), "x")

    def test_the_array_rule_comes_first(self):
        with pytest.raises(ValueError, match="x must be finite"):
            sample_matrix([[math.nan, 0.0]], "x")


# a model whose 0/1 support still has an invertible I - B, so a boolean B
# loaded as numbers (the old behaviour) yields a valid unstable SCM
_SPEC = generate_scm(6, 2, 0.4, seed=9)
_X = sample(_SPEC, 200, seed=1)
_W = np.eye(6) - _SPEC.b.matrix

# every public entry point that takes an array: (valid array, call taking it)
_ARRAY_ENTRY_POINTS = {
    "center_whiten": (_X, center_whiten),
    "fastica": (_X, fastica),
    "recover_condensation": (_X, recover_condensation),
    "b_from_w": (_W, lambda w: b_from_w(w, range(6))),
    "hungarian_admissible": (_W, hungarian_admissible),
    "enumerate_admissible": (_W, enumerate_admissible),
    "WeightedAdjacency": (_SPEC.b.matrix, WeightedAdjacency),
    "spectral_radius": (_SPEC.b.matrix, spectral_radius),
    "support_graph": (_SPEC.b.matrix, support_graph),
    "ols_slope": (np.arange(1.0, 4.0), lambda xs: ols_slope(xs, [1.0, 2.0, 4.0])),
    "save_samples_csv": (_X, lambda x: save_samples_csv("samples.csv", x)),  # in tmp_path
}


# the entry points that take a square matrix, and the name they give it
_SQUARE_ENTRY_POINTS = {
    "b_from_w": "demixing matrix",
    "hungarian_admissible": "demixing matrix",
    "enumerate_admissible": "demixing matrix",
    "WeightedAdjacency": "adjacency",
    "spectral_radius": "spectral_radius input",
    "support_graph": "support_graph input",
}


# the entry points that take a sample matrix
_SAMPLE_ENTRY_POINTS = ("center_whiten", "fastica", "recover_condensation", "save_samples_csv")


def _with_entry(value):
    def corrupt(a):
        a = a.copy()
        a.flat[1] = value  # off the diagonal of a square matrix
        return a
    return corrupt


_DTYPE, _VALUE = "must hold integers or floats", "must be finite"

# (corruption of a valid array, the message it must raise)
_CORRUPTIONS = {
    "str": (lambda a: a.astype(str), _DTYPE),
    "bool": (lambda a: a != 0, _DTYPE),
    "object": (lambda a: a.astype(object), _DTYPE),
    "complex": (lambda a: a.astype(complex), _DTYPE),
    "nan": (_with_entry(math.nan), _VALUE),
    "inf": (_with_entry(math.inf), _VALUE),
    "-inf": (_with_entry(-math.inf), _VALUE),
}


class TestArrayEntryPoints:
    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # save_samples_csv writes a file name relative to it

    @pytest.mark.parametrize("entry", _ARRAY_ENTRY_POINTS)
    def test_valid_array_accepted(self, entry):
        valid, call = _ARRAY_ENTRY_POINTS[entry]
        call(valid)

    @pytest.mark.parametrize("corruption", _CORRUPTIONS)
    @pytest.mark.parametrize("entry", _ARRAY_ENTRY_POINTS)
    def test_bad_array_rejected(self, entry, corruption):
        # before, strings and objects were cast to numbers, booleans read as
        # 0/1, NaN made spectral_radius raise LinAlgError and became an edge
        # in support_graph, and complex input raised a ComplexWarning
        valid, call = _ARRAY_ENTRY_POINTS[entry]
        corrupt, message = _CORRUPTIONS[corruption]
        with pytest.raises(ValueError, match=message):
            call(corrupt(valid))

    @pytest.mark.parametrize("shape", [(2, 3), (6,), (2, 3, 3)])
    @pytest.mark.parametrize("entry", _SQUARE_ENTRY_POINTS)
    def test_non_square_matrix_rejected(self, entry, shape):
        # the message names the argument, as every array-rule message does
        name = _SQUARE_ENTRY_POINTS[entry]
        _, call = _ARRAY_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"{name} must be a square matrix"):
            call(np.ones(shape))

    @pytest.mark.parametrize("entry", _SQUARE_ENTRY_POINTS)
    def test_empty_matrix_rejected(self, entry):
        # before, b_from_w, hungarian_admissible and enumerate_admissible failed
        # inside numpy's max on a 0 x 0 W, spectral_radius returned 0.0 and
        # WeightedAdjacency said "node count must be positive"
        name = _SQUARE_ENTRY_POINTS[entry]
        _, call = _ARRAY_ENTRY_POINTS[entry]
        message = f"{name} must be a non-empty square matrix, got shape (0, 0)"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(np.zeros((0, 0)))

    @pytest.mark.parametrize("shape", [(0, 6), (200, 0), (6,), (2, 3, 3)])
    @pytest.mark.parametrize("entry", _SAMPLE_ENTRY_POINTS)
    def test_empty_or_non_2d_samples_rejected(self, entry, shape):
        # before, a (200, 0) fit raised a raw IndexError while whitening, and
        # save_samples_csv wrote (0, 6) and (200, 0) to files the loader refuses
        _, call = _ARRAY_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match="samples: expected a 2-D sample matrix"):
            call(np.ones(shape))

    @pytest.mark.parametrize("to_entry", [str, bool])
    def test_scm_json_b_of_strings_or_booleans_rejected(self, to_entry):
        # before, every "B" entry written as "0.5" or true loaded as a number;
        # a boolean support of this model is itself a valid unstable SCM
        data = _SPEC.to_json_dict()
        data.update(B=[[to_entry(x) for x in row] for row in data["B"]])
        if to_entry is bool:
            data.update(betaMin=1.0, regime="unstable")
        with pytest.raises(ValueError, match=f"adjacency {_DTYPE}"):
            ScmSpec.from_json_dict(data)
