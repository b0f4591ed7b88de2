"""Section fields, section files and the mixer surrogate refuse values that are not finite."""

import math
import re

import numpy as np
import pytest

from tetraopt import SectionField, mixer_surrogate, section_from_csv


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_section_field_refuses_a_fraction_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="fractions"):
        SectionField(np.array([0.2, bad]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_section_field_refuses_a_weight_that_is_not_finite(bad):
    with pytest.raises(ValueError, match="weights"):
        SectionField(np.array([0.2, 0.4]), weights=np.array([1.0, bad]))


def test_a_section_file_names_the_line_whose_value_does_not_parse(tmp_path):
    path = tmp_path / "section.csv"
    path.write_text("fraction,weight\n0.25,1.0\n\nabc,1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: .*'abc'"):
        section_from_csv(path)
    path.write_text("0.25,1.0\n0.5,heavy\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: .*'heavy'"):
        section_from_csv(path)


def test_a_section_file_with_a_nan_fraction_is_refused(tmp_path):
    path = tmp_path / "section.csv"
    path.write_text("0.25\nnan\n")
    with pytest.raises(ValueError, match="fractions"):
        section_from_csv(path)


@pytest.mark.parametrize("axis", range(4))
def test_mixer_surrogate_refuses_a_nan_coordinate(axis):
    point = [15.0, 0.3, 1.0, 0.4]
    point[axis] = math.nan
    with pytest.raises(ValueError, match="outside the mixer parameter box"):
        mixer_surrogate(point)
