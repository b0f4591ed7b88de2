"""A section file's first row is a header only when it cannot be a number,
and a file without data rows is named in its error."""

import re

import pytest

from tetraopt import cov, section_from_csv


def _write(tmp_path, text):
    path = tmp_path / "section.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("text", ["fraction,weight\n", "fraction\n\n", ""])
def test_a_file_without_data_rows_is_named(tmp_path, text):
    path = _write(tmp_path, text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*no data rows"):
        section_from_csv(path)


@pytest.mark.parametrize("typo", ["0.5x", "+x", "-", ".5.5", "1e"])
def test_a_first_row_that_starts_like_a_number_is_data(tmp_path, typo):
    path = _write(tmp_path, f"{typo}\n0.2\n0.4\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: .*{re.escape(typo)}"):
        section_from_csv(path)


def test_a_nan_first_row_is_data_and_refused(tmp_path):
    with pytest.raises(ValueError, match="fractions"):
        section_from_csv(_write(tmp_path, "nan\n0.2\n0.4\n"))


@pytest.mark.parametrize("header", ["fraction", "Fraction,weight", " phase"])
def test_a_first_row_that_cannot_be_a_number_is_a_header(tmp_path, header):
    weights = ",1.0" if "weight" in header else ""
    field = section_from_csv(_write(tmp_path, f"{header}\n0.2{weights}\n0.4{weights}\n"))
    assert cov(field) == pytest.approx(1 / 3)
