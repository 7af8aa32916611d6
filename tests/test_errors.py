import re

import pytest

from subtok.errors import (
    FormatError,
    SubtokError,
    nonnegative_int,
    read_fields,
    read_lines,
)


class TestNonnegativeInt:
    @pytest.mark.parametrize("text,value", [("0", 0), ("0008", 8),
                                            ("9" * 40, int("9" * 40))])
    def test_ascii_digits(self, text, value):
        assert nonnegative_int(text, "count", 3) == value

    # `int` reads `0_8`, `+8`, the three with white space and the
    # Arabic-Indic and full-width digits as 8 or 1; `\u00b2` is a
    # digit to `str.isdigit` but not to `int`
    @pytest.mark.parametrize("text", [
        "", "x", "-1", "1.5", "0_8", "\u0661", "+8", " 8", "8 ", "8\n",
        "\uff18", "\u00b2", "9" * 5000])
    def test_anything_else_is_refused(self, text):
        with pytest.raises(FormatError, match="^line 3: count must be a "
                                              "non-negative integer, got "):
            nonnegative_int(text, "count", 3)


class TestReadFields:
    def test_numbers_lines_and_skips_blank_ones(self):
        lines = ["a\t1\n", "\n", "b\t2"]
        assert list(read_fields(lines, "test file", "\t", 2, "expected")) == [
            (1, ["a", "1"]), (3, ["b", "2"])]

    def test_first_line(self):
        assert list(read_fields(["a b\n"], "test file", " ", 2, "expected",
                                first_line=2)) == [(2, ["a", "b"])]

    def test_wrong_field_count(self):
        with pytest.raises(FormatError, match="line 2: expected a<TAB>b") \
                as exc:
            list(read_fields(["a\tb\n", "a\tb\tc\n"], "test file", "\t", 2,
                             "expected a<TAB>b"))
        assert exc.value.line_number == 2

    def test_reads_a_path(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("é\t1\n", encoding="utf-8")
        assert list(read_fields(path, "test file", "\t", 2, "expected")) == [
            (1, ["é", "1"])]
        assert list(read_fields(str(path), "test file", "\t", 2,
                                "expected")) == [(1, ["é", "1"])]


class TestReadLines:
    def test_keeps_newlines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a\n\nb", encoding="utf-8")
        assert list(read_lines(path, "test file")) == ["a\n", "\n", "b"]

    @pytest.mark.parametrize("content", [None, b"a\n\xff\n"])
    def test_unreadable_file(self, tmp_path, content):
        path = tmp_path / "t.txt"
        if content is not None:
            path.write_bytes(content)
        message = f"^cannot read test file {re.escape(str(path))}: "
        with pytest.raises(SubtokError, match=message):
            list(read_lines(path, "test file"))

    def test_directory(self, tmp_path):
        with pytest.raises(SubtokError, match="^cannot read test file "):
            list(read_lines(tmp_path, "test file"))
