"""The feature matrix, native list, label and label-source readers either
parse a text or raise ``InputError`` whose message starts with the line it
stopped at."""

import io
import re
from array import array

import numpy as np
import pytest
from hypothesis import find, given, settings, strategies as st

from linkscrub import features, filters, labels
from linkscrub.errors import InputError

# cells that break a field, a row or a line, or that parse oddly
_ODD = ["", "x", '"', '"q"', "a,b", "\t", "\r", "\n", "\r\n", "\x00", "é",
        "1e309", "nan", "-0.0", "2", "#"]

# reader (to a list of rows), header, a row that parses, field separator
READERS = {
    "feature matrix": (
        lambda fh: features.read_feature_matrix(fh)[0],
        ",".join(features._META_COLUMNS
                 + tuple(map(features._versioned, features.FEATURE_NAMES))),
        ["t", "n", "s.example", "t.example", "uid", "query"]
        + ["0.5"] * len(features.FEATURE_NAMES), ","),
    "native list": (filters.parse_native, filters._HEADER,
                    ["*", "t.example", "uid", "replace", "0.5", "v1"], "\t"),
    "labels": (labels.read_labels, ",".join(labels._LABEL_COLUMNS),
               ["s.example", "t.example", "uid", "ATS", "a;b"], ","),
    # the label sources have no header; a comment line stands in for one
    "request rules": (labels.parse_request_rules, "! request rules",
                      ["||t.example^"], ""),
    "cookie purposes": (labels.parse_cookie_purpose_db,
                        "# domain,key,purpose",
                        ["s.example", "uid", "advertising"], ","),
    "curated list": (labels.parse_curated_list, "# fqdn|key",
                     ["t.example", "uid"], "|"),
}


@st.composite
def _texts(draw, header, row, sep):
    """Mostly the header and rows like ``row``, with a few odd fields, one
    field fewer or more, or none; sometimes any text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text())
    lines = [draw(st.sampled_from([header, header.upper(), ""]))]
    width = len(row)
    for _ in range(draw(st.integers(0, 5))):
        fields = list(row) + ["x"]
        for j in draw(st.lists(st.integers(0, width - 1), max_size=2)):
            fields[j] = draw(st.sampled_from(_ODD) | st.text(max_size=3))
        n = draw(st.sampled_from([width] * 3 + [width - 1, width + 1, 0]))
        lines.append(sep.join(fields[:n]))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(read, text):
    """("rows", how many were read) or ("line", the number the error
    names)."""
    try:
        result = read(io.StringIO(text, newline=""))
    except InputError as exc:
        named = re.match(r"line (\d+): ", str(exc))
        assert named, str(exc)
        return ("line", int(named.group(1)))
    return ("rows", len(result))


@pytest.mark.parametrize("read,header,row,sep", READERS.values(),
                         ids=READERS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_parses_or_names_its_line(read, header, row, sep, data):
    text = data.draw(_texts(header, row, sep))
    kind, n = _outcome(read, text)
    if kind == "line":
        assert 1 <= n <= len(text.splitlines()) + 1, (text, n)


@pytest.mark.parametrize("read,header,row,sep", READERS.values(),
                         ids=READERS)
def test_reader_strategy_reaches(read, header, row, sep):
    """The texts reach rows that parse and errors past the header."""
    texts = _texts(header, row, sep)
    for kind, least in (("rows", 2), ("line", 3)):
        find(texts, lambda t: (o := _outcome(read, t))[0] == kind
             and o[1] >= least)


_META = dict(zip(features._META_COLUMNS,
                 ("t", "n", "s.example", "t.example", "uid", "query")))
# shannon_entropy("aaaa") is -0.0
_GOLDEN = [(features.shannon_entropy("aaaa"), "-0.0"), (5e-324, "5e-324"),
           (1e16, "1e+16"), (0.1 + 0.2, "0.30000000000000004"),
           (1e-05, "1e-05")]


def _written(*vectors):
    buf = io.StringIO(newline="")
    features.write_feature_matrix(
        ({**_META, "features": fv} for fv in vectors), buf)
    return buf.getvalue()


@pytest.mark.parametrize("value,text", _GOLDEN, ids=[t for _, t in _GOLDEN])
def test_matrix_writer_golden_cells(value, text):
    """Each feature cell is its float's ``repr``; the reader gives the same
    float back, sign of zero included."""
    assert repr(value) == text
    fv = (value,) * len(features.FEATURE_NAMES)
    written = _written(fv)
    _header, row = written.splitlines()
    assert row == ",".join(list(_META.values()) + [text] * len(fv))
    meta, X = features.read_feature_matrix(io.StringIO(written, newline=""))
    assert meta == [_META]
    assert X.shape == (1, len(fv))
    assert X.tobytes() == array("d", fv).tobytes()


@pytest.mark.parametrize("line", [2, 3, 6])
def test_matrix_bad_cell_names_its_line(line):
    """Line 1 is the header; a bad last cell on any later line is named."""
    lines = _written(*[(1.0,) * len(features.FEATURE_NAMES)] * 5).splitlines()
    lines[line - 1] = lines[line - 1].rsplit(",", 1)[0] + ",x"
    with pytest.raises(InputError, match=rf"^line {line}: could not "
                                         "convert string to float: 'x'"):
        features.read_feature_matrix(io.StringIO("\n".join(lines) + "\n"))


def test_empty_matrix_reads_as_no_rows():
    meta, X = features.read_feature_matrix(io.StringIO(_written()))
    assert meta == []
    assert X.shape == (0, len(features.FEATURE_NAMES))
    assert X.dtype == np.float64
