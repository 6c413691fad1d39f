"""Sampled-spectrum container, domain conversion, and CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermolight import (
    InstrumentResponse,
    ReferenceSolarSpectrum,
    SampledSpectrum,
    SpectrumKind,
    convert_spectral_domain,
    q1d_psd,
    q1d_psd_per_wavelength,
    read_spectrum_csv,
    write_spectrum_csv,
)
from thermolight.spectra import (
    _PARSE_BLOCK,
    _read_lines,
    atomic_write_text,
    read_spectrum_columns,
    spectrum_to_csv_text,
)

C = 299792458.0


def _psd_lambda(t=5800.0, lo=400.0, hi=900.0, n=501):
    grid = np.linspace(lo, hi, n)
    vals = np.array([q1d_psd_per_wavelength(l, t) for l in grid])
    return SampledSpectrum(grid, vals, SpectrumKind.PSD_PER_WAVELENGTH)


def test_spectra_compare_and_hash_by_identity():
    s = _psd_lambda(n=11)
    response = InstrumentResponse(s.wavelengths_nm, np.ones(11))
    for spectrum in (s, response):
        assert spectrum == spectrum
        assert spectrum in {spectrum}
    assert s != SampledSpectrum(s.wavelengths_nm, s.values, s.kind)


def test_grid_validation():
    good = np.array([400.0, 500.0, 600.0])
    with pytest.raises(ValueError):
        SampledSpectrum(good[::-1].copy(), np.ones(3), SpectrumKind.COUNTS)
    with pytest.raises(ValueError):
        SampledSpectrum(np.array([400.0, 400.0, 600.0]), np.ones(3), SpectrumKind.COUNTS)
    with pytest.raises(ValueError):
        SampledSpectrum(good, np.array([1.0, -2.0, 1.0]), SpectrumKind.COUNTS)
    with pytest.raises(ValueError):
        SampledSpectrum(good, np.array([1.0, math.nan, 1.0]), SpectrumKind.COUNTS)


def test_arrays_are_immutable_copies():
    grid = np.array([400.0, 500.0, 600.0])
    vals = np.array([1.0, 2.0, 3.0])
    s = SampledSpectrum(grid, vals, SpectrumKind.COUNTS)
    grid[0] = 1.0  # caller's array, not the spectrum's
    assert s.wavelengths_nm[0] == 400.0
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_interpolate_and_resample():
    s = SampledSpectrum(
        np.array([400.0, 500.0, 600.0]), np.array([0.0, 10.0, 20.0]), SpectrumKind.COUNTS
    )
    assert s.interpolate(450.0) == pytest.approx(5.0)
    for outside in (399.0, 601.0, math.nan):
        with pytest.raises(ValueError, match="wavelength_nm"):
            s.interpolate(outside)
    assert np.array_equal(s.interpolate(s.wavelengths_nm), s.values)


def test_band_power_constant_density():
    # trapezoid is exact for a constant: P = value * width
    grid = np.linspace(400.0, 900.0, 173)
    s = SampledSpectrum(grid, np.full(grid.size, 2.5), SpectrumKind.PSD_PER_WAVELENGTH)
    assert s.band_power() == pytest.approx(2.5 * 500.0, rel=1e-12)
    assert s.band_power((500.0, 700.0)) == pytest.approx(2.5 * 200.0, rel=1e-12)


def test_domain_conversion_round_trip_and_power():
    s = _psd_lambda()
    w = convert_spectral_domain(s, SpectrumKind.PSD_PER_ANGULAR_FREQUENCY)
    assert w.kind == SpectrumKind.PSD_PER_ANGULAR_FREQUENCY
    # same wavelength grid, values divided by |d omega / d lambda|
    assert np.array_equal(w.wavelengths_nm, s.wavelengths_nm)
    back = convert_spectral_domain(w, SpectrumKind.PSD_PER_WAVELENGTH)
    assert np.allclose(back.values, s.values, rtol=1e-12)
    # integrated band power is invariant under the domain swap
    assert w.band_power((450.0, 850.0)) == pytest.approx(
        s.band_power((450.0, 850.0)), rel=1e-12
    )


def test_domain_conversion_matches_pointwise_density():
    t = 5800.0
    s = _psd_lambda(t)
    w = convert_spectral_domain(s, SpectrumKind.PSD_PER_ANGULAR_FREQUENCY)
    k = 137
    omega = 2.0 * math.pi * C / (s.wavelengths_nm[k] * 1e-9)
    assert w.values[k] == pytest.approx(q1d_psd(omega, t), rel=1e-12)


def test_conversion_rejects_counts_and_cross_family():
    counts = SampledSpectrum(
        np.array([400.0, 500.0]), np.array([1.0, 2.0]), SpectrumKind.COUNTS
    )
    with pytest.raises(ValueError):
        convert_spectral_domain(counts, SpectrumKind.PSD_PER_WAVELENGTH)
    s = _psd_lambda(n=11)
    with pytest.raises(ValueError):
        convert_spectral_domain(s, SpectrumKind.IRRADIANCE_PER_ANGULAR_FREQUENCY)


def test_csv_round_trip_is_exact(tmp_path):
    s = _psd_lambda(n=41)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, s)
    back = read_spectrum_csv(path)
    assert back.kind == s.kind
    assert np.array_equal(back.wavelengths_nm, s.wavelengths_nm)
    assert np.array_equal(back.values, s.values)


def test_csv_text_layout():
    s = SampledSpectrum(
        np.array([400.0, 500.0]), np.array([1.5, 2.5]), SpectrumKind.COUNTS
    )
    text = spectrum_to_csv_text(s)
    lines = text.strip().splitlines()
    assert lines[0] == "# kind=counts"
    assert lines[1] == "wavelength_nm,value"
    assert lines[2].startswith("400.0,")


def test_csv_reader_requires_kind(tmp_path):
    path = tmp_path / "nokind.csv"
    path.write_text("wavelength_nm,value\n400.0,1.0\n500.0,2.0\n")
    with pytest.raises(ValueError):
        read_spectrum_csv(path)
    bad = tmp_path / "badrow.csv"
    bad.write_text("# kind=counts\nwavelength_nm,value\n400.0,1.0\n500.0\n")
    with pytest.raises(ValueError):
        read_spectrum_csv(bad)


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, "first version, quite long " * 10)
    atomic_write_text(path, "second")
    assert path.read_text() == "second"
    assert list(tmp_path.iterdir()) == [path]  # no temp files left behind


# -- the reader's contract: accepted layouts and exact error messages ---------

_ROWS = ["400.0,1.0", "450.0,2.0", "500.0,3.0", "550.0,4.0", "600.0,5.0"]
_HEAD = "# kind=counts\nwavelength_nm,value\n"  # data rows start on line 3


def _write(tmp_path, text: str, name: str = "s.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


@pytest.mark.parametrize("bad, message", [
    ("500.0", "expected 'wavelength_nm,value', got '500.0'"),
    ("500.0,1.0,2.0", "expected 'wavelength_nm,value', got '500.0,1.0,2.0'"),
    ("500.0,abc", "non-numeric row '500.0,abc'"),
], ids=["short", "three-fields", "non-numeric"])
@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
def test_csv_reader_names_the_line_of_a_bad_row(tmp_path, bad, message, at):
    rows = list(_ROWS)
    rows[at] = bad
    path = _write(tmp_path, _HEAD + "\n".join(rows) + "\n")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(path)
    assert str(info.value) == f"{path}:{3 + at}: {message}"
    if message.startswith("non-numeric"):
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value.__cause__) == "could not convert string to float: 'abc'"
    else:
        assert info.value.__cause__ is None


def test_csv_reader_reports_the_first_bad_row_before_any_file_level_error(tmp_path):
    # no kind line and too few rows, but the bad rows come first, in file order
    path = _write(tmp_path, "wavelength_nm,value\n400.0,x\n1,2,3\n")
    with pytest.raises(ValueError, match=r":2: non-numeric row '400.0,x'$"):
        read_spectrum_csv(path)
    # fields that balance across rows (one short, one long) are still refused at the first
    path = _write(tmp_path, _HEAD + "400.0\n450.0,1.0,2.0\n500.0,3.0\n")
    with pytest.raises(ValueError, match=r":3: expected 'wavelength_nm,value', got '400.0'$"):
        read_spectrum_csv(path)


def test_csv_reader_reads_crlf_line_endings(tmp_path):
    path = _write(tmp_path, "# kind=counts\r\nwavelength_nm,value\r\n400.0,1.0\r\n500.0,2.5\r\n")
    s = read_spectrum_csv(path)
    assert s.kind == SpectrumKind.COUNTS
    assert s.wavelengths_nm.tolist() == [400.0, 500.0]
    assert s.values.tolist() == [1.0, 2.5]
    bad = _write(tmp_path, "# kind=counts\r\n400.0,1.0\r\n500.0;2.5\r\n", "bad.csv")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(bad)
    assert str(info.value) == f"{bad}:3: expected 'wavelength_nm,value', got '500.0;2.5'"


def test_csv_reader_skips_comments_blank_lines_and_headers_anywhere(tmp_path):
    text = (
        "\n# a comment\nwavelength_nm,value\n400.0,1.0\n\n  # another, with a comma\n"
        "Wavelength_NM, Value\n  450.0 , 2.0  \n\n500.0,3.0\n# kind=ratio\n"
    )
    s = read_spectrum_csv(_write(tmp_path, text))
    assert s.kind == SpectrumKind.RATIO  # the kind line may follow the data
    assert s.wavelengths_nm.tolist() == [400.0, 450.0, 500.0]
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    # of several kind lines the last one counts; a default kind yields to any of them
    twice = _write(tmp_path, "# kind=ratio\n400.0,1.0\n500.0,2.0\n#kind= counts \n", "twice.csv")
    assert read_spectrum_csv(twice, default_kind=SpectrumKind.RATIO).kind == SpectrumKind.COUNTS


def test_csv_reader_file_level_errors(tmp_path):
    no_kind = _write(tmp_path, "wavelength_nm,value\n400.0,1.0\n500.0,2.0\n", "a.csv")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(no_kind)
    assert str(info.value) == f"{no_kind}: missing '# kind=<kind>' header comment"
    unknown = _write(tmp_path, "# kind=photons\n400.0,1.0\n", "b.csv")  # unknown kind before too few rows
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(unknown)
    assert str(info.value) == f"{unknown}: unknown spectrum kind 'photons'"
    assert info.value.__cause__ is None
    one_row = _write(tmp_path, _HEAD + "400.0,1.0\n", "c.csv")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(one_row)
    assert str(info.value) == f"{one_row}: need at least two data rows"
    empty = _write(tmp_path, "# kind=counts\n", "d.csv")
    with pytest.raises(ValueError, match="need at least two data rows"):
        read_spectrum_csv(empty)


def test_csv_reader_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"# kind=counts\n# \xe9talon\n400.0,1.0\n500.0,2.0\n")
    with pytest.raises(UnicodeDecodeError):  # a ValueError, so the CLI reports it as one line
        read_spectrum_csv(path)
    # a bad row read before the undecodable bytes is reported first, as the file is read in order
    rows = "".join(f"{400.0 + k},1.0\n" for k in range(2000))  # well past one 8 KiB read
    path.write_bytes(b"# kind=counts\n400.0,x\n" + rows.encode() + b"# \xe9\n")
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(path)
    assert not isinstance(info.value, UnicodeDecodeError)
    assert str(info.value) == f"{path}:2: non-numeric row '400.0,x'"


def test_csv_reader_reads_past_a_byte_order_mark(tmp_path):
    for name, text in [("bulk.csv", _HEAD + "400.0,1.0\n500.0,2.5\n"),
                       ("lines.csv", _HEAD + "400.0,1.0\n# between rows\n500.0,2.5\n")]:
        s = read_spectrum_csv(_write(tmp_path, "\ufeff" + text, name))
        assert s.kind == SpectrumKind.COUNTS
        assert s.values.tolist() == [1.0, 2.5]


@pytest.mark.parametrize("between", ["", "# a comment between rows\n"], ids=["bulk", "lines"])
@pytest.mark.parametrize("rows, lineno, message", [
    (["400.0,1.0", "450.0,-2.0", "500.0,3.0"], 4, "values[1] must be a finite real in [0, inf), got -2.0"),
    (["400.0,1.0", "450.0,2.0", "500.0,nan"], 5, "values[2] must be a finite real in [0, inf), got nan"),
    (["-400.0,1.0", "450.0,2.0", "500.0,3.0"], 3, "wavelengths_nm[0] must be a finite real in (0, inf), got -400.0"),
    (["400.0,1.0", "450.0,2.0", "450.0,3.0", "440.0,4.0"], 5, "wavelength grid must be strictly increasing"),
], ids=["negative-value", "nan-value", "negative-wavelength", "repeated-wavelength"])
def test_csv_reader_names_the_row_of_a_refused_sample(tmp_path, rows, lineno, message, between):
    # a comment between the first two rows moves every later row down a line
    path = _write(tmp_path, _HEAD + rows[0] + "\n" + between + "\n".join(rows[1:]) + "\n")
    if between and lineno > 3:
        lineno += 1
    with pytest.raises(ValueError) as info:
        read_spectrum_csv(path)
    assert str(info.value) == f"{path}:{lineno}: {message}"
    assert info.value.__cause__ is None


@pytest.mark.parametrize("cls, rows, lineno, message", [
    (InstrumentResponse, ["400.0,0.5", "500.0,nan", "600.0,0.7"], 3,
     "values[1] must be a finite real in [0, inf), got nan"),
    (InstrumentResponse, ["400.0,0.5", "500.0,0.6", "600.0,0.0"], 4, "response values must be strictly positive"),
    (ReferenceSolarSpectrum, ["400.0,1.5", "600.0,1.2", "1200.0,0.3"], 2,
     "reference spectrum must cover at least [350, 1100] nm"),
    (ReferenceSolarSpectrum, ["300.0,1.5", "600.0,1.2", "1000.0,0.3"], 4,
     "reference spectrum must cover at least [350, 1100] nm"),
], ids=["response-nan", "response-zero", "reference-short-start", "reference-short-end"])
def test_subclass_refusals_name_the_row(tmp_path, cls, rows, lineno, message):
    path = _write(tmp_path, "wavelength_nm,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError) as info:
        cls.from_csv(path)
    assert str(info.value) == f"{path}:{lineno}: {message}"


_layout_lines = st.one_of(
    st.sampled_from(["# kind=counts", "#kind= ratio ", "# kind=photons", "# a note, with a comma", "", "  \t",
                     "wavelength_nm,value", "Wavelength_NM, Value", "500.0", "1,2,3", "abc,1", "1,", " ,2"]),
    st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True), st.sampled_from(["", " ", "\t"])).map(
        lambda r: f"{r[2]}{r[0]!r},{r[2]}{r[1]!r}{r[2]}"),
)
_rows = st.tuples(st.floats(allow_nan=True), st.floats(allow_nan=True)).map(lambda r: f"{r[0]!r},{r[1]!r}")


@settings(deadline=None)
@given(
    head=st.lists(st.sampled_from(["# kind=counts", " # kind=ratio", "# comment", "", " \t", "wavelength_nm,value"]),
                  max_size=4),
    # good rows ahead of the body, so that the body can start in any block
    lead=st.integers(0, 2 * _PARSE_BLOCK + 1),
    body=st.lists(st.one_of(_rows, _rows, _rows, _layout_lines), max_size=12),
    newline=st.sampled_from(["\n", "\r\n"]),
    last_newline=st.booleans(),
    bom=st.booleans(),
    default_kind=st.sampled_from([None, SpectrumKind.RATIO]),
)
def test_bulk_reader_matches_the_line_loop(tmp_path_factory, head, lead, body, newline, last_newline, bom,
                                          default_kind):
    lines = head + [f"{400.0 + i!r},{i / 7!r}" for i in range(lead)] + body
    text = ("\ufeff" if bom else "") + newline.join(lines) + (newline if last_newline else "")
    path = tmp_path_factory.mktemp("layout") / "s.csv"
    path.write_bytes(text.encode("utf-8"))
    results = []
    for read in (read_spectrum_columns, _read_lines):
        try:
            results.append(read(path, default_kind))
        except ValueError as exc:
            results.append((type(exc), str(exc)))
    bulk, lines = results
    if isinstance(lines[0], type):
        assert bulk == lines
    else:
        wl, values, kind, linenos = bulk
        assert (wl.tobytes(), values.tobytes(), kind, list(linenos)) == (
            lines[0].tobytes(), lines[1].tobytes(), lines[2], list(lines[3]))


_finite_values = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e308]),
    st.floats(0.0, 1e308, allow_subnormal=True),
)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_csv_round_trip_is_bit_exact_and_rewrites_the_same_bytes(tmp_path_factory, data):
    grid = sorted(data.draw(st.lists(st.floats(5e-324, 1e308), min_size=2, max_size=40, unique=True)))
    values = data.draw(st.lists(_finite_values, min_size=len(grid), max_size=len(grid)))
    s = SampledSpectrum(np.array(grid), np.array(values), SpectrumKind.RATIO)
    path = tmp_path_factory.mktemp("rt") / "s.csv"
    write_spectrum_csv(path, s)
    first = path.read_bytes()
    back = read_spectrum_csv(path)
    assert back.wavelengths_nm.tobytes() == s.wavelengths_nm.tobytes()
    assert back.values.tobytes() == s.values.tobytes()
    write_spectrum_csv(path, back)
    assert path.read_bytes() == first
