"""The OBJ exporter's numpy ``'%.9g'`` text against Python's own, byte for
byte, on the values where a decimal formatter goes wrong: exact and near
ties, powers of ten, the fixed/exponent switches, subnormals and the
non-finite values."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from riemann_minimal import mesh


def percent(rows):
    """Python's text of ``rows`` as ``v`` lines."""
    return b"".join(b"v %s\n" % b" ".join(b"%.9g" % v for v in row)
                    for row in rows.tolist())


def store(rows, size=8):
    """A digit store for blocks of ``rows`` rows that keeps ``size``
    columns, with its own kernel buffers."""
    work = mesh._DigitWork(min(mesh._KERNEL_VALUES, size * rows))
    return mesh._ColumnDigits(rows, size, work)


def formatted(values):
    """(numpy text, Python text) of ``values`` as ``v`` lines of three."""
    x = np.asarray(values, dtype=np.float64).ravel()
    rows = np.concatenate([x, np.zeros(-len(x) % 3)]).reshape(-1, 3)
    return b"".join(store(len(rows)).text(b"v", [rows])), percent(rows)


def assert_formats_like_python(values):
    got, want = formatted(values)
    if got != want:
        bad = [(a, b) for a, b in zip(got.splitlines(), want.splitlines())
               if a != b]
        pytest.fail(f"{len(bad)} lines differ, first: {bad[0]}")


def near(values, ulps):
    """Each positive finite value and its neighbours up to ``ulps`` ulps on
    either side (the ones that stay positive), with both signs."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    x = (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel()
    x = x[x >= 0].view(np.float64)
    return np.concatenate([x, -x])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=48))
def test_raw_bit_patterns(bits):
    assert_formats_like_python(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=48))
def test_hypothesis_floats(values):
    assert_formats_like_python(values)


def test_powers_of_ten_and_neighbours():
    # 10^k for k in [-330, 308] (the smallest round to 0 or a subnormal)
    assert_formats_like_python(near([float(f"1e{k}") for k in
                                     range(-330, 309)], 40))


def test_ten_digit_ties():
    # a 10th digit 5: a tie in decimal, near one in binary
    rng = np.random.default_rng(5)
    exps = np.repeat(np.arange(-333, 300), 4)
    heads = rng.integers(10 ** 8, 10 ** 9, len(exps))
    values = [float(f"{h}5e{e}") for h, e in zip(heads, exps)]
    assert_formats_like_python([float("1234567885e-13"), *values])
    assert_formats_like_python(near(values[::16], 3))


def test_notation_switches():
    # e = -5 / -4 and 8 / 9, before and after rounding carries into them
    edges = [1e-4, 0.00009999999995, 0.000099999999949, 0.000099999999951,
             1e9, 999999999.5, 999999999.4999999, 999999998.5,
             99999999.95, 99999999.949999, 9.9999999951]
    assert_formats_like_python(near(edges, 40))


def test_int4_unit_follows_the_rounded_digits():
    # '%.9g' % 999.99999951 is '1000': every |x| of its column is below
    # 1000, but its rounded text takes the int4 unit, so the column keeps
    # it; 999.9999994 rounds to '999.999999' and its column leaves it out;
    # 999.9999995 and its neighbours are near-ties and take '%.9g'
    assert b"%.9g" % 999.99999951 == b"1000"
    up, tie, down = (near([x], 3) for x in
                     (999.99999951, 999.9999995, 999.9999994))
    for x in np.concatenate([up, tie, down]):
        col = np.array([x, 0.5, -2.25, 999.0, 0.0])
        rows = np.stack([col, -col, col[::-1]], axis=1)
        digits = store(len(rows))
        assert b"".join(digits.text(b"v", [rows])) == percent(rows)
        wide = {c.wide for c in digits.kept.values()}
        assert wide == {x in up}, x


def test_integer_digits_of_e8():
    rng = np.random.default_rng(8)
    assert_formats_like_python(rng.uniform(1e8, 1e9, 3000))
    assert_formats_like_python(rng.integers(10 ** 8, 10 ** 9, 3000)
                               .astype(np.float64))
    assert_formats_like_python([123456789.0, 100000000.0, 999999999.0,
                                120000000.0, 100000001.0])


def test_subnormals_zeros_and_non_finite():
    rng = np.random.default_rng(9)
    sub = rng.integers(1, 2 ** 52, 3000, dtype=np.int64).view(np.float64)
    tiny = np.finfo(float).tiny
    assert_formats_like_python(np.concatenate([sub, -sub, near([tiny], 40)]))
    assert_formats_like_python([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                                5e-324, -5e-324, np.finfo(float).max])


def test_scaled_normals_across_the_fast_range():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(30000) * 10.0 ** rng.integers(-40, 40, 30000)
    assert_formats_like_python(x)


def test_ties_and_out_of_range_values_take_percent():
    # 123456789.5 and 123456790.5 are exact ties: '%.9g' rounds them to
    # even, 123456790 both; the rule M = floor(y) + (frac(y) > 0.5) alone
    # would write 123456789 and 123456790
    values = np.array([123456789.5, 123456790.5, 0.1, 2.5, -3.25e-7, 1e-300,
                       1e300, np.inf, np.nan, 0.0, -0.0])
    work = mesh._DigitWork(len(values))
    m, e, slow = mesh._decimal9(np.abs(values), work)
    assert slow.tolist() == [True, True, False, False, False, True,
                             True, True, True, False, False]
    assert m[~slow].tolist() == [100000000, 250000000, 325000000, 0, 0]
    assert (e[~slow] + mesh._EMIN).tolist() == [-1, 0, -7, 0, 0]
    got, _ = formatted(values[:3])
    assert got == b"v 123456790 123456790 0.1\n"
    assert_formats_like_python(values)


def test_real_coordinates_take_no_percent():
    rng = np.random.default_rng(11)
    x = rng.uniform(-30.0, 30.0, 100000)
    slow = mesh._decimal9(np.abs(x), mesh._DigitWork(len(x)))[2]
    assert slow.sum() <= 2  # ~1e-6 of values near a tie


def test_off_by_one_exponents_are_corrected_not_sent_to_percent():
    # floor(log10 x) can read one too high just below a power of ten; the
    # correction keeps those values on the array path
    x = near([float(f"1e{k}") for k in range(-30, 31)], 3)
    assert not mesh._decimal9(np.abs(x), mesh._DigitWork(len(x)))[2].any()


def test_face_tokens_match_percent_d():
    # every digit-count boundary up to a 12-digit index, in and out of
    # order, and an empty table
    edges = [i for k in range(1, 13) for i in (10 ** k - 1, 10 ** k)]
    for idx in ([0, 9, 10, 99, 100] + edges + [123456789012],
                [10 ** 12 - 1, 7, 10 ** 4, 9999, 0, 10 ** 8]):
        # a reused buffer: stale bytes must not reach the padding
        out = np.full(len(idx) * 40, ord("x"), dtype=np.uint8)
        table, padded = mesh._token_table(np.array(idx), out)
        width = max(len(b" %d//%d" % (i, i)) for i in idx)
        assert table.dtype.itemsize == width and padded
        for i, item in zip(idx, table):
            assert bytes(item) == (b" %d//%d" % (i, i)).ljust(width, b"\0")
    table, padded = mesh._token_table(np.array([10 ** 5, 99999 + 7]), out)
    assert bytes(table[1]) == b" 100006//100006" and not padded
    table, _ = mesh._token_table(np.array([], dtype=np.int64), out)
    assert table.shape == (0,)


def _hard_columns():
    """Three columns of 40 values '%.9g' finds hard: signed zeros, a near
    tie and exact ties (slow), infinities, a NaN with its sign bit set,
    fixed and exponent-form magnitudes, one out of the fast range."""
    rng = np.random.default_rng(12)
    special = [0.0, -0.0, 1234567885e-13, 123456789.5, np.inf, -np.inf,
               -np.float64("nan"), 1e-300, 2.5e12, -3.25e-7, 1e22, 5e-324]
    assert np.signbit(special[6])
    cols = []
    for _ in range(3):
        x = rng.standard_normal(28) * 10.0 ** rng.integers(-30, 30, 28)
        cols.append(rng.permutation(np.concatenate([special, x])))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("size", [1, 2, 8])
def test_blocks_reusing_column_digits_match_python(monkeypatch, size):
    # blocks whose columns repeat the magnitudes of earlier ones with the
    # opposite sign, as the extension's ops make them, and one translated
    # column: 4 distinct columns of magnitudes in 18; the text must not
    # depend on which columns the store still holds
    base = _hard_columns()
    flips = [(1, 1, 1), (-1, 1, -1), (1, -1, 1), (-1, -1, -1), (1, 1, 1)]
    blocks = [np.where(np.array(f) < 0, -base, base) for f in flips]
    assert (np.signbit(blocks[1]) != np.signbit(base))[:, [0, 2]].all()
    moved = base.copy()
    moved[:, 0] += 7.0
    blocks.insert(2, moved)
    calls = []
    units = mesh._g9_units
    monkeypatch.setattr(mesh, "_g9_units", lambda a, work: calls.append(
        len(a)) or units(a, work))
    digits = store(len(base), size)
    got = b"".join(t for b in blocks for t in digits.text(b"v", [b]))
    assert got == percent(np.concatenate(blocks))
    # each distinct column is formatted once only where the store holds
    # all four
    assert (sum(calls) == 4 * 40) if size == 8 else (sum(calls) > 4 * 40)
    # the new columns of several blocks go through one kernel call
    calls.clear()
    digits = store(len(base), size)
    got = b"".join(digits.text(b"v", blocks))
    assert got == percent(np.concatenate(blocks))
    assert calls == ([4 * 40] if size == 8 else [size * 40] * (4 // size))
