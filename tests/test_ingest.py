"""CSV loaders, strict schema handling, and exposure linking."""

import csv
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    FRAGILITY,
    as_stream,
    fragility_csv,
    geounits_csv,
    hazards_csv,
    make_hazard_field,
    make_portfolio,
    make_registry,
    portfolio_csv,
)
from geostress import (
    FragilityTable,
    HazardType,
    dump_portfolio,
    link_exposures,
    load_fragility,
    load_geounits,
    load_hazard_table,
    load_portfolio,
)
from geostress import ingest
from geostress.errors import (
    DuplicateKey,
    InvariantViolation,
    MalformedRow,
    MissingFragility,
    MissingHazard,
    NegativeFragility,
    NegativeIntensity,
    SchemaMismatch,
    StressError,
    UnknownHazardToken,
    UnresolvedGeo,
)


class TestLoadPortfolio:
    def test_happy_path_preserves_order(self):
        data = (
            b"id,geo_id,sector,ead,pd0,lgd0,value,adaptation\n"
            b"a,g1,retail,100,0.02,0.4,120,0.1\n"
            b"b,g1,retail,200,0.03,0.5,210,0.0\n"
            b"c,g2,tourism,300,0.01,0.3,330,0.2\n"
        )
        p = load_portfolio(as_stream(data))
        assert [i.id for i in p.instruments] == ["a", "b", "c"]
        assert p.instruments[1].ead == 200.0

    def test_negative_ead_rejected(self):
        data = (
            b"id,geo_id,sector,ead,pd0,lgd0,value,adaptation\n"
            b"a,g1,retail,-5,0.02,0.4,120,0.1\n"
        )
        with pytest.raises(InvariantViolation, match="ead"):
            load_portfolio(as_stream(data))

    def test_missing_column_rejected(self):
        data = b"id,sector,ead,pd0,lgd0,value,adaptation\na,retail,1,0.1,0.1,1,0\n"
        with pytest.raises(SchemaMismatch, match="geo_id"):
            load_portfolio(as_stream(data))

    def test_round_trip(self):
        original = make_portfolio()
        reloaded = load_portfolio(as_stream(dump_portfolio(original)))
        assert reloaded == original

    def test_fixture_csv_matches_fixture_objects(self):
        assert load_portfolio(as_stream(portfolio_csv())) == make_portfolio()


class TestLoadHazardTable:
    def test_happy_path(self):
        data = b"geo_id,hazard,intensity\ng1,wildfire,0.8\ng1,drought,0.2\n"
        field = load_hazard_table(as_stream(data))
        assert len(field) == 2
        assert field.intensity("g1", HazardType.WILDFIRE) == 0.8

    def test_duplicate_key_rejected(self):
        data = b"geo_id,hazard,intensity\ng1,wildfire,0.8\ng1,wildfire,0.9\n"
        with pytest.raises(DuplicateKey):
            load_hazard_table(as_stream(data))

    def test_unknown_hazard_rejected(self):
        data = b"geo_id,hazard,intensity\ng1,smog,0.8\n"
        with pytest.raises(UnknownHazardToken, match="smog"):
            load_hazard_table(as_stream(data))

    def test_negative_intensity_rejected(self):
        data = b"geo_id,hazard,intensity\ng1,flood,-0.1\n"
        with pytest.raises(NegativeIntensity):
            load_hazard_table(as_stream(data))

    def test_absent_pair_lookup_is_an_error(self):
        field = load_hazard_table(as_stream(b"geo_id,hazard,intensity\ng1,flood,0.5\n"))
        with pytest.raises(KeyError):
            field.intensity("g1", HazardType.HEAT)


class TestLoadFragility:
    def test_happy_path(self):
        table = load_fragility(as_stream(b"geo_id,fragility\ng1,0.5\n"))
        assert len(table) == 1
        assert table.fragility("g1") == 0.5

    def test_duplicate_rejected(self):
        data = b"geo_id,fragility\ng1,0.5\ng1,0.6\n"
        with pytest.raises(DuplicateKey):
            load_fragility(as_stream(data))

    def test_negative_rejected(self):
        with pytest.raises(NegativeFragility):
            load_fragility(as_stream(b"geo_id,fragility\ng1,-0.1\n"))


class TestLoadGeounits:
    def test_happy_path(self):
        units = load_geounits(as_stream(geounits_csv()))
        assert [u.id for u in units] == ["g1", "g2", "g3", "g4"]
        assert units[0].channel.value == "wui"

    def test_unknown_channel_rejected(self):
        data = b"geo_id,name,channel\ng1,G1,mountains\n"
        with pytest.raises(Exception, match="mountains"):
            load_geounits(as_stream(data))


class TestLinkExposures:
    def _parts(self):
        return (
            make_portfolio(),
            make_hazard_field(),
            FragilityTable(entries=dict(FRAGILITY)),
            make_registry(),
        )

    def test_happy_path_resolves_context(self):
        linked = link_exposures(*self._parts())
        assert len(linked.contexts) == 10
        assert linked.weight_source == "derived_from_value"
        ctx = linked.contexts[0]  # i01 in g1
        assert ctx.baseline_hazards[HazardType.WILDFIRE] == 0.80
        assert ctx.fragility == 0.60
        assert ctx.channel.value == "wui"
        assert abs(sum(linked.portfolio.weights) - 1.0) <= 1e-9
        # One context per geo unit, shared by the instruments located there.
        assert linked.contexts[1] is ctx  # i02, also in g1
        assert len({id(c) for c in linked.contexts}) == 4

    def test_order_preserved_and_fields_untouched(self):
        portfolio, *rest = self._parts()
        linked = link_exposures(portfolio, *rest)
        assert tuple(i.id for i in linked.portfolio.instruments) == tuple(
            i.id for i in portfolio.instruments
        )
        assert linked.portfolio.instruments == portfolio.instruments

    def test_unresolved_geo(self):
        portfolio, hazards, fragility, registry = self._parts()
        with pytest.raises(UnresolvedGeo, match="g1"):
            link_exposures(
                portfolio, hazards, fragility, [u for u in registry if u.id != "g1"]
            )

    def test_missing_hazard(self):
        portfolio, hazards, fragility, registry = self._parts()
        pruned = {k: v for k, v in hazards.entries.items() if k != ("g1", HazardType.FLOOD)}
        with pytest.raises(MissingHazard, match="flood"):
            link_exposures(portfolio, type(hazards)(entries=pruned), fragility, registry)

    def test_missing_fragility(self):
        portfolio, hazards, fragility, registry = self._parts()
        pruned = FragilityTable(entries={k: v for k, v in FRAGILITY.items() if k != "g3"})
        with pytest.raises(MissingFragility, match="g3"):
            link_exposures(portfolio, hazards, pruned, registry)

    def test_provided_weights_flagged(self):
        portfolio, hazards, fragility, registry = self._parts()
        n = len(portfolio.instruments)
        weighted = type(portfolio)(
            instruments=portfolio.instruments, weights=tuple(1.0 / n for _ in range(n))
        )
        linked = link_exposures(weighted, hazards, fragility, registry)
        assert linked.weight_source == "provided"


# (loader, header, one valid row) for every loader with a numeric column.
_NUMERIC_FILES = {
    "portfolio": (load_portfolio, "id,geo_id,sector,ead,pd0,lgd0,value,adaptation",
                  "a,g1,retail,100,0.02,0.4,120,0.1"),
    "hazards": (load_hazard_table, "geo_id,hazard,intensity", "g1,flood,0.5"),
    "fragility": (load_fragility, "geo_id,fragility", "g1,0.5"),
}
_NUMERIC_COLUMNS = [
    ("portfolio", "ead"), ("portfolio", "pd0"), ("portfolio", "lgd0"),
    ("portfolio", "value"), ("portfolio", "adaptation"),
    ("hazards", "intensity"), ("fragility", "fragility"),
]


@pytest.mark.parametrize("token", ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400"])
@pytest.mark.parametrize("kind, column", _NUMERIC_COLUMNS)
def test_non_finite_number_rejected(kind, column, token):
    loader, header, row = _NUMERIC_FILES[kind]
    fields = row.split(",")
    fields[header.split(",").index(column)] = token
    data = f"{header}\n{row}\n{','.join(fields)}\n".encode()
    with pytest.raises(MalformedRow, match=f"{kind}.csv:3: .*{column}: not a finite number"):
        loader(as_stream(data), filename=f"{kind}.csv")


_ALL_FILES = {
    **_NUMERIC_FILES,
    "geounits": (load_geounits, "geo_id,name,channel", "g1,G1,wui"),
}


@pytest.mark.parametrize("where", ["header", "first-row", "late-row"])
@pytest.mark.parametrize("kind", sorted(_ALL_FILES))
def test_non_utf8_file_rejected(kind, where):
    loader, header, row = _ALL_FILES[kind]
    lines = [header.encode(), row.encode()]
    if where == "header":
        lines[0] = lines[0].replace(b"geo_id", b"geo_\xe9d")
    elif where == "first-row":
        lines[1] = lines[1].replace(b"g1", b"g\xe9")
    else:
        # Past the text layer's first decoded block.
        lines += [row.replace("g1", f"g{k}").encode() for k in range(2, 2000)]
        lines.append(row.replace("g1", "g\xff").encode("latin-1"))
    data = b"\n".join(lines) + b"\n"
    with pytest.raises(SchemaMismatch, match=f"{kind}.csv: not UTF-8"):
        loader(as_stream(data), filename=f"{kind}.csv")


def test_fixture_files_load(fixture_files):
    with open(fixture_files["portfolio"], "rb") as fh:
        assert len(load_portfolio(fh).instruments) == 10
    with open(fixture_files["hazards"], "rb") as fh:
        assert len(load_hazard_table(fh)) == 16
    with open(fixture_files["fragility"], "rb") as fh:
        assert len(load_fragility(fh)) == 4


def _with_cell(kind, column, token):
    """The kind's CSV: the header, then one valid row with ``column`` set
    to ``token`` (quoted, so any character survives)."""
    loader, header, row = _NUMERIC_FILES[kind]
    fields = row.split(",")
    fields[header.split(",").index(column)] = token
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerows([header.split(","), fields])
    return loader, out.getvalue().encode()


# float() reads each of these; the schema's "." decimal numbers do not
# allow underscores, surrounding whitespace or non-ASCII digits.
_LOOSE_NUMBERS = [
    "1_0.5", "0.5_0", " 0.5", "0.5 ", " 1_0.5 ", "\t0.5", "0.5\n", "0.5\u00a0",
    "\u0661\u0662", "\uff10.5", "0.\u0665",
]


@pytest.mark.parametrize("token", _LOOSE_NUMBERS)
@pytest.mark.parametrize("kind, column", _NUMERIC_COLUMNS)
def test_loose_number_rejected(kind, column, token):
    loader, data = _with_cell(kind, column, token)
    with pytest.raises(MalformedRow, match=f"{kind}.csv:2: malformed row: {column}: not a number: "):
        loader(as_stream(data), filename=f"{kind}.csv")


@pytest.mark.parametrize("token", ["1", "1.", ".5", "+0.5", "1E-3", "5e-324", "0.0", "-0.0"])
@pytest.mark.parametrize("kind, column", _NUMERIC_COLUMNS)
def test_plain_number_forms_accepted(kind, column, token):
    loader, data = _with_cell(kind, column, token)
    loaded = loader(as_stream(data))
    if kind == "portfolio":
        value = getattr(loaded.instruments[0], column)
    elif kind == "hazards":
        value = loaded.entries[("g1", HazardType.FLOOD)]
    else:
        value = loaded.entries["g1"]
    assert repr(value) == repr(float(token))


def test_finite_numbers_whose_sum_overflows_accepted():
    data = (
        b"id,geo_id,sector,ead,pd0,lgd0,value,adaptation\n"
        b"a,g1,retail,1.7976931348623157e+308,0.5,0.5,1.7976931348623157e+308,1e+308\n"
    )
    (inst,) = load_portfolio(as_stream(data)).instruments
    assert (inst.ead, inst.value, inst.adaptation) == (1.7976931348623157e308,) * 2 + (1e308,)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(_finite)
def test_every_float_repr_is_a_number(x):
    assert repr(ingest._float(repr(x), "f.csv", 2, "c")) == repr(x)


@given(st.lists(_finite, min_size=5, max_size=5))
def test_every_portfolio_row_of_float_reprs_is_read(xs):
    read = ingest._portfolio_numbers([repr(x) for x in xs], "portfolio.csv", 2)
    assert [repr(x) for x in read] == [repr(x) for x in xs]


def _stream_cases():
    """(kind, bytes, error) for each loader: clean, then each fault it can meet."""
    for kind, (_, header, row) in sorted(_ALL_FILES.items()):
        yield kind, f"{header}\n{row}\n".encode(), None
        yield kind, b"", SchemaMismatch
        yield kind, b"wrong,header\n", SchemaMismatch
        yield kind, f"{header}\n{row},extra\n".encode(), MalformedRow
        yield kind, f"{header}\n".encode() + b"\xff\n", SchemaMismatch
        if kind != "geounits":  # the one loader without a numeric column
            yield kind, f"{header}\n{row[:-3]}x.5\n".encode(), MalformedRow


@pytest.mark.parametrize("kind, data, error", _stream_cases())
def test_loader_leaves_the_stream_open(kind, data, error):
    loader = _ALL_FILES[kind][0]
    stream = as_stream(data)
    if error is None:
        loader(stream)
    else:
        with pytest.raises(error):
            loader(stream)
    assert not stream.closed
    stream.seek(0)
    assert stream.read() == data


# Arbitrary bytes, and text from the characters valid rows are made of, so
# that some draws load.
_file_bytes = st.binary() | st.text(
    alphabet='g1a,.05e-+_ \n\r"\x00\xe9floodwuiretail', max_size=200
).map(str.encode)


@given(kind=st.sampled_from(sorted(_ALL_FILES)), header=st.booleans(), data=_file_bytes)
def test_any_bytes_load_or_raise_a_stress_error(kind, header, data):
    loader, header_line, _ = _ALL_FILES[kind]
    if header:
        data = f"{header_line}\n".encode() + data
    stream = as_stream(data)
    try:
        loader(stream)
    except StressError:
        pass
    assert not stream.closed
