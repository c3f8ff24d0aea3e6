"""CSV loaders, strict schema handling, and exposure linking."""

import csv
import gc
import io
import tracemalloc

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
    Channel,
    FragilityTable,
    HazardField,
    HazardType,
    Instrument,
    Portfolio,
    dump_portfolio,
    link_exposures,
    load_fragility,
    load_geounits,
    load_hazard_table,
    load_portfolio,
)
from geostress import ingest
from geostress.model import HAZARD_TYPES, GeoUnit, _frozen
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
from test_golden import gen


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

    def test_a_loaded_table_keeps_few_bytes_per_row(self, tmp_path):
        # gen.py's cli_csv_sparse shape: 60,000 rows over 15,000 geo units. Held by geo unit
        # (a float per row, a string and an index entry per geo unit), the loaded table kept
        # 36 B per row under tracemalloc on Python 3.11; held as a dict keyed by
        # (geo_id, HazardType) tuples, it kept 178 B per row.
        path = gen.generate(str(tmp_path), 1, 30_000, 15_000, 1000)["paths"]["hazards"]
        with open(path, "rb") as source:
            tracemalloc.start()
            try:
                field = load_hazard_table(source)
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert len(field) == 60_000
        assert kept / len(field) < 50


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


@pytest.mark.parametrize("where", ["header", "first-row", "late-row", "cut-record"])
@pytest.mark.parametrize("kind", sorted(_ALL_FILES))
def test_non_utf8_file_rejected(kind, where):
    loader, header, row = _ALL_FILES[kind]
    lines = [header.encode(), row.encode()]
    if where == "header":
        lines[0] = lines[0].replace(b"geo_id", b"geo_\xe9d")
    elif where == "first-row":
        lines[1] = lines[1].replace(b"g1", b"g\xe9")
    elif where == "cut-record":
        # A quoted line break whose record goes on past the text layer's first 8,192-byte
        # block, in which a later byte is not UTF-8: the lines decoded before the error end
        # inside a record, and no part of that record is read as a row.
        while sum(map(len, lines)) + len(lines) < 8100:
            lines.append(row.replace("g1", f"g{len(lines)}").encode())
        lines += [b'"g', b"z" * 100 + b'",' + row.encode().split(b",", 1)[1], b"\xff"]
    else:
        # Past the text layer's first decoded block.
        lines += [row.replace("g1", f"g{k}").encode() for k in range(2, 2000)]
        lines.append(row.replace("g1", "g\xff").encode("latin-1"))
    data = b"\n".join(lines) + b"\n"
    with pytest.raises(SchemaMismatch, match=f"{kind}.csv: not UTF-8"):
        loader(as_stream(data), filename=f"{kind}.csv")


_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("loader, data", [
    (load_portfolio, portfolio_csv()), (load_hazard_table, hazards_csv()),
    (load_fragility, fragility_csv()), (load_geounits, geounits_csv()),
], ids=["portfolio", "hazards", "fragility", "geounits"])
def test_leading_byte_order_mark_is_dropped(loader, data):
    """Spreadsheet tools start a "CSV UTF-8" export with a byte order mark: the
    file loads as it does without one. A second one is data, so the header's
    first column is not ``geo_id`` or ``id``."""
    assert loader(as_stream(_BOM + data)) == loader(as_stream(data))
    with pytest.raises(SchemaMismatch, match="header missing column"):
        loader(as_stream(_BOM + _BOM + data))


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


# (header, a row that spans two lines, a bad row, the bad row's error at line 4)
_SPANNING = {
    "portfolio": ("id,geo_id,sector,ead,pd0,lgd0,value,adaptation",
                  '"a\n1",g1,retail,100,0.02,0.4,120,0.1', "b,g2,retail,x,0.02,0.4,120,0.1",
                  "MalformedRow: portfolio.csv:4: malformed row: ead: not a number: 'x'"),
    "hazards": ("geo_id,hazard,intensity", '"g\n1",wildfire,0.1', "g2,flood,-1",
                "NegativeIntensity: hazards.csv:4: intensity -1.0 < 0"),
    "fragility": ("geo_id,fragility", '"g\r\n1",0.1', "g2,-1",
                  "NegativeFragility: fragility.csv:4: fragility -1.0 < 0"),
    "geounits": ("geo_id,name,channel", 'g1,"G\r1",wui', "g2,G2,nowhere",
                 "MalformedRow: geounits.csv:4: malformed row: unknown channel 'nowhere'"),
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 4096])
@pytest.mark.parametrize("kind", sorted(_SPANNING))
def test_an_error_names_the_line_its_row_starts_on(kind, chunk_rows, monkeypatch):
    """A quoted line break makes a record span two lines: the rows after it
    are named by the physical line they start on, not by their count."""
    monkeypatch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
    header, spanning, bad, error = _SPANNING[kind]
    loader = _ALL_FILES[kind][0]
    for rows, expected in [
        ([spanning, bad], error),
        ([spanning, bad.rsplit(",", 1)[0]],  # a short row, which the reader rejects
         f"MalformedRow: {kind}.csv:4: malformed row: expected {header.count(',') + 1} fields, "
         f"got {header.count(',')}"),
    ]:
        data = "\n".join([header, *rows, ""]).encode()
        with pytest.raises(StressError) as raised:
            loader(as_stream(data), filename=f"{kind}.csv")
        assert f"{type(raised.value).__name__}: {raised.value}" == expected


@pytest.mark.parametrize("tail", [b"g2\n", b"g2,\xff\n"], ids=["short-row", "not-utf-8"])
@pytest.mark.parametrize("kind", sorted(_ALL_FILES))
def test_a_failed_load_leaves_no_reference_cycle(kind, tail):
    """An error the reader holds back until the rows before it are handed on
    leaves nothing for the cyclic collector, which the CLI pauses while it loads."""
    loader, header, row = _ALL_FILES[kind]
    data = f"{header}\n{row}\n".encode() + tail

    def load_fails() -> bool:
        try:
            loader(as_stream(data))
        except StressError:
            return True
        return False

    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert load_fails()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


_W, _D, _F, _H = HAZARD_TYPES  # wildfire, drought, flood, heat


@pytest.mark.parametrize(
    "gaps, error",
    [
        ([("unit", 1), ("hazard", 0, _W), ("fragility", 2)], MissingFragility("g2")),
        ([("unit", 0), ("hazard", 1, _W), ("fragility", 1)], UnresolvedGeo("n1", "g0")),
        ([("unit", 1), ("hazard", 0, _H), ("hazard", 0, _D), ("fragility", 0)],
         MissingHazard("g0", "drought")),
        ([("fragility", 2), ("hazard", 2, _F), ("unit", 2)], UnresolvedGeo("n0", "g2")),
        ([("fragility", 2), ("hazard", 2, _H)], MissingHazard("g2", "heat")),
        ([("unit", 1), ("fragility", 1)], UnresolvedGeo("n2", "g1")),
    ],
)
def test_link_names_the_first_geo_unit_with_a_gap(gaps, error):
    """Geo units are resolved in first-appearance order; within one, a missing
    registry entry comes first, then a missing hazard in HAZARD_TYPES order,
    then a missing fragility."""
    # Rows are located in g2, g0, g1, g2, so the geo units are walked g2, g0, g1.
    portfolio = Portfolio(instruments=tuple(
        Instrument(f"n{k}", f"g{code}", "s", 100.0, 0.02, 0.4, 120.0 + k, 0.1)
        for k, code in enumerate([2, 0, 1, 2])
    ))
    hazards = {(f"g{k}", h): 0.1 for k in range(3) for h in HAZARD_TYPES}
    fragility = {f"g{k}": 0.5 for k in range(3)}
    registry = {f"g{k}": GeoUnit(f"g{k}", "", Channel.OTHER) for k in range(3)}
    for table, geo, *hazard in gaps:
        geo_id = f"g{geo}"
        del {"unit": registry, "fragility": fragility, "hazard": hazards}[table][
            (geo_id, *hazard) if hazard else geo_id]
    with pytest.raises(type(error)) as raised:
        link_exposures(portfolio, HazardField(hazards), FragilityTable(fragility),
                       list(registry.values()))
    assert str(raised.value) == str(error)


@pytest.mark.parametrize("rows", [
    b"g1,flood,0.5\ng0,wildfire,0.1\ng0,drought,0.2\ng0,flood,0\ng0,heat,0.4\ng1,heat,1e-3\n",
    b"g0,wildfire,0.1\ng0,drought,0.2\ng0,flood,0\ng0,heat,0.4\n",
], ids=["a-hazard-type-missing", "no-gap"])
def test_link_hazards_reads_four_baselines_per_geo_id(rows):
    """Over a loaded table and over its entries given again, each geo id's four baselines in
    ``HAZARD_TYPES`` order, None for a type its unit lacks and for an unknown geo id."""
    loaded = load_hazard_table(as_stream(b"geo_id,hazard,intensity\n" + rows))
    entries = {(geo_id, HazardType(token)): float(cell)
               for geo_id, token, cell in (line.split(",") for line in rows.decode().splitlines())}
    assert loaded.entries == entries
    for geo_ids in [("g0", "nowhere", "g1", "g0"), ("g0",), ()]:
        expected = [entries.get((g, h)) for g in geo_ids for h in HAZARD_TYPES]
        for field in (loaded, HazardField(entries=dict(entries))):
            assert list(ingest.link_hazards(geo_ids, field)) == expected
    assert HazardField(entries=dict(entries)) == loaded and len(loaded) == len(entries)
    if b"g1" not in rows:  # a loaded table without a gap links to a read-only float column
        column = ingest.link_hazards(("g0", "g0"), loaded)
        assert _frozen(column) and column.format == "d"
