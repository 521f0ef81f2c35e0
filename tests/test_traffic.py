import csv
import io
import itertools
import re
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodwatch import traffic
from floodwatch.errors import InputError
from floodwatch.traffic import (
    FEATURE_NAMES,
    AttackInterval,
    AttackKind,
    PacketRecord,
    Packets,
    Protocol,
    Scenario,
    feature_matrix,
    fit_normalizer,
    format_ip,
    generate_traffic,
    normalize,
    parse_ip,
    parse_packets,
    preset_scenario,
    preprocess,
    read_labels_csv,
    split_packets,
    windowize,
    write_labels_csv,
    write_packets_csv,
)
from oracles import (
    naive_entropy_normalized,
    naive_parse_packets,
    naive_window_features,
    naive_write_packets_csv,
)

HEADER = "timestamp,src_ip,dst_ip,protocol,length,syn"


def packet(ts, src=1, dst=2, proto=Protocol.TCP, length=100, syn=False):
    return PacketRecord(timestamp=ts, src_ip=src, dst_ip=dst,
                        protocol=proto, length=length, syn_flag=syn)


def window_features(records):
    """Features of window 0 of ``records`` (all stamped in [0, 1)), by name."""
    row = feature_matrix(windowize(Packets.from_records(records), 1.0))[0]
    return dict(zip(FEATURE_NAMES, row))


def test_parse_packets_header_only():
    assert len(parse_packets([HEADER])) == 0


def test_parse_packets_single_tcp_syn_row():
    rows = [HEADER, "0.25,10.0.0.1,192.168.0.1,TCP,64,1"]
    records = parse_packets(rows)
    assert len(records) == 1
    rec = records[0]
    assert rec.timestamp == 0.25
    assert rec.src_ip == parse_ip("10.0.0.1")
    assert rec.dst_ip == parse_ip("192.168.0.1")
    assert rec.protocol is Protocol.TCP
    assert rec.length == 64
    assert rec.syn_flag is True


def test_parse_packets_unknown_protocol_names_line():
    rows = [HEADER,
            "0.1,10.0.0.1,192.168.0.1,TCP,64,0",
            "0.2,10.0.0.1,192.168.0.1,GRE,64,0"]
    with pytest.raises(InputError, match="line 3"):
        parse_packets(rows)


def test_parse_packets_rejects_bad_header():
    with pytest.raises(InputError):
        parse_packets(["time,src,dst,proto,len,syn"])


def _outcome(parse, lines):
    """Rows as tuples, or the line number an InputError names."""
    try:
        return [(r.timestamp, r.src_ip, r.dst_ip,
                 getattr(r.protocol, "value", r.protocol), r.length, r.syn_flag)
                if isinstance(r, PacketRecord) else r for r in parse(lines)]
    except InputError as exc:
        return int(re.match(r"line (\d+):", str(exc)).group(1))


_GOOD_FIELDS = (st.sampled_from(["0", "0.25", "1e3", "17.5", "-0.0"]),
                st.sampled_from(["10.0.0.1", "192.168.0.1", "0.0.0.0", "255.255.255.255"]),
                st.sampled_from(["100.64.1.2", "10.0.0.1"]),
                st.sampled_from(["TCP", "UDP", "ICMP"]),
                st.sampled_from(["1", "64", "1500", "9223372036854775807"]),
                st.sampled_from(["0", "1"]))
_ANY_FIELDS = (
    st.one_of(_GOOD_FIELDS[0], st.floats().map(repr), st.sampled_from(
        ["nan", "inf", "-inf", "-1", "+5", " 5", "1e400", "1_0", "", "x"])),
    st.one_of(_GOOD_FIELDS[1], st.sampled_from(
        ["1.2.3", "1.2.3.4.5", "1.2.3.256", "01.2.3.4", " 1.2.3.4", "1.2.3.-4",
         "1.2.3.\u00b2", "1..3.4", ""])),
    _GOOD_FIELDS[2],
    st.sampled_from(["TCP", "UDP", "ICMP", "GRE", "tcp", " TCP", ""]),
    st.one_of(_GOOD_FIELDS[4], st.integers(-3, 2 ** 64).map(str), st.sampled_from(
        ["+5", " 5", "5 ", "0", "-3", "9223372036854775808", "1e3", "1_000", "x", ""])),
    st.sampled_from(["0", "1", "2", " 1", "", "true"]),
)
_ROW_TEXT = st.one_of(
    st.tuples(*_GOOD_FIELDS).map(",".join),
    st.tuples(*_GOOD_FIELDS).map(",".join),
    st.tuples(*_ANY_FIELDS).map(",".join),
    st.just(""),
    st.lists(_GOOD_FIELDS[0], max_size=8).map(",".join),
    st.text(st.characters(blacklist_characters="\r\n\x00"), max_size=20),
)


# line ends taken in turn, a lone CR among them
_LINE_ENDS = (("\r\n",), ("\n",), ("\n", "\r\n"), ("\r\n", "\r", "\n"), ("\r",))
_BLOCKS = (1, 7, 40, traffic.PARSE_BLOCK_CHARS)


def _as_text(lines, ends, final=True):
    """``lines`` joined with ``ends`` in turn, the last line end dropped
    unless ``final``."""
    text = "".join(line + ends[k % len(ends)] for k, line in enumerate(lines))
    return text if final else text[:-len(ends[(len(lines) - 1) % len(ends)])]


def _text_outcome_matches_oracle(text, block):
    # a file is split into lines at CR, LF and CRLF, as open_text opens it;
    # reads a third of a block long make the reads that fill one
    read = min(traffic._READ_CHARS, max(1, block // 3))
    with (mock.patch.object(traffic, "PARSE_BLOCK_CHARS", block),
          mock.patch.object(traffic, "_READ_CHARS", read)):
        ours = _outcome(parse_packets, io.StringIO(text, newline=""))
    return ours == _outcome(naive_parse_packets, io.StringIO(text, newline=""))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_ROW_TEXT, max_size=12), chunk=st.sampled_from([1, 3, 512]),
       ends=st.sampled_from(_LINE_ENDS), final=st.booleans(), block=st.sampled_from(_BLOCKS))
@example(rows=["0.5,10.0.0.1,192.168.0.1,TCP,64,1", "", "1.5,10.0.0.2,192.168.0.1,UDP,+5,0",
               "2.5,10.0.0.2,192.168.0.1,ICMP, 5,0"], chunk=3, ends=("\r\n",), final=True,
         block=40)
@example(rows=["0,10.0.0.1,192.168.0.1,TCP,64,0", "nan,10.0.0.1,192.168.0.1,TCP,64,0"],
         chunk=512, ends=("\n",), final=False, block=7)
@example(rows=["inf,10.0.0.1,192.168.0.1,TCP,64,0"], chunk=512, ends=("\r\n",), final=True,
         block=traffic.PARSE_BLOCK_CHARS)
@example(rows=["0,10.0.0.1,192.168.0.1,TCP,9223372036854775808,0"], chunk=512, ends=("\n",),
         final=True, block=1)
@example(rows=["", "", "0,10.0.0.1,192.168.0.1,TCP,64,0", "0,10.0.0.1,192.168.0.256,TCP,64,0"],
         chunk=1, ends=("\n", "\r\n"), final=True, block=40)
def test_parse_packets_matches_row_oracle(rows, chunk, ends, final, block):
    # same rows, or an InputError naming the same line, at every chunk size
    # for a list of lines and at every block size for the text of a file
    lines = [HEADER, *rows]
    with mock.patch.object(traffic, "_CSV_CHUNK_ROWS", chunk):
        assert _outcome(parse_packets, lines) == _outcome(naive_parse_packets, lines)
        assert _text_outcome_matches_oracle(_as_text(lines, ends, final), block)


_GOOD_ROW = "0.5,10.0.0.1,192.168.0.1,TCP,64,1"
_OTHER_ROW = "1.5,10.0.0.2,192.168.0.1,UDP,512,0"


_EDGE_ROWS = {
    "quoted field": [_GOOD_ROW, '2.5,"10.0.0.3",192.168.0.1,ICMP,64,0'],
    "line end in quotes": ['"0.5\n",10.0.0.1,192.168.0.1,TCP,64,0', _OTHER_ROW],
    "lone CR between rows": [_GOOD_ROW + "\r" + _OTHER_ROW],
    "lone CR in a timestamp": ["0.5\r,10.0.0.1,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "lone CR in a length": ["0.5,10.0.0.1,192.168.0.1,TCP, 64\r,1", _OTHER_ROW],
    "lone CR before a CRLF": [_GOOD_ROW + "\r", _OTHER_ROW, _GOOD_ROW.replace("TCP", "GRE")],
    "NUL": [_GOOD_ROW, "0.5,10.0.0.1\0,192.168.0.1,TCP,64,1"],
    "blank line": [_GOOD_ROW, "", _OTHER_ROW],
    "largest length": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,9223372036854775807,1"],
    "length past 64 bits": [_GOOD_ROW, "0.5,10.0.0.1,192.168.0.1,TCP,9223372036854775808,1"],
    "signed and spaced lengths": ["0.5,10.0.0.1,192.168.0.1,TCP, 5,1",
                                  "1.5,10.0.0.2,192.168.0.1,UDP,+5,0"],
    "underscore timestamp": ["1_0,10.0.0.1,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "nan timestamp": [_GOOD_ROW, "nan,10.0.0.1,192.168.0.1,TCP,64,1"],
    "non-ASCII digit": ["0.5,10.0.0.\u0663,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "7 fields then 5": [_GOOD_ROW + ",1", _OTHER_ROW[:-2]],
    "5 fields": [_GOOD_ROW, _OTHER_ROW[:-2]],
    "wide address": ["0.5,0000000010.0.0.1,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "wide timestamp": ["0" * 40 + ".5,10.0.0.1,192.168.0.1,TCP,64,1", _OTHER_ROW],
    "field over the csv limit": [_GOOD_ROW, "x" * 200_000 + ",1,2,3,4,5"],
}


@pytest.mark.parametrize("rows", _EDGE_ROWS.values(), ids=_EDGE_ROWS.keys())
def test_parse_packets_edge_rows_match_row_oracle(rows):
    lines = [HEADER, *rows]
    assert _outcome(parse_packets, lines) == _outcome(naive_parse_packets, lines)
    for ends, final, block in itertools.product((*_LINE_ENDS[:3], ("\r",)), [True, False],
                                                _BLOCKS):
        assert _text_outcome_matches_oracle(_as_text(lines, ends, final), block)


@pytest.mark.parametrize("block", [7, traffic.PARSE_BLOCK_CHARS])
def test_parse_packets_checks_fields_behind_their_hash(block):
    # with a hash that maps every field to 0, only the byte checks keep
    # different fields apart, within a block and, with one line per
    # block, across blocks
    lines = [HEADER, "0.5,10.0.0.1,10.0.0.1,TCP,64,1", "1.5,10.0.0.2,10.0.0.2,UDP,512,0",
             "2.5,10.0.0.1,10.0.0.2,ICMP,64,0"]
    with mock.patch.object(traffic, "_MIX", np.uint64(0)):
        assert _text_outcome_matches_oracle(_as_text(lines, ("\r\n",)), block)


def test_lone_cr_line_ends_cut_blocks():
    # lines ended by a lone CR cut the text into blocks as LF does, so a
    # block holds at most a block's worth of text, the rest of the line
    # where it filled and one read, with the character after a CR that
    # ends it
    lines = [HEADER, *[_GOOD_ROW, _OTHER_ROW] * 20]
    text = _as_text(lines, ("\r",))
    with (mock.patch.object(traffic, "PARSE_BLOCK_CHARS", 7),
          mock.patch.object(traffic, "_READ_CHARS", 3)):
        blocks = list(traffic._text_blocks(io.StringIO(text, newline="")))
    assert "".join(blocks) == text
    assert max(map(len, blocks)) <= 7 + max(map(len, lines)) + 1 + 3 + 1
    assert _text_outcome_matches_oracle(text, 7)


def test_parse_packets_keeps_a_lowered_csv_field_limit():
    lines = [HEADER, "0.5,10.0.0.1,10.0.0.1,TCP,64,1", _GOOD_ROW]
    limit = csv.field_size_limit(10)
    try:
        for block in _BLOCKS:
            assert _text_outcome_matches_oracle(_as_text(lines, ("\n",)), block)
    finally:
        csv.field_size_limit(limit)


def test_plain_capture_bypasses_csv_reader(tmp_path):
    packets, _ = generate_traffic(preset_scenario("mixed"), np.random.default_rng(5))
    path = tmp_path / "packets.csv"
    write_packets_csv(path, packets)
    for block in (1 << 12, traffic.PARSE_BLOCK_CHARS):
        with (mock.patch.object(traffic, "PARSE_BLOCK_CHARS", block),
              mock.patch.object(traffic, "_parse_chunk", side_effect=AssertionError),
              open(path, newline="") as handle):
            assert parse_packets(handle) == packets


def test_packets_row_adapter_round_trip():
    packets, _ = generate_traffic(preset_scenario("syn10"), np.random.default_rng(3))
    rows = list(packets)
    assert Packets.from_records(rows) == packets
    assert packets[len(rows) - 1] == rows[-1]
    assert list(packets[5:8]) == rows[5:8]


def test_ip_round_trip():
    for text in ("0.0.0.0", "10.0.0.1", "192.168.0.1", "255.255.255.255"):
        assert format_ip(parse_ip(text)) == text


def test_windowize_empty():
    assert len(windowize(Packets.from_records([]), 1.0)) == 0


def test_windowize_two_windows():
    out = windowize(Packets.from_records([packet(0.5), packet(1.5)]), 1.0)
    assert [(idx, len(recs)) for idx, recs in out] == [(0, 1), (1, 1)]


def test_windowize_keeps_empty_middle_window():
    out = windowize(Packets.from_records([packet(0.1), packet(2.9)]), 1.0)
    assert [(idx, len(recs)) for idx, recs in out] == [(0, 1), (1, 0), (2, 1)]


def test_windowize_partitions_and_sorts():
    rng = np.random.default_rng(0)
    records = [packet(float(t)) for t in rng.uniform(0, 10, 200)]
    out = windowize(Packets.from_records(records), 1.0)
    flattened = [rec for _, recs in out for rec in recs]
    assert len(flattened) == len(records)
    stamps = [rec.timestamp for rec in flattened]
    assert stamps == sorted(stamps)
    for idx, recs in out:
        for rec in recs:
            assert int(rec.timestamp // 1.0) == idx


def test_extract_features_empty_window():
    # window 1 of packets at 0.1 and 2.9 holds no packet
    packets = Packets.from_records([packet(0.1), packet(2.9)])
    npt.assert_array_equal(feature_matrix(windowize(packets, 1.0))[1], np.zeros(8))


def test_extract_features_single_source_entropy_zero():
    records = [packet(0.1, src=7) for _ in range(4)]
    assert window_features(records)["src_ip_entropy"] == 0.0


def test_extract_features_hand_computed_entropy():
    # src counts {2,1,1}: raw entropy 1.5 bits, normalized 1.5/log2(3)
    records = [packet(0.1, src=1), packet(0.2, src=1),
               packet(0.3, src=2), packet(0.4, src=3)]
    feats = window_features(records)
    assert feats["src_ip_entropy"] == pytest.approx(1.5 / np.log2(3), abs=1e-12)
    assert feats["src_ip_entropy"] == pytest.approx(
        naive_entropy_normalized([2, 1, 1]), abs=1e-12)


def test_extract_features_counts_and_fractions():
    records = [packet(0.1, proto=Protocol.TCP, length=100, syn=True),
               packet(0.2, proto=Protocol.TCP, length=200),
               packet(0.3, proto=Protocol.UDP, length=300),
               packet(0.4, proto=Protocol.ICMP, length=400)]
    feats = window_features(records)
    assert feats["packet_count"] == 4
    assert feats["byte_count"] == 1000
    assert feats["mean_packet_size"] == 250
    assert feats["syn_fraction"] == 0.25
    assert feats["udp_fraction"] == 0.25
    assert feats["icmp_fraction"] == 0.25


def test_extract_features_permutation_invariant():
    rng = np.random.default_rng(5)
    records = [packet(float(t), src=int(rng.integers(1, 5)),
                      proto=Protocol.UDP, length=int(rng.integers(64, 1500)))
               for t in rng.uniform(0, 1, 30)]
    shuffled = list(records)
    rng.shuffle(shuffled)
    npt.assert_array_equal(list(window_features(records).values()),
                           list(window_features(shuffled).values()))


def _oracle_matrix(packets, window_len=1.0):
    buckets = {}
    for record in packets:
        buckets.setdefault(int(record.timestamp // window_len), []).append(record)
    return np.array([naive_window_features(buckets.get(k, []))
                     for k in range(max(buckets) + 1)])


@pytest.mark.parametrize("variant", ["generated", "shuffled", "syn on every protocol"])
def test_feature_matrix_matches_counter_oracle(variant):
    packets, _ = generate_traffic(preset_scenario("mixed"), np.random.default_rng(1))
    rng = np.random.default_rng(0)
    if variant == "shuffled":
        packets = packets[rng.permutation(len(packets))]
    elif variant == "syn on every protocol":   # a parsed capture may flag UDP/ICMP
        packets.syn = rng.random(len(packets)) < 0.5
    matrix = feature_matrix(windowize(packets, 1.0))
    expected = _oracle_matrix(packets)
    exact = [0, 1, 2, 5, 6, 7]          # counts, bytes, mean size, fractions
    npt.assert_array_equal(matrix[:, exact], expected[:, exact])
    npt.assert_allclose(matrix[:, 3:5], expected[:, 3:5], rtol=0, atol=1e-12)
    if variant == "shuffled":
        npt.assert_array_equal(
            matrix, feature_matrix(windowize(packets[np.argsort(packets.ts)], 1.0)))


def test_fit_normalizer_extrapolates():
    matrix = np.array([[0.0, 3.0], [10.0, 3.0], [5.0, 3.0]])
    norm = fit_normalizer(matrix)
    out = normalize(norm, np.array([10.0, 3.0]))
    assert out[0] == 1.0
    assert out[1] == 0.5  # constant dimension
    assert normalize(norm, np.array([-5.0, 3.0]))[0] == -0.5
    assert normalize(norm, np.array([99.0, 3.0]))[0] == 9.9


def test_fit_normalizer_maps_training_rows_into_unit_box():
    rng = np.random.default_rng(77)
    matrix = rng.normal(0, 10, size=(50, 8))
    norm = fit_normalizer(matrix)
    for row in matrix:
        out = normalize(norm, row)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_fit_normalizer_rejects_empty():
    with pytest.raises(InputError):
        fit_normalizer(np.zeros((0, 8)))


def test_preprocess_standardizes_training_data():
    rng = np.random.default_rng(3)
    matrix = rng.uniform(0, 50, size=(40, 8))
    norm = fit_normalizer(matrix)
    unit = np.vstack([normalize(norm, row) for row in matrix])
    standardized = np.vstack([preprocess(norm, row) for row in matrix])
    npt.assert_allclose(standardized.mean(axis=0), 0.0, atol=1e-9)
    npt.assert_allclose(standardized.std(axis=0), 1.0, atol=1e-6)
    npt.assert_allclose(unit.mean(axis=0), norm.unit_mean, atol=1e-12)


def test_generate_traffic_no_attack_means_no_attack_labels():
    scenario = Scenario(duration=30.0, baseline_rate=50.0)
    _, labels = generate_traffic(scenario, np.random.default_rng(0))
    assert not any(labels)


def test_generate_traffic_deterministic():
    scenario = preset_scenario("syn10")
    recs_a, labels_a = generate_traffic(scenario, np.random.default_rng(9))
    recs_b, labels_b = generate_traffic(scenario, np.random.default_rng(9))
    assert recs_a == recs_b
    assert labels_a == labels_b


def test_generate_traffic_rejects_too_many_windows():
    # ~2000 packets spread over 2e6 one-second windows: over MAX_WINDOWS
    scenario = Scenario(duration=2e6, baseline_rate=1e-3)
    with pytest.raises(InputError, match="last timestamp"):
        generate_traffic(scenario, np.random.default_rng(0))


def test_generate_traffic_sorted_and_in_range():
    scenario = preset_scenario("mixed")
    records, _ = generate_traffic(scenario, np.random.default_rng(4))
    stamps = [rec.timestamp for rec in records]
    assert stamps == sorted(stamps)
    assert 0.0 <= stamps[0] and stamps[-1] < scenario.duration
    assert all(64 <= rec.length <= 1500 for rec in records)


def test_generate_traffic_rate_accuracy():
    # empirical no-attack rate within 10% of baseline for most seeds
    scenario = Scenario(duration=300.0, baseline_rate=80.0)
    hits = 0
    for seed in range(5):
        records, _ = generate_traffic(scenario, np.random.default_rng(seed))
        rate = len(records) / scenario.duration
        hits += abs(rate - scenario.baseline_rate) <= 0.1 * scenario.baseline_rate
    assert hits >= 3


def test_generate_traffic_flood_rate_dominates():
    # SynFlood at multiplier 10: attack-window rate >= 5x normal rate
    hits = 0
    for seed in range(5):
        records, labels = generate_traffic(preset_scenario("syn10"),
                                           np.random.default_rng(seed))
        counts = np.zeros(len(labels))
        for idx, recs in windowize(records, 1.0):
            counts[idx] = len(recs)
        labels = np.array(labels)
        hits += counts[labels].mean() >= 5.0 * counts[~labels].mean()
    assert hits == 5


def test_generate_traffic_attack_label_matches_interval():
    scenario = preset_scenario("syn10")
    _, labels = generate_traffic(scenario, np.random.default_rng(2))
    attack = scenario.attacks[0]
    for idx, flagged in enumerate(labels):
        overlaps = idx < attack.end and idx + 1 > attack.start
        assert flagged == overlaps


def test_feature_fractions_bounded_on_generated_traffic():
    records, _ = generate_traffic(preset_scenario("mixed"), np.random.default_rng(1))
    matrix = feature_matrix(windowize(records, 1.0))
    assert matrix.shape[1] == len(FEATURE_NAMES)
    frac = matrix[:, 3:]  # entropies and protocol fractions
    assert np.all(frac >= 0.0) and np.all(frac <= 1.0)


def test_packet_csv_round_trip(tmp_path):
    records, _ = generate_traffic(Scenario(duration=5.0, baseline_rate=40.0),
                                  np.random.default_rng(11))
    path = tmp_path / "packets.csv"
    write_packets_csv(path, records)
    with open(path) as handle:
        again = parse_packets(handle)
    assert again == records


def _edge_packets():
    # every combination of the extreme column values, all protocols and flags
    rows = list(itertools.product([0.0, 5e-05, 1e16, 3599.9999999999995],
                                  [0, 0xFFFFFFFF], [0xFFFFFFFF, 0], range(3),
                                  [1, 2 ** 63 - 1], [False, True]))
    return Packets(*zip(*rows))


def _same_bytes_as_oracle(directory, packets, chunk):
    ours, oracle = directory / "ours.csv", directory / "oracle.csv"
    with mock.patch.object(traffic, "WRITE_CHUNK_ROWS", chunk):
        write_packets_csv(ours, packets)
    naive_write_packets_csv(oracle, packets)
    return ours.read_bytes() == oracle.read_bytes()


@pytest.mark.parametrize("chunk", [1, 3, traffic.WRITE_CHUNK_ROWS])
@pytest.mark.parametrize("packets", [Packets.from_records([]), _edge_packets()],
                         ids=["empty", "edges"])
def test_write_packets_csv_matches_writer_oracle(tmp_path, packets, chunk):
    assert _same_bytes_as_oracle(tmp_path, packets, chunk)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(), st.integers(0, 2 ** 32 - 1),
                               st.integers(0, 2 ** 32 - 1), st.integers(0, 2),
                               st.integers(-2 ** 63, 2 ** 63 - 1), st.booleans()),
                     max_size=20),
       chunk=st.sampled_from([1, 3, traffic.WRITE_CHUNK_ROWS]))
def test_write_packets_csv_matches_writer_oracle_on_random_columns(tmp_path_factory,
                                                                   rows, chunk):
    packets = Packets(*zip(*rows)) if rows else Packets.from_records([])
    assert _same_bytes_as_oracle(tmp_path_factory.mktemp("write"), packets, chunk)


def test_labels_csv_round_trip(tmp_path):
    labels = [False, True, True, False, True]
    path = tmp_path / "labels.csv"
    write_labels_csv(path, labels)
    assert read_labels_csv(path) == labels


def test_scenario_dict_round_trip():
    scenario = preset_scenario("mixed")
    again = Scenario.from_dict(scenario.to_dict())
    assert again == scenario
    with pytest.raises(InputError):
        Scenario.from_dict({"duration": 10.0, "baseline_rate": 5.0, "bogus": 1})


def test_scenario_validation():
    with pytest.raises(InputError):
        Scenario(duration=0.0, baseline_rate=5.0).validate()
    bad = Scenario(duration=10.0, baseline_rate=5.0, attacks=[
        AttackInterval(8.0, 4.0, AttackKind.SYN_FLOOD, 10.0, 100)])
    with pytest.raises(InputError):
        bad.validate()


def test_preset_scenario_unknown_name():
    with pytest.raises(InputError):
        preset_scenario("loud")


def test_split_packets_window_aligned():
    records, _ = generate_traffic(Scenario(duration=20.0, baseline_rate=30.0),
                                  np.random.default_rng(6))
    train, valid = split_packets(records, 0.8, 1.0)
    assert len(train) + len(valid) == len(records)
    boundary = max(rec.timestamp for rec in train)
    assert boundary < 16.0
    # validation is re-based so its own windows start at zero
    assert min(rec.timestamp for rec in valid) < 1.0
