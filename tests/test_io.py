"""Tests for the shot CSV format and result serialization."""

import re

import numpy as np
import pytest

from naqae import ShotRecord
from naqae.io import (
    curves_csv,
    dump_json,
    fmt12,
    read_shot_csv,
    report_csv,
    round12,
    write_shot_csv,
)
from naqae.experiments import RmseCurve


def write_text(path, text):
    """Write rendered text as a file, newlines untranslated; returns the path."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


class TestShotCsv:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("m,shots,ones\n0,8192,2048\n")
        assert read_shot_csv(path) == {"": [ShotRecord(m=0, shots=8192, ones=2048)]}

    def test_labelled_file(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("m,shots,ones,label\n1,10,5,A1\n0,10,2,A2\n")
        grouped = read_shot_csv(path)
        assert sorted(grouped) == ["A1", "A2"]

    def test_duplicate_depths_merged(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("m,shots,ones,label\n2,10,5,x\n2,30,10,x\n2,10,5,y\n")
        grouped = read_shot_csv(path)
        assert grouped["x"] == [ShotRecord(m=2, shots=40, ones=15)]
        assert grouped["y"] == [ShotRecord(m=2, shots=10, ones=5)]

    def test_rows_sorted_by_depth(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("m,shots,ones\n5,10,1\n0,10,2\n\n3,10,3\n")  # blank rows are skipped
        assert [r.m for r in read_shot_csv(path)[""]] == [0, 3, 5]

    def test_ones_exceeding_shots(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("m,shots,ones\n3,100,150\n")
        with pytest.raises(ValueError, match="line 2"):
            read_shot_csv(path)

    def test_malformed_row(self, tmp_path):
        # int() would accept all but the first: underscores, padding, a plus
        # sign and a non-ASCII digit.
        path = tmp_path / "shots.csv"
        for row in ("x,10,2", "1_0,10,2", "0, 2_0 ,2", "0,10,+5", "0,10,\u0663"):
            path.write_text(f"m,shots,ones\n0,10,2\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="line 3: m, shots, ones must be integers"):
                read_shot_csv(path)
        path.write_text("m,shots,ones\n0,10,2\n0,10\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: expected 3 fields"):
            read_shot_csv(path)

    def test_integers_outside_int64(self, tmp_path):
        path = tmp_path / "shots.csv"
        huge = "1" + "0" * 399
        for row in (f"0,{huge},2", f"{huge},10,2", f"0,{2**63},2", f"{-(2**63) - 1},10,2"):
            path.write_text(f"m,shots,ones\n0,10,2\n{row}\n", encoding="utf-8")
            with pytest.raises(ValueError, match="line 3: .* signed 64-bit range"):
                read_shot_csv(path)
        # duplicate rows merge into one tally, which must stay in the range too
        path.write_text(f"m,shots,ones,label\n4,{2**62},1,a\n4,{2**62},1,a\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 3: merged shots of label 'a' at depth 4"):
            read_shot_csv(path)
        # the range's last value stays, and so do more leading zeros than int() parses
        path.write_text(f"m,shots,ones\n0,{2**63 - 1},{'0' * 5000}7\n", encoding="utf-8")
        assert read_shot_csv(path)[""] == [ShotRecord(m=0, shots=2**63 - 1, ones=7)]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("depth,shots,ones\n0,10,2\n")
        with pytest.raises(ValueError, match="header"):
            read_shot_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "shots.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_shot_csv(path)

    @pytest.mark.parametrize("text", ["m,shots,ones\n", "m,shots,ones,label\n", "m,shots,ones\n\n\n"])
    def test_header_without_rows(self, tmp_path, text):
        # as estimate_amplitude([]) refuses an empty dataset
        path = tmp_path / "shots.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no tally rows$"):
            read_shot_csv(path)

    def test_cell_past_the_field_limit(self, tmp_path):
        # csv refuses a cell past 131,072 characters with its own csv.Error
        path = tmp_path / "shots.csv"
        path.write_text("m,shots,ones\n0,10,2\n0,10," + "1" * 131_073 + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: field larger"):
            read_shot_csv(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, newline):
        path = tmp_path / "shots.csv"
        path.write_bytes(newline.join(["m,shots,ones,label", "0,10,2,x", "1,10,3,\xff"]).encode(
            "latin-1"))
        message = f"{path}: line 3: not UTF-8 (invalid start byte, byte 0xff)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_shot_csv(path)

    def test_round_trip_after_merge(self, tmp_path):
        source = tmp_path / "in.csv"
        source.write_text("m,shots,ones,label\n2,10,5,x\n0,10,2,x\n2,10,3,x\n")
        normalized = write_shot_csv(read_shot_csv(source))
        assert normalized == "m,shots,ones,label\n0,10,2,x\n2,20,8,x\n"
        again = write_text(tmp_path / "out.csv", normalized)
        assert write_shot_csv(read_shot_csv(again)) == normalized

    def test_write_read_round_trip(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # Any text a UTF-8 file can hold, except NUL, which csv cannot read.
        labels = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))

        @st.composite
        def records(draw):
            depths = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
            out = []
            for m in depths:  # in drawn order, not sorted
                shots = draw(st.integers(1, 10**9))
                out.append(ShotRecord(m=m, shots=shots, ones=draw(st.integers(0, shots))))
            return out

        one, two = ShotRecord(m=3, shots=5, ones=1), ShotRecord(m=0, shots=2, ones=2)

        @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
        @hypothesis.given(st.dictionaries(labels, records(), min_size=1, max_size=4))
        @hypothesis.example({"": [one, two]})
        @hypothesis.example({"": [one], 'a,"b"\r\n': [two]})
        @hypothesis.example({"\r": [one], "x\ry": [two]})
        def check(grouped):
            text = write_shot_csv(grouped)
            expected = {label: sorted(recs, key=lambda r: r.m) for label, recs in grouped.items()}
            back = read_shot_csv(write_text(tmp_path / "shots.csv", text))
            assert back == expected
            assert list(back) == sorted(grouped)
            assert write_shot_csv(back) == text

        check()

    def test_every_constructible_record_round_trips(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        tallies = st.one_of(
            st.integers(-1, 2**64),
            st.integers(0, 2**64 - 1).map(np.uint64),
            st.integers(-(2**63), 2**63 - 1).map(np.int64),
            st.integers(0, 20).map(float),
            st.floats(),
            st.booleans(),
        )

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
        @hypothesis.given(tallies, tallies, tallies)
        @hypothesis.example(2.0, 10, 3)
        @hypothesis.example(0, True, False)
        @hypothesis.example(0, 2.5, 1)
        @hypothesis.example(2**63 - 1, 2**63 - 1, 2**63 - 1)
        def check(m, shots, ones):
            try:
                record = ShotRecord(m=m, shots=shots, ones=ones)
            except ValueError:
                return
            path = write_text(tmp_path / "shots.csv", write_shot_csv([record]))
            assert read_shot_csv(path) == {"": [record]}

        check()

    def test_unlabelled_write_omits_column(self):
        text = write_shot_csv([ShotRecord(m=0, shots=5, ones=1)])
        assert text == "m,shots,ones\n0,5,1\n"

    def test_lf_line_endings(self):
        text = write_shot_csv({"a": [ShotRecord(m=0, shots=5, ones=1)]})
        assert "\r" not in text and text.count("\n") == 2


class TestSerialization:
    def test_fmt12(self):
        assert fmt12(0.25) == "0.25"
        assert fmt12(1 / 3) == "0.333333333333"
        assert fmt12(8192.0) == "8192"

    def test_round12_recursive(self):
        doc = {"a": [1 / 3, {"b": 2 / 3}], "c": "text", "d": 5}
        rounded = round12(doc)
        assert rounded["a"][0] == float("0.333333333333")
        assert rounded["a"][1]["b"] == float("0.666666666667")
        assert rounded["c"] == "text" and rounded["d"] == 5

    def test_dump_json_rounds_floats(self):
        assert dump_json({"x": 1 / 3}) == '{\n  "x": 0.333333333333\n}\n'

    def test_curves_csv(self):
        curve = RmseCurve(setting="noiseless", x_kind="depth", points=((0.0, 0.5), (1.0, 0.25)))
        text = curves_csv([curve])
        assert text == "setting,x_kind,x,rmse\nnoiseless,depth,0,0.5\nnoiseless,depth,1,0.25\n"

    def test_report_csv_flags(self):
        rows = [{"label": "A1", "r_squared": {"gaussian": 0.9546, "gaussian_zero_mean": 0.8052},
                 "best": ("gaussian",)}]
        text = report_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "label,gaussian,gaussian_zero_mean,depolarizing,best"
        assert lines[1] == "A1,0.9546,0.8052,,gaussian"

    def test_schedule_dict(self):
        from naqae import shot_schedule
        from naqae.io import schedule_dict

        doc = schedule_dict(shot_schedule([0, 1, 2], 20, 0.055))
        assert doc == {"entries": [
            {"m": 0, "n_shots": 20}, {"m": 1, "n_shots": 24}, {"m": 2, "n_shots": 29},
        ]}
