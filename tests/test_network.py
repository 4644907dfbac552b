from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frpsim.network import (Bus, PowerSystem, SystemDataError, TransmissionLine,
                            compute_ptdf, load_system, read_csv, validate_system)
from util import dc_power_flow, make_gen, random_connected_system

ROOT = Path(__file__).resolve().parents[1]
BUNDLED_SYSTEMS = [ROOT / "src" / "frpsim" / "data" / "ieee118.json",
                   ROOT / "perfbench" / "data" / "case5" / "system.json"]


def write_system_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def minimal_doc():
    return {
        "slack_bus": 0,
        "buses": [{"id": 0}, {"id": 1}],
        "lines": [{"from_bus": 0, "to_bus": 1, "reactance": 0.1, "rating": 100.0}],
        "generators": [{
            "bus": 0, "p_min": 10.0, "p_max": 50.0,
            "cost_blocks": [[40.0, 25.0]], "no_load_cost": 5.0,
            "startup_cost": 10.0, "shutdown_cost": 1.0, "ramp_15": 20.0,
            "ramp_su": 20.0, "ramp_sd": 20.0, "min_up": 1, "min_down": 1,
        }],
        "solar": [],
        "participation": {"1": 1.0},
    }


class TestLoadSystem:
    def test_bundled_118_bus_counts(self, data_dir):
        system = load_system(data_dir / "ieee118.json")
        assert len(system.buses) == 118
        assert len(system.lines) == 186
        assert len(system.generators) == 51
        assert len(system.solar_units) == 3
        fast = [g for g in system.generators if g.is_fast_start]
        assert len(fast) == 21
        assert all(g.p_max == 50.0 for g in fast)
        shares = sorted(s.share_of_total for s in system.solar_units)
        assert shares == [0.2, 0.2, 0.6]
        assert validate_system(system) == []

    def test_minimal_two_bus_file(self, tmp_path):
        path = write_system_json(tmp_path / "mini.json", minimal_doc())
        system = load_system(path)
        assert system.n_buses == 2
        assert len(system.lines) == 1
        assert len(system.generators) == 1

    def test_generator_on_unknown_bus(self, tmp_path):
        doc = minimal_doc()
        doc["generators"][0]["bus"] = 7
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match="unknown bus"):
            load_system(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SystemDataError, match="not found"):
            load_system(tmp_path / "nope.json")

    @pytest.mark.parametrize("field, value", [
        ("cost_blocks", [[40.0, float("nan")]]), ("cost_blocks", [[float("nan"), 25.0]]),
        ("frp_up_cost", float("inf")), ("frp_down_cost", float("nan"))])
    def test_non_finite_cost_refused(self, tmp_path, field, value):
        doc = minimal_doc()
        doc["generators"][0][field] = value
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match=rf"^generators\[0\]: field '{field}' must be"):
            load_system(path)

    def test_non_finite_participation_refused(self, tmp_path):
        doc = minimal_doc()
        doc["participation"] = {"0": float("nan"), "1": 1.0}
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError,
                           match="^participation: field '0' must be a finite number, got nan$"):
            load_system(path)

    def test_repeated_key_refused(self, tmp_path):
        # a plain json.load keeps the last value: min_up would load as 1
        text = json.dumps(minimal_doc()).replace('"min_up": 1', '"min_up": 0, "min_up": 1')
        assert text.count('"min_up"') == 2
        path = tmp_path / "dup.json"
        path.write_text(text)
        with pytest.raises(SystemDataError,
                           match=rf"^{re.escape(str(path))}: key 'min_up' repeated "
                                 "within one object$"):
            load_system(path)

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"buses": ')
        with pytest.raises(SystemDataError, match=rf"^{re.escape(str(path))}: Expecting value: line 1"):
            load_system(path)

    def test_invalid_numeric_field_reports_location(self, tmp_path):
        doc = minimal_doc()
        doc["lines"][0]["reactance"] = "abc"
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match=r"lines\[0\]"):
            load_system(path)

    @pytest.mark.parametrize("path", BUNDLED_SYSTEMS, ids=lambda p: p.parent.name)
    def test_bundled_files_load_every_field_as_written(self, path):
        # each field holds the file's value, as the type its annotation names
        raw = json.loads(path.read_text())
        system = load_system(path)
        for section, records in (("buses", system.buses), ("lines", system.lines),
                                 ("generators", system.generators),
                                 ("solar", system.solar_units)):
            assert len(records) == len(raw[section])
            for row, record in zip(raw[section], records):
                kinds = {f.name: f.type for f in dataclasses.fields(record)}
                assert set(row) == set(kinds)
                for name, value in row.items():
                    got = getattr(record, name)
                    if name == "cost_blocks":
                        assert got == tuple(map(tuple, value))
                        assert all(type(v) is float for block in got for v in block)
                    else:
                        assert got == value and type(got).__name__ == kinds[name]
        assert all(type(g.min_up) is int and type(g.min_down) is int
                   for g in system.generators)
        assert type(system.slack_bus) is int and system.slack_bus == raw["slack_bus"]
        assert system.name == raw["name"]
        expected = np.zeros(len(raw["buses"]))
        for key, frac in raw["participation"].items():
            expected[int(key)] = frac
        np.testing.assert_array_equal(system.load_participation, expected)

    def test_absent_fields_take_defaults(self, tmp_path):
        doc = minimal_doc()
        doc["lines"].append({"from_bus": 1, "to_bus": 0, "reactance": 0.2, "rating": 50})
        system = load_system(write_system_json(tmp_path / "mini.json", doc))
        assert [ln.id for ln in system.lines] == [0, 1]
        assert system.lines[1].rating == 50.0 and type(system.lines[1].rating) is float
        assert [b.name for b in system.buses] == ["bus0", "bus1"]
        gen = system.generators[0]
        assert (gen.id, gen.frp_up_cost, gen.frp_down_cost, gen.is_fast_start) == (
            0, 0.5, 0.5, False)
        assert (system.slack_bus, system.name) == (0, "mini")

    def test_integral_float_reads_as_int(self, tmp_path):
        doc = minimal_doc()
        doc["generators"][0]["min_up"] = 4.0
        system = load_system(write_system_json(tmp_path / "ok.json", doc))
        assert system.generators[0].min_up == 4 and type(system.generators[0].min_up) is int

    @pytest.mark.parametrize("section, field, value, rule", [
        ("generators", "min_up", 2.7, "a whole number"),
        ("generators", "min_up", "4", "a whole number"),
        ("generators", "min_up", True, "a whole number"),
        ("generators", "id", "g0", "a whole number"),
        ("generators", "is_fast_start", "false", "a JSON boolean"),
        ("generators", "is_fast_start", 0, "a JSON boolean"),
        ("generators", "p_max", None, "a finite number"),
        ("generators", "frp_up_cost", "0.5", "a finite number"),
        ("generators", "cost_blocks", [40.0, 25.0], "a list of finite"),
        ("generators", "cost_blocks", [[40.0]], "a list of finite"),
        ("generators", "cost_blocks", [[40.0, "25"]], "a list of finite"),
        ("generators", "cost_blocks", [[40.0, 25.0, 1.0]], "a list of finite"),
        ("lines", "id", [0], "a whole number"),
        ("lines", "from_bus", 0.5, "a whole number"),
        ("buses", "name", 7, "a JSON string")])
    def test_bad_field_value_names_section_row_and_field(self, tmp_path, section, field,
                                                         value, rule):
        doc = minimal_doc()
        doc[section][0][field] = value
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError,
                           match=rf"^{section}\[0\]: field '{field}' must be {rule}"):
            load_system(path)

    @pytest.mark.parametrize("key, value, message", [
        ("slack_bus", "0", r"^file: field 'slack_bus' must be a whole number, got '0'$"),
        ("slack_bus", 0.5, r"^file: field 'slack_bus' must be a whole number"),
        ("name", 5, r"^file: field 'name' must be a JSON string"),
        ("participation", {"1": "1.0"}, r"^participation: field '1' must be a finite number"),
        ("participation", {"2": 1.0}, r"^participation: key '2' is not a bus index < 2$"),
        ("participation", {"b1": 1.0}, r"^participation: key 'b1' is not a bus index"),
        ("participation", {"-1": 1.0}, r"^participation: key '-1' is not a bus index"),
        # "01" would otherwise overwrite bus 1's entry
        ("participation", {"1": 0.5, "01": 0.5}, r"^participation: key '01' is not a bus"),
        ("participation", [1.0], r"^file: section 'participation' is missing or not a dict"),
        ("lines", {}, r"^file: section 'lines' is missing or not a list"),
        ("slak_bus", 1, r"^file: unknown section 'slak_bus'$")])
    def test_bad_top_level_value_is_located(self, tmp_path, key, value, message):
        doc = minimal_doc()
        doc[key] = value
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match=message):
            load_system(path)

    def test_unknown_field_refused(self, tmp_path):
        # a misspelt optional field would otherwise take its default silently
        doc = minimal_doc()
        doc["generators"][0]["frp_up_cst"] = 0.1
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match=r"^generators\[0\]: unknown field 'frp_up_cst'$"):
            load_system(path)

    @pytest.mark.parametrize("section, field", [
        ("generators", "min_down"), ("lines", "rating"), ("buses", "id")])
    def test_missing_field_is_located(self, tmp_path, section, field):
        doc = minimal_doc()
        del doc[section][0][field]
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match=rf"^{section}\[0\]: missing field '{field}'$"):
            load_system(path)

    @pytest.mark.parametrize("section", ["buses", "generators", "participation"])
    def test_missing_section_refused(self, tmp_path, section):
        doc = minimal_doc()
        del doc[section]
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match=f"^file: section '{section}' is missing"):
            load_system(path)

    def test_non_object_row_refused(self, tmp_path):
        doc = minimal_doc()
        doc["buses"][1] = 1
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match=r"^buses\[1\]: not a JSON object$"):
            load_system(path)

    def test_line_to_unknown_bus_refused(self, tmp_path):
        doc = minimal_doc()
        doc["lines"][0]["to_bus"] = 7
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match="line 0: unknown bus"):
            load_system(path)

    @pytest.mark.parametrize("section, label", [
        ("lines", "line"), ("generators", "generator"), ("solar", "solar unit")])
    def test_repeated_ids_refused(self, tmp_path, section, label):
        # two generators with one id would share one day-ahead schedule, one
        # model file and one response factor
        doc = minimal_doc()
        doc["solar"] = [{"id": 0, "bus": 1, "capacity": 10.0, "share_of_total": 1.0}]
        row = dict(doc[section][0], id=0)
        doc[section] = [row, dict(row)]
        if section == "solar":
            for s in doc["solar"]:
                s["share_of_total"] = 0.5
        path = write_system_json(tmp_path / "bad.json", doc)
        with pytest.raises(SystemDataError, match=rf"{label} ids repeat: \[0\]"):
            load_system(path)


class TestValidateSystem:
    def _system(self, **gen_kw):
        gens = (make_gen(0, 0, 10.0, 50.0, 20.0, **gen_kw),)
        return PowerSystem(
            buses=(Bus(0), Bus(1)),
            lines=(TransmissionLine(0, 0, 1, 0.1, 100.0),),
            generators=gens,
            solar_units=(),
            load_participation=np.array([0.0, 1.0]),
            slack_bus=0,
        )

    def test_valid_system_empty_report(self):
        assert validate_system(self._system()) == []

    def test_block_width_mismatch_names_generator(self):
        system = self._system(blocks=((45.0, 20.0),))
        problems = validate_system(system)
        assert len(problems) == 1
        assert "generator 0" in problems[0] and "block" in problems[0]

    def test_startup_ramp_below_pmin(self):
        bad = dataclasses.replace(self._system().generators[0], ramp_su=5.0)
        system = dataclasses.replace(self._system(), generators=(bad,))
        assert any("startup ramp below p_min" in p for p in validate_system(system))

    def test_disconnected_network(self):
        system = dataclasses.replace(self._system(), lines=())
        assert any("not connected" in p for p in validate_system(system))

    def test_line_to_unknown_bus_reported(self):
        system = dataclasses.replace(self._system(),
                                     lines=(TransmissionLine(0, 0, 5, 0.1, 100.0),))
        assert "line 0: unknown bus" in validate_system(system)

    def test_repeated_generator_ids_reported(self):
        gen = self._system().generators[0]
        system = dataclasses.replace(self._system(), generators=(gen, gen))
        assert validate_system(system) == ["generator ids repeat: [0]"]


class TestPtdf:
    def test_two_bus_single_line(self):
        gens = (make_gen(0, 1, 0.0, 50.0, 20.0),)
        system = PowerSystem(
            buses=(Bus(0), Bus(1)),
            lines=(TransmissionLine(0, 0, 1, 0.1, 100.0),),
            generators=gens, solar_units=(),
            load_participation=np.array([1.0, 0.0]), slack_bus=0,
        )
        ptdf = compute_ptdf(system)
        assert ptdf.values[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert ptdf.values[0, 1] == pytest.approx(-1.0, abs=1e-9)

    def test_three_bus_ring_equal_reactance(self):
        # slack at the third bus; injection at bus 0 splits 2/3 direct, 1/3 around
        system = PowerSystem(
            buses=(Bus(0), Bus(1), Bus(2)),
            lines=(
                TransmissionLine(0, 0, 2, 0.1, 100.0),
                TransmissionLine(1, 0, 1, 0.1, 100.0),
                TransmissionLine(2, 1, 2, 0.1, 100.0),
            ),
            generators=(make_gen(0, 0, 0.0, 50.0, 20.0),),
            solar_units=(), load_participation=np.array([0, 0, 1.0]),
            slack_bus=2,
        )
        ptdf = compute_ptdf(system)
        inj = np.array([1.0, 0.0, -1.0])
        oracle = dc_power_flow(system, inj)
        assert ptdf.values[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert ptdf.values[1, 0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        np.testing.assert_allclose(ptdf.values[:, 0], oracle, atol=1e-9)

    def test_disconnected_network_raises(self):
        system = PowerSystem(
            buses=(Bus(0), Bus(1), Bus(2)),
            lines=(TransmissionLine(0, 0, 1, 0.1, 100.0),),
            generators=(make_gen(0, 0, 0.0, 50.0, 20.0),), solar_units=(),
            load_participation=np.array([0.0, 0.0, 1.0]), slack_bus=0,
        )
        with pytest.raises(SystemDataError, match="disconnected"):
            compute_ptdf(system)

    def test_118_bus_ptdf_bits_independent_of_blas_threads(self, data_dir):
        # last-bit differences in the PTDF change which near-optimal
        # commitment HiGHS returns, so every thread count must give the same
        script = ("import hashlib, sys; from frpsim.network import compute_ptdf, load_system; "
                  "print(hashlib.sha256(compute_ptdf(load_system(sys.argv[1]))"
                  ".values.tobytes()).hexdigest())")
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
            out = subprocess.run([sys.executable, "-c", script, str(data_dir / "ieee118.json")],
                                 env=env, capture_output=True, text=True, timeout=120, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_slack_column_zero(self, system118):
        ptdf = compute_ptdf(system118)
        assert np.abs(ptdf.values[:, system118.slack_bus]).max() == 0.0
        assert np.abs(ptdf.values).max() <= 1.0 + 1e-9

    def test_random_balanced_injection_matches_dc_solve(self, system118, rng):
        ptdf = compute_ptdf(system118)
        inj = rng.normal(0, 50, size=system118.n_buses)
        inj[system118.slack_bus] -= inj.sum()
        np.testing.assert_allclose(
            ptdf.values @ inj, dc_power_flow(system118, inj), atol=1e-8
        )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=10_000))
    def test_ptdf_row_property(self, n_buses, extra, seed):
        rng = np.random.default_rng(seed)
        system = random_connected_system(rng, n_buses, extra)
        ptdf = compute_ptdf(system)
        for bus in range(n_buses):
            inj = np.zeros(n_buses)
            inj[bus] += 1.0
            inj[system.slack_bus] -= 1.0
            np.testing.assert_allclose(
                ptdf.values @ inj, dc_power_flow(system, inj), atol=1e-8
            )

    def test_bus_reordering_permutes_ptdf(self, rng):
        system = random_connected_system(rng, 6, 3)
        ptdf = compute_ptdf(system)
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        remapped = PowerSystem(
            buses=tuple(Bus(i) for i in range(6)),
            lines=tuple(
                dataclasses.replace(ln, from_bus=int(inv[ln.from_bus]),
                                    to_bus=int(inv[ln.to_bus]))
                for ln in system.lines
            ),
            generators=tuple(
                dataclasses.replace(g, bus=int(inv[g.bus]))
                for g in system.generators
            ),
            solar_units=(),
            load_participation=system.load_participation[perm],
            slack_bus=int(inv[system.slack_bus]),
        )
        ptdf2 = compute_ptdf(remapped)
        np.testing.assert_allclose(ptdf2.values[:, inv], ptdf.values, atol=1e-10)


class TestReadCsv:
    """The one CSV reader: row i holds cell i, each label matches, each value
    is a finite number, and each row is as long as the header."""

    KEYS, CELLS, COLUMNS = ("g", "t"), [(3, 0), (3, 1), (1, 0), (1, 1)], ("x", "y")

    def write(self, tmp_path, *lines):
        path = tmp_path / "a.csv"
        path.write_text("".join(f"{line}\r\n" for line in ("g,t,kind,x,y,z", *lines)))
        return path

    def rows(self):
        return [f"{g},{t},a,{g + t / 4},{-t},note" for g, t in self.CELLS]

    def read(self, path, **kw):
        return read_csv(path, self.KEYS, self.CELLS, self.COLUMNS, {"kind": "a"}, **kw)

    def test_columns_in_cell_order(self, tmp_path):
        cols = self.read(self.write(tmp_path, *self.rows()))
        assert list(cols) == ["x", "y"]
        assert cols["x"].tolist() == [3.0, 3.25, 1.0, 1.25]
        assert cols["y"].tolist() == [0.0, -1.0, 0.0, -1.0]
        assert cols["x"].flags.c_contiguous

    @pytest.mark.parametrize("edit, message", [
        (lambda r: [r[1], r[0], *r[2:]], "line 2 holds g 3, t 1 where g 3, t 0 belongs"),
        (lambda r: [*r[:2], r[1], *r[2:]], "line 4 holds g 3, t 1 where g 1, t 0 belongs"),
        (lambda r: [*r, r[-1]], "line 6 holds g 1, t 1 where no row belongs"),
        (lambda r: r[:3], "has no row for g 1, t 1"),
        (lambda r: [r[0], "3,1,b,1.0,0.0,note", *r[2:]], "line 3, column kind: 'b' is not 'a'"),
        (lambda r: [r[0], "3,1.0,a,1.0,0.0,note", *r[2:]], "line 3, column t: cannot read '1.0'"),
        (lambda r: [r[0], "3,1,a,,0.0,note", *r[2:]], "line 3, column x: cannot read ''"),
        (lambda r: [r[0], "3,1,a,1.0,-inf,note", *r[2:]],
         "line 3, column y: '-inf' is not finite"),
        (lambda r: [r[0], "3,1,a,NaN,0.0,note", *r[2:]], "line 3, column x: 'NaN' is not finite"),
        (lambda r: [r[0], "3,1,a,1,000.5,0.0,note", *r[2:]],
         "line 3: row length 7, header length 6"),
        (lambda r: [r[0], "3,1,a,1.0,0.0", *r[2:]], "line 3: row length 5, header length 6"),
        (lambda r: [r[0], "", *r[1:]], "line 3: row length 0, header length 6"),
    ], ids=["swapped", "repeated", "extra", "truncated", "label", "key", "empty-value",
            "infinite", "nan", "long-row", "short-row", "blank-line"])
    def test_refusal_names_path_and_place(self, tmp_path, edit, message):
        path = self.write(tmp_path, *edit(self.rows()))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path} {message}')}$"):
            self.read(path)

    def test_missing_column_file_or_text(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("g,t,kind,x\r\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 1 has no y column$"):
            self.read(path)
        path.write_text("")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 1 has no g column$"):
            self.read(path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path / 'b.csv'))}: No such"):
            self.read(tmp_path / "b.csv")
        path.write_bytes(b"g,t,kind,x,y\r\n\xff\xfe\r\n")       # not text
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*codec can't decode"):
            self.read(path)

    def test_error_type_is_the_callers(self, tmp_path):
        path = self.write(tmp_path, *self.rows()[:1])
        with pytest.raises(SystemDataError, match=r"has no row for g 3, t 1; see here$"):
            self.read(path, error=lambda message: SystemDataError(f"{message}; see here"))
