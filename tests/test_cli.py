import csv
import errno
import logging
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from rborch.cli import main, validate_point
from rborch.config import ConfigError, load_config, parse_source
from rborch.near_rt import ServiceSpec
from rborch.sim import AnomalyConfig
from rborch.traces import SyntheticModel, load_arrival_trace

BASE_CFG = """
[scenario]
n_cell = 12
horizon = 2600
t_obs = 1500
t_out = 1000
controller = marea
seed = 5

[service.0]
w_th_ms = 5
epsilon = 1e-3
arrival = two-point 0:0.5 200:0.5
channel = constant 25

[service.1]
w_th_ms = 10
epsilon = 1e-3
arrival = constant 60
channel = constant 25
"""


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "scenario.cfg"
    p.write_text(BASE_CFG)
    return str(p)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfig:
    def test_load(self, cfg_file):
        cfg = load_config(cfg_file)
        assert cfg.n_cell == 12 and len(cfg.services) == 2
        assert cfg.services[0].arrival.kind == "two-point"

    def test_load_literal_ini(self, tmp_path):
        path = tmp_path / "lit.cfg"
        path.write_text(
            "[scenario]\n"
            "n_cell = 20\nhorizon = 6000\ncontroller = ref4\nestimator = gmm\n"
            "eta = 0.6\ntau = 0.2\nseed = 17\n"
            "anomaly_service = 1\nanomaly_start = 4500\nanomaly_end = 5000\nanomaly_factor = 2.5\n"
            "[service.0]\nw_th_ms = 5.0\nepsilon = 0.0001\n"
            "arrival = empirical-table 0:0.25 10:0.5 500:0.25\nchannel = uniform-integer 20 30\n"
            "[service.1]\nw_th_ms = 12.0\nepsilon = 0.001\n"
            "arrival = constant 90\nchannel = constant 25\n"
        )
        cfg = load_config(path)
        assert cfg.n_cell == 20 and cfg.controller == "ref4"
        assert cfg.estimator == "gmm" and cfg.eta == 0.6 and cfg.tau == 0.2
        assert cfg.anomaly == AnomalyConfig(1, 4500, 5000, 2.5)
        assert cfg.services == (
            ServiceSpec(0, 5.0, 1e-4,
                        SyntheticModel("empirical-table", (0, 10, 500), (0.25, 0.5, 0.25)),
                        SyntheticModel("uniform-integer", (20, 30))),
            ServiceSpec(1, 12.0, 1e-3,
                        SyntheticModel("constant", (90,)),
                        SyntheticModel("constant", (25,))),
        )

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nope.cfg")

    @pytest.mark.parametrize("field,value,written", [
        ("seed", 11, "11"), ("eta", 0.6, "0.6"), ("controller", "ref3", "ref3"), ("debug_log", True, "true"),
    ])
    def test_override_equals_file_value(self, cfg_file, tmp_path, field, value, written):
        lines = [line for line in BASE_CFG.splitlines() if not line.startswith(f"{field} =")]
        lines.insert(lines.index("[scenario]") + 1, f"{field} = {written}")
        p = tmp_path / "written.cfg"
        p.write_text("\n".join(lines))
        assert load_config(cfg_file, **{field: value}) == load_config(p)
        assert load_config(p, **{field: None}) == load_config(p)  # None keeps the file's value

    @pytest.mark.parametrize("written, value", [
        ("1", True), ("yes", True), ("True", True), (" on", True), ("0", False), ("NO", False), ("false", False),
        ("off ", False),
    ])
    def test_bool_spellings(self, tmp_path, written, value):
        p = tmp_path / "bool.cfg"
        p.write_text(BASE_CFG.replace("seed = 5", f"seed = 5\ndebug_log = {written}"))
        assert load_config(p).debug_log is value

    def test_override_checked_as_file_value(self, cfg_file):
        with pytest.raises(ConfigError, match=f"^{re.escape(cfg_file)}: horizon must cover"):
            load_config(cfg_file, t_obs=5000)

    def test_source_parsing(self):
        m = parse_source("two-point 0:0.25 100:0.75")
        assert m.values == (0, 100) and m.probs == (0.25, 0.75)
        with pytest.raises(ConfigError):
            parse_source("waffles 3")
        with pytest.raises(ConfigError):
            parse_source("two-point 0:0.5 1:0.6")

    def test_bad_sections(self, tmp_path):
        p = tmp_path / "broken.cfg"
        p.write_text("[scenario]\nn_cell = 5\n")
        with pytest.raises(ConfigError):
            load_config(str(p))

    def test_trace_source_any_name(self, tmp_path):
        (tmp_path / "arr.dat").write_text("tti,service_id,bits\n0,0,100\n2,0,50\n")
        (tmp_path / "rates").write_text("tti,service_id,bits_per_rb\n0,0,25\n1,0,30\n")
        p = tmp_path / "traced.cfg"
        p.write_text(BASE_CFG.replace("arrival = two-point 0:0.5 200:0.5", "arrival = trace arr.dat")
                     .replace("channel = constant 25", "channel = trace rates", 1))
        cfg = load_config(p)
        assert cfg.services[0].arrival.bits_per_tti.tolist() == [100, 0, 50]
        assert cfg.services[0].channel.bits_per_rb.tolist() == [25, 30]

    def test_shared_trace_files_parsed_once(self, tmp_path, monkeypatch):
        (tmp_path / "arr.csv").write_text("tti,service_id,bits\n0,0,100\n0,1,70\n2,0,50\n1,1,20\n")
        (tmp_path / "ch.csv").write_text("tti,service_id,bits_per_rb\n0,0,25\n0,1,20\n1,0,30\n")
        p = tmp_path / "shared.cfg"
        p.write_text(BASE_CFG.replace("arrival = two-point 0:0.5 200:0.5", "arrival = trace arr.csv")
                     .replace("arrival = constant 60", "arrival = trace arr.csv")
                     .replace("channel = constant 25", "channel = trace ch.csv"))
        opened = []
        real_open = open

        def spy(*args, **kwargs):
            opened.append(os.path.basename(args[0]))
            return real_open(*args, **kwargs)

        monkeypatch.setattr("builtins.open", spy)
        cfg = load_config(p)
        assert sorted(name for name in opened if name.endswith(".csv")) == ["arr.csv", "ch.csv"]
        assert [s.arrival.bits_per_tti.tolist() for s in cfg.services] == [[100, 0, 50], [70, 20]]
        assert [s.channel.bits_per_rb.tolist() for s in cfg.services] == [[25, 30], [20]]


BAD_VALUES = {
    "epsilon": ("epsilon = 1e-3", "epsilon = 2"),
    "w_th_ms": ("w_th_ms = 5", "w_th_ms = -1"),
    "empty_anomaly": ("seed = 5", "seed = 5\nanomaly_service = 0\nanomaly_start = 100\n"
                                  "anomaly_end = 100\nanomaly_factor = 2"),
    "anomaly_start": ("seed = 5", "seed = 5\nanomaly_service = 0\nanomaly_start = five\n"
                                  "anomaly_end = 200\nanomaly_factor = 2"),
    "zero_channel": ("channel = constant 25", "channel = constant 0"),
    "gmm_components": ("seed = 5", "seed = 5\nestimator = gmm\ngmm_components = 0"),
}


class TestBadScenarioValues:
    """Invalid scenario values are configuration errors: exit 1, file named."""

    def check_exit_1(self, tmp_path, capsys, text, old, new, argv):
        p = tmp_path / "bad.cfg"
        p.write_text(text.replace(old, new, 1))
        rc = main([*argv, "--config", str(p), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1, err
        assert err.startswith(f"error: {p}: ")

    @pytest.mark.parametrize("name", sorted(BAD_VALUES))
    def test_run(self, name, tmp_path, capsys):
        self.check_exit_1(tmp_path, capsys, BASE_CFG, *BAD_VALUES[name], ["run"])

    def test_zero_channel_validate_model(self, tmp_path, capsys):
        self.check_exit_1(tmp_path, capsys, SINGLE_CFG, *BAD_VALUES["zero_channel"],
                          ["validate-model", "--n-min-grid", "4", "--t-obs-grid", "500", "--runs", "1",
                           "--run-ttis", "2000"])

    def test_zero_channel_table1(self, tmp_path, capsys):
        self.check_exit_1(tmp_path, capsys, TRIPLE_CFG, *BAD_VALUES["zero_channel"],
                          ["table1", "--n-cell-grid", "20"])


# a misspelt option, an unknown section, a descriptor with the wrong count of
# values or a partial anomaly block: (text replaced in BASE_CFG, its
# replacement, the error after the path)
STRICT_CASES = {
    "scenario option": ("t_out = 1000", "tout = 500", "[scenario] has unknown option 'tout'"),
    "scenario option beside a known one": (
        "controller = marea", "controller = marea\ncontroler = ref3", "[scenario] has unknown option 'controler'"
    ),
    "service option": ("epsilon = 1e-3", "epsilon = 1e-3\nepsilonn = 0.5", "[service.0] has unknown option 'epsilonn'"),
    "section": ("[service.1]", "[scenery]\nseed = 4\n\n[service.1]", "unknown section [scenery]"),
    "default section": ("[scenario]", "[DEFAULT]\nseed = 4\n\n[scenario]", "unknown section [DEFAULT]"),
    "constant with two values": (
        "channel = constant 25", "channel = constant 25 30", "constant source takes exactly one value"
    ),
    "bare constant": ("arrival = constant 60", "arrival = constant", "constant source takes exactly one value"),
    "uniform-integer with three values": (
        "arrival = constant 60", "arrival = uniform-integer 0 300 500", "uniform-integer source takes exactly two values"
    ),
    "uniform-integer with one value": (
        "arrival = constant 60", "arrival = uniform-integer 300", "uniform-integer source takes exactly two values"
    ),
    "anomaly block without its service": (
        "seed = 5", "seed = 5\nanomaly_start = 100\nanomaly_end = 200\nanomaly_factor = 2",
        "incomplete anomaly block ('anomaly_service' missing)",
    ),
    "trace with two paths": ("arrival = constant 60", "arrival = trace a.csv b.csv", "trace source takes exactly one path"),
    "empty descriptor": ("arrival = constant 60", "arrival =", "empty source descriptor"),
    "bool value": ("seed = 5", "seed = 5\ndebug_log = maybe", "option 'debug_log': cannot parse 'maybe' as bool"),
    "service section name": ("[service.1]", "[service.x]", "bad service section name [service.x]"),
    # float("nan") parses; the slot check refuses it before any slot count is taken
    "slot of NaN ms": ("t_out = 1000", "t_out = 1000\nt_slot_ms = nan", "t_slot_ms must be finite and positive, not nan"),
    "no n_cell": ("n_cell = 12\n", "", "[scenario] must set n_cell"),
    "service without channel": ("channel = constant 25\n\n[service.1]", "\n[service.1]", "[service.0] must set channel"),
    "no service sections": (BASE_CFG[BASE_CFG.index("[service.0]") :], "", "no [service.N] sections"),
    "no [scenario]": (BASE_CFG[: BASE_CFG.index("[service.0]")], "", "missing [scenario] section"),
    # 12 RBs of 2^61 bits over 2600 TTIs: the warm-up's offered bits would wrap in int64
    "offered bits reach 2^62": (
        "channel = constant 25", "channel = constant 2305843009213693952",
        "service 0: n_cell x largest bits per RB x horizon must be below 2^62",
    ),
}


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_strict_scenario_file_exit_1(case, tmp_path, capsys):
    old, new, message = STRICT_CASES[case]
    p = tmp_path / "strict.cfg"
    p.write_text(BASE_CFG.replace(old, new, 1))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {p}: {message}\n"


def test_unparsable_file_exit_1(tmp_path, capsys):
    p = tmp_path / "garbled.cfg"
    p.write_text("[scenario]\nn_cell 12\n")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot parse {p}: Source contains parsing errors: {str(p)!r}\n\t[line  2]: 'n_cell 12\\n'\n"
    )


def test_empty_default_section_loads(cfg_file, tmp_path):
    p = tmp_path / "default.cfg"
    p.write_text("[DEFAULT]\n" + BASE_CFG)
    assert load_config(p) == load_config(cfg_file)


def test_readme_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    p = tmp_path / "readme.cfg"
    p.write_text(blocks[0])
    cfg = load_config(p)
    assert (cfg.n_cell, cfg.horizon, cfg.t_obs, cfg.t_out, cfg.seed) == (30, 100000, 4000, 1000, 7)
    assert (cfg.controller, cfg.estimator, cfg.eta, cfg.tau) == ("marea", "empirical", 0.75, 0.3)
    assert cfg.anomaly == AnomalyConfig(0, 8000, 16000, 3.5)
    assert cfg.services == (
        ServiceSpec(0, 5.0, 1e-3, SyntheticModel("two-point", (0, 200), (0.5, 0.5)), SyntheticModel("constant", (25,))),
    )


class TestRunCommand:
    def test_run_writes_outputs(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_file, "--out", out]) == 0
        for f in ("summary.csv", "ccdf.csv", "alloc.csv"):
            assert os.path.exists(os.path.join(out, f))
        header = read(os.path.join(out, "summary.csv")).splitlines()[0]
        assert header.startswith(b"service_id,packets")

    def test_byte_identical_reruns(self, cfg_file, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", cfg_file, "--seed", "7", "--out", out1]) == 0
        assert main(["run", "--config", cfg_file, "--seed", "7", "--out", out2]) == 0
        for f in ("summary.csv", "ccdf.csv", "alloc.csv"):
            assert read(os.path.join(out1, f)) == read(os.path.join(out2, f))

    def test_missing_config_exit_1(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "nope.cfg" in capsys.readouterr().err

    def test_runtime_error_exit_2(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")  # a file where the output directory should go
        assert main(["run", "--config", cfg_file, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"runtime error: [Errno {errno.EEXIST}] File exists: {str(out)!r}\n"

    def test_uniform_big_packet_windows_run(self, tmp_path):
        # 2.5e11-bit packets take 250 RBs of a constant 10^9-bit channel, so every
        # capacity window is uniform; the int64 guard on sum(bits) * max(rbs)^2
        # refused them (exit 2), though a uniform window forms no prefix
        p = tmp_path / "big.cfg"
        p.write_text(SINGLE_CFG.replace("n_cell = 10", "n_cell = 30").replace("horizon = 2600", "horizon = 5000")
                     .replace("t_obs = 1500", "t_obs = 4000").replace("w_th_ms = 8", "w_th_ms = 50")
                     .replace("two-point 0:0.5 150:0.5", "empirical-table 0:0.9 250000000000:0.1")
                     .replace("constant 25", "constant 1000000000"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 0
        rows = read(tmp_path / "out" / "summary.csv").decode().splitlines()
        assert len(rows) == 2 and int(rows[1].split(",")[2]) > 0  # packets completed

    def test_trace_cell_beyond_int64_names_its_line(self, tmp_path, capsys):
        (tmp_path / "big.csv").write_text(f"tti,service_id,bits_per_rb\n0,0,25\n1,0,{1 << 63}\n")
        p = tmp_path / "trace.cfg"
        p.write_text(SINGLE_CFG.replace("channel = constant 25", "channel = trace big.csv"))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {p}: bad source descriptor 'trace big.csv': line 3: bits_per_rb is not an int64 integer: "
            f"'{1 << 63}'\n"
        )

    def test_no_silent_overwrite(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_file, "--out", out]) == 0
        assert main(["run", "--config", cfg_file, "--out", out]) == 1
        assert main(["run", "--config", cfg_file, "--out", out, "--overwrite"]) == 0

    def test_controller_flag_overrides(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg_file, "--out", out, "--controller", "ref1"]) == 0
        # ref1 never invokes the allocator, so alloc.csv holds only a header
        assert read(os.path.join(out, "alloc.csv")).splitlines() == [b"period,service_id,n_min,w_est_ms,objective"]

    def test_bad_controller_flag(self, cfg_file, tmp_path, capsys):
        assert main(["run", "--config", cfg_file, "--out", str(tmp_path / "o"), "--controller", "x"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg_file}: unknown controller 'x'; ")

    def test_thin_window_warning_logged_once(self, tmp_path, caplog):
        p = tmp_path / "thin.cfg"
        p.write_text(BASE_CFG.replace("t_obs = 1500", "t_obs = 500"))
        with caplog.at_level(logging.WARNING):
            assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
        assert [r.getMessage() for r in caplog.records if "thin" in r.getMessage()] == [
            "t_obs (500) < t_out (1000); windows will be thin"
        ]


class TestSweepCommand:
    def test_sweep_axes(self, cfg_file, tmp_path):
        out = str(tmp_path / "sweep")
        rc = main([
            "sweep", "--config", cfg_file, "--out", out,
            "--axis", "seed=1,2", "--axis", "controller=marea,ref3",
        ])
        assert rc == 0
        idx = read(os.path.join(out, "index.csv")).decode().splitlines()
        assert idx[0] == "run_id,seed,controller,out_dir,status,error"
        assert len(idx) == 5
        for i in range(4):
            assert os.path.exists(os.path.join(out, f"run_{i:03d}", "summary.csv"))

    def test_sweep_failed_run_recorded(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg_file, "--out", str(out), "--axis", "controller=marea,ref9"])
        assert rc == 2
        with open(out / "index.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run_id", "controller", "out_dir", "status", "error"]
        assert rows[1][1:] == ["marea", str(out / "run_000"), "ok", ""]
        assert rows[2][1] == "ref9" and rows[2][3] == "failed"
        assert rows[2][4].startswith(f"ConfigError: {cfg_file}: unknown controller 'ref9'; ")
        assert (out / "run_000" / "summary.csv").exists()
        assert "1 of 2 sweep runs failed" in capsys.readouterr().err

    def test_sweep_requires_axis(self, cfg_file, tmp_path):
        assert main(["sweep", "--config", cfg_file, "--out", str(tmp_path / "s")]) == 1

    def test_sweep_bad_axis_name(self, cfg_file, tmp_path):
        rc = main(["sweep", "--config", cfg_file, "--out", str(tmp_path / "s"),
                   "--axis", "bogus=1,2"])
        assert rc == 1

    @pytest.mark.parametrize("axis", ["seed=", "seed=,"])
    def test_sweep_empty_axis_rejected(self, cfg_file, tmp_path, capsys, axis):
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg_file, "--out", str(out), "--axis", axis]) == 1
        assert capsys.readouterr().err == "error: --axis 'seed' has no values\n"
        assert not out.exists()  # nothing run, no index.csv

    def test_sweep_repeated_axis_rejected(self, cfg_file, tmp_path, capsys):
        out = tmp_path / "s"
        rc = main(["sweep", "--config", cfg_file, "--out", str(out), "--axis", "seed=1", "--axis", "seed=2"])
        assert rc == 1
        assert capsys.readouterr().err == "error: --axis 'seed' is given more than once\n"
        assert not out.exists()

    def test_sweep_applies_seed_flag(self, cfg_file, tmp_path):
        ran, swept = tmp_path / "run", tmp_path / "sweep"
        assert main(["run", "--config", cfg_file, "--seed", "9", "--out", str(ran)]) == 0
        assert main(["sweep", "--config", cfg_file, "--seed", "9", "--out", str(swept),
                     "--axis", "controller=marea"]) == 0
        for f in ("summary.csv", "ccdf.csv", "alloc.csv"):
            assert read(swept / "run_000" / f) == read(ran / f)

    def test_seed_axis_beats_seed_flag(self, cfg_file, tmp_path):
        ran, swept = tmp_path / "run", tmp_path / "sweep"
        assert main(["run", "--config", cfg_file, "--seed", "3", "--out", str(ran)]) == 0
        assert main(["sweep", "--config", cfg_file, "--seed", "9", "--out", str(swept), "--axis", "seed=3"]) == 0
        for f in ("summary.csv", "ccdf.csv", "alloc.csv"):
            assert read(swept / "run_000" / f) == read(ran / f)

    def test_sweep_parallel_matches_serial(self, cfg_file, tmp_path):
        a, b = str(tmp_path / "ser"), str(tmp_path / "par")
        assert main(["sweep", "--config", cfg_file, "--out", a, "--axis", "seed=1,2"]) == 0
        assert main(["sweep", "--config", cfg_file, "--out", b, "--axis", "seed=1,2", "--jobs", "2"]) == 0
        for i in range(2):
            assert read(os.path.join(a, f"run_{i:03d}", "summary.csv")) == read(
                os.path.join(b, f"run_{i:03d}", "summary.csv")
            )


class TestTraceFormats:
    """A bare CSV and a packet CSV carrying one packet per non-empty TTI are one trace."""

    @staticmethod
    def write_traces(tmp_path, length):
        bits = np.random.default_rng(length).choice([0, 0, 60, 150, 400], size=length)
        bare = ["tti,service_id,bits"]
        packet = ["tti,service_id,bits,packet_sizes"]
        for t, b in enumerate(bits.tolist()):
            for sid in range(2):
                bare.append(f"{t},{sid},{b}")
                # an empty cell is one packet of the row's bits (none for a 0-bit row)
                packet.append(f"{t},{sid},{b},{b if b and t % 3 else ''}")
        paths = []
        for name, lines in (("bare.csv", bare), ("packet.csv", packet)):
            paths.append(tmp_path / name)
            paths[-1].write_text("\n".join(lines) + "\n")
        return paths

    @pytest.mark.parametrize("length", [3000, 700], ids=["covers-horizon", "shorter-than-horizon"])
    def test_bare_and_packet_csv_give_identical_runs(self, tmp_path, length):
        bare, packet = self.write_traces(tmp_path, length)
        for sid in range(2):
            a, b = load_arrival_trace(bare, sid), load_arrival_trace(packet, sid)
            assert a.length == b.length == length
            assert a.arrival.tolist() == b.arrival.tolist() and a.size.tolist() == b.size.tolist()
        outs = {}
        for trace in (bare, packet):
            cfg = tmp_path / f"{trace.stem}.cfg"
            cfg.write_text(
                BASE_CFG.replace("seed = 5", "seed = 5\ndebug_log = true")
                .replace("arrival = two-point 0:0.5 200:0.5", f"arrival = trace {trace.name}")
                .replace("arrival = constant 60", f"arrival = trace {trace.name}")
            )
            for controller in ("marea", "ref1", "ref2", "ref3", "ref4"):
                out = tmp_path / trace.stem / controller
                assert main(["run", "--config", str(cfg), "--out", str(out), "--controller", controller]) == 0
                outs[trace.stem, controller] = {f: read(out / f) for f in sorted(os.listdir(out))}
        for controller in ("marea", "ref1", "ref2", "ref3", "ref4"):
            got = outs["packet", controller]
            assert len(got) == 4 and got == outs["bare", controller]


SINGLE_CFG = """
[scenario]
n_cell = 10
horizon = 2600
t_obs = 1500
t_out = 1000
seed = 5

[service.0]
w_th_ms = 8
epsilon = 1e-3
arrival = two-point 0:0.5 150:0.5
channel = constant 25
"""


class TestValidateModel:
    @pytest.fixture
    def single_cfg(self, tmp_path):
        p = tmp_path / "single.cfg"
        p.write_text(SINGLE_CFG)
        return str(p)

    def test_grid_rows_and_inf(self, single_cfg, tmp_path):
        out = str(tmp_path / "v")
        rc = main([
            "validate-model", "--config", single_cfg, "--out", out,
            "--n-min-grid", "2,4,8", "--t-obs-grid", "500,1000",
            "--runs", "2", "--run-ttis", "20000",
        ])
        assert rc == 0
        lines = read(os.path.join(out, "validate.csv")).decode().splitlines()
        assert lines[0] == "n_min,t_obs,W_model_ms,W_measured_ms,rel_err"
        assert len(lines) == 1 + 3 * 2
        by_nmin = {l.split(",")[0] for l in lines[1:]}
        assert by_nmin == {"2", "4", "8"}
        # n_min=2 gives 50 bits/TTI vs mean 75: under-provisioned -> inf
        for line in lines[1:]:
            cells = line.split(",")
            if cells[0] == "2":
                assert cells[2] == "inf"

    def test_capacity_dominates_small_rel_err(self, tmp_path):
        p = tmp_path / "det.cfg"
        p.write_text(SINGLE_CFG.replace("two-point 0:0.5 150:0.5", "constant 100"))
        out = str(tmp_path / "v2")
        rc = main([
            "validate-model", "--config", str(p), "--out", out,
            "--n-min-grid", "5,8", "--t-obs-grid", "500",
            "--runs", "1", "--run-ttis", "5000",
        ])
        assert rc == 0
        lines = read(os.path.join(out, "validate.csv")).decode().splitlines()[1:]
        for line in lines:
            cells = line.split(",")
            assert float(cells[4]) <= 1e-2

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_bound_models_one_channel_value_per_tti(self, seed):
        # 11 RBs of 5 or 17 bits, one value per TTI, as the FIFO runs serve them:
        # a window of 11 independent per-RB draws per TTI understates the spread
        # of the service, and its bound then read P[w >= W_model] above 1e-2
        spec = ServiceSpec(0, 10.0, 1e-3, SyntheticModel("two-point", (0, 200), (0.5, 0.5)),
                           SyntheticModel("two-point", (5, 17), (0.5, 0.5)))
        w_model, _, rel, delays = validate_point(spec, seed, 11, 20_000, 2, 250_000, 1.0)
        assert float(np.mean(delays >= w_model)) <= 3 * spec.epsilon
        assert rel <= 0.1

    def test_traces_match_constant_sources(self, tmp_path):
        # 120 bits and 25 bits/RB in every TTI, as traces and as constant sources
        (tmp_path / "arr.csv").write_text("tti,service_id,bits\n" + "".join(f"{t},0,120\n" for t in range(300)))
        (tmp_path / "ch.csv").write_text("tti,service_id,bits_per_rb\n" + "".join(f"{t},0,25\n" for t in range(300)))
        outs = {}
        sources = (("const", "constant 120", "constant 25"), ("trace", "trace arr.csv", "trace ch.csv"))
        for name, arrival, channel in sources:
            p = tmp_path / f"{name}.cfg"
            p.write_text(SINGLE_CFG.replace("two-point 0:0.5 150:0.5", arrival).replace("constant 25", channel))
            out = tmp_path / name
            rc = main([
                "validate-model", "--config", str(p), "--out", str(out),
                "--n-min-grid", "4,5,6", "--t-obs-grid", "100,400", "--runs", "3", "--run-ttis", "2000",
            ])
            assert rc == 0
            outs[name] = read(out / "validate.csv")
        assert outs["trace"] == outs["const"]
        rows = [line.split(",") for line in outs["trace"].decode().splitlines()[1:]]
        assert [(r[0], r[2], r[4]) for r in rows if r[0] == "4"] == [("4", "inf", "inf")] * 2
        assert all(r[2] != "inf" for r in rows if r[0] != "4")

    def test_multi_service_rejected(self, cfg_file, tmp_path):
        rc = main(["validate-model", "--config", cfg_file, "--out", str(tmp_path / "v")])
        assert rc == 1

    def test_large_service_bits_give_a_finite_bound(self):
        # 10^12 bits per TTI over 4000 TTIs: the window's int64 guard refused it while uniform windows form no prefix
        spec = ServiceSpec(0, 8.0, 1e-3, SyntheticModel("two-point", (0, 150), (0.5, 0.5)),
                           SyntheticModel("constant", (10**10,)))
        w_model, w_meas, _, _ = validate_point(spec, 5, 100, 4000, 1, 1000, 1.0)
        assert math.isfinite(w_model) and w_meas == 1.0

    def test_zero_traffic_rel_err_inf(self, tmp_path, caplog):
        p = tmp_path / "idle.cfg"
        p.write_text(SINGLE_CFG.replace("two-point 0:0.5 150:0.5", "constant 0"))
        out = str(tmp_path / "v3")
        with caplog.at_level("WARNING", logger="rborch.cli"):
            rc = main([
                "validate-model", "--config", str(p), "--out", out,
                "--n-min-grid", "4", "--t-obs-grid", "500",
                "--runs", "1", "--run-ttis", "2000",
            ])
        assert rc == 0
        cells = read(os.path.join(out, "validate.csv")).decode().splitlines()[1].split(",")
        assert cells[3] == "nan" and cells[4] == "inf"
        assert "no packet measured" in caplog.text


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("validate-model", "--runs", "-1"),
        ("validate-model", "--runs", "0"),
        ("validate-model", "--run-ttis", "0"),
        ("validate-model", "--n-min-grid", "0"),
        ("validate-model", "--t-obs-grid", "0"),
        ("validate-model", "--t-obs-grid", "500,-3"),
        ("table1", "--rbs-per-tti", "0"),
        ("table1", "--rbs-per-tti", "-1"),
        ("table1", "--n-cell-grid", "0"),
    ],
)
def test_option_below_one_exit_1(command, option, value, tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SINGLE_CFG if command == "validate-model" else TRIPLE_CFG)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), option, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_jobs_below_one_exit_1(jobs, tmp_path, capsys):
    # used to run the sweep in sequence and exit 0; only values below 1 are
    # tried here, since a valid count starts worker processes
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(TRIPLE_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--axis", "seed=1,2", "--jobs", jobs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--jobs" in err
    assert not out.exists()


# option checks of the commands: (the command and its options besides --config
# and --out, the error after "error: "); the --out directory holds an index.csv
CLI_CASES = {
    "axis without =": (["sweep", "--axis", "seed"], "bad --axis 'seed', expected name=v1,v2,..."),
    "index.csv kept": (["sweep", "--axis", "seed=1"], "refusing to overwrite {out}/index.csv (use --overwrite)"),
    "grid of a word": (["table1", "--n-cell-grid", "20,x"], "bad --n-cell-grid '20,x'"),
    "grid of no values": (["validate-model", "--n-min-grid", ","], "--n-min-grid is empty"),
    # n_min x 25 bits per RB per TTI wrapped int64 before any check saw it
    "service bits beyond int64": (["validate-model", "--n-min-grid", "400000000000000000"],
                                  "validate-model: n_min 400000000000000000 x 25 bits per RB x 200000 TTIs "
                                  "must be below 2^62"),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_command_option_exit_1(case, tmp_path, capsys):
    argv, message = CLI_CASES[case]
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SINGLE_CFG if argv[0] == "validate-model" else TRIPLE_CFG)
    out = tmp_path / "out"
    out.mkdir()
    (out / "index.csv").write_text("")
    assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 1
    assert capsys.readouterr().err == f"error: {message.format(out=out)}\n"
    assert os.listdir(out) == ["index.csv"]  # nothing run


TRIPLE_CFG = """
[scenario]
n_cell = 30
horizon = 3100
t_obs = 2000
t_out = 1000
seed = 9

[service.0]
w_th_ms = 5
epsilon = 1e-5
arrival = empirical-table 0:0.6 100:0.3 1000:0.1
channel = constant 25

[service.1]
w_th_ms = 10
epsilon = 1e-4
arrival = empirical-table 0:0.7 100:0.2 900:0.1
channel = constant 20

[service.2]
w_th_ms = 15
epsilon = 1e-3
arrival = empirical-table 0:0.65 80:0.2 1000:0.15
channel = constant 30
"""


class TestTable1:
    @pytest.fixture
    def triple_cfg(self, tmp_path):
        p = tmp_path / "triple.cfg"
        p.write_text(TRIPLE_CFG)
        return str(p)

    def test_emits_counts_and_errors(self, triple_cfg, tmp_path):
        out = str(tmp_path / "t")
        rc = main(["table1", "--config", triple_cfg, "--out", out, "--n-cell-grid", "20,25"])
        assert rc == 0
        lines = read(os.path.join(out, "table1.csv")).decode().splitlines()
        assert lines[0] == "n_cell,heuristic_objective,brute_objective,rel_err,heuristic_iterations,brute_iterations"
        rows = [l.split(",") for l in lines[1:]]
        assert [r[0] for r in rows] == ["20", "25"]
        assert int(rows[0][5]) == 171  # C(19,2)
        assert int(rows[1][5]) == 276  # C(24,2)
        assert all(r[3] == "0" for r in rows)  # heuristic matches brute force

    def test_infeasible_cell_rel_err_zero(self, tmp_path):
        # 1000 bits per TTI over 10 bits per RB needs 100 RBs per service, so
        # both objectives are inf at every cell size and agree exactly
        services = "".join(
            f"[service.{m}]\nw_th_ms = {5 * (m + 1)}\nepsilon = 1e-3\narrival = constant 1000\nchannel = constant 10\n\n"
            for m in range(2)
        )
        path = tmp_path / "infeasible.cfg"
        path.write_text(f"[scenario]\nn_cell = 4\nhorizon = 3000\nt_obs = 1000\n\n{services}")
        out = str(tmp_path / "t")
        assert main(["table1", "--config", str(path), "--out", out, "--n-cell-grid", "4,6"]) == 0
        rows = [l.split(",") for l in read(os.path.join(out, "table1.csv")).decode().splitlines()[1:]]
        assert [r[:4] for r in rows] == [["4", "inf", "inf", "0"], ["6", "inf", "inf", "0"]]

    def test_trace_sources_rejected(self, tmp_path, capsys):
        (tmp_path / "ch.csv").write_text("tti,service_id,bits_per_rb\n0,0,25\n")
        p = tmp_path / "traced.cfg"
        p.write_text(TRIPLE_CFG.replace("channel = constant 25", "channel = trace ch.csv"))
        assert main(["table1", "--config", str(p), "--out", str(tmp_path / "t"), "--n-cell-grid", "20"]) == 1
        assert capsys.readouterr().err == "error: table1 expects synthetic sources\n"

    def test_small_cell_rejected(self, triple_cfg, tmp_path):
        rc = main(["table1", "--config", triple_cfg, "--out", str(tmp_path / "t"), "--n-cell-grid", "2"])
        assert rc == 1


class TestCsvFormatting:
    def test_nine_significant_digits_and_inf(self):
        from rborch.cli import _fmt

        assert _fmt(math.pi) == "3.14159265"
        assert _fmt(float("inf")) == "inf"
        assert _fmt(0.05 * 7 - 1.0 + 0.7) == "0.05"  # fp noise trimmed at 9 digits
        assert _fmt(42) == "42"
        assert _fmt(True) == "true"
