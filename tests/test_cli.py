"""Command line: config files, exit codes, manifests and a pinned small pipeline."""

import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from msqglab import cli
from msqglab.snapshots import read_snapshot, write_snapshot
from msqglab.spectral import SineField
from msqglab.trajectories import select_start

SRC = Path(__file__).resolve().parents[1] / "src"

# N, Ng and image_radius come from the config file, so the pipeline also
# checks that its capitalised keys take effect
SMALL_CONFIG = "[run]\nN = 32\nNg = 64\nimage_radius = 2\n"

# sha256 of the outputs of the pipeline below, single-threaded, produced with
# numpy 2.4.6 and scipy 1.17.1 on x86-64.  Any change to these bytes must be
# explained; a new numpy or scipy may move the last bits of a value.
GOLDEN = {
    "run/diagnostics.csv": "bd13a5aed836ce479ebe407a6de0b8a7e24636c58261b6625b14a0c57d33637c",
    "tr/trajectory.csv": "a3bb1d695cc112fb02ed24c01d8ae7681f5f3bd71304ed18de9575d3453e14a3",
    "tr/trace_summary.json": "5cf1c28316fc997413f8237240a51e668ab46d3b67c5783ffad7b2b86f0a6e0c",
    "ver/report_kernel_asymptotics.json":
        "f108e9c95b75faffaad3e382aa86566de6efdd4563504af2c9f343297c8dcab8",
    "ver/report_near_field.json": "c9bff38a2e3d310ebc722fa01a43f217c30db706a3997b625b497b9aa846d936",
    "ver/report_medium_ratio.json":
        "6f2179b6e3fc2f5718f4e7a8cb3cb55ce1e8d00d7d12e478f87706a1def3bf79",
    "ver/report_far_field.json": "92c9b826dc39b0de29f254c7d58a903156da36ac1d8e9c9961ca20e39bd0eec4",
    "ver/report_background.json": "8ef235dfa9417b84fe4ec123cd23f14f6f94e884c23f30a43b2396dede93d301",
    "ver/report_decomposition.json":
        "98cc66da4db83dbb3b28fa64911e2d0a544202b15fa00995774cfafc44836e26",
    "ver/verify_summary.csv": "6f4255a6d18a461b3aaf12f2ca23b109d7328adda7e6c29f13501556963d8a34",
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, MSQGLAB_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "msqglab.cli", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """make-data -> simulate -> trace, and verify --which all, at N=32/Ng=64."""
    root = tmp_path_factory.mktemp("cli")
    (root / "small.ini").write_text(SMALL_CONFIG)
    steps = {
        "make-data": ("make-data", "--config", "small.ini", "--out", "md"),
        "simulate": ("simulate", "--config", "small.ini", "--T", "0.2", "--out", "run"),
        "trace": ("trace", "--config", "small.ini", "--run-dir", "run", "--monitor-L", "8",
                  "--out", "tr"),
        "verify": ("verify", "--config", "small.ini", "--which", "all", "--out", "ver"),
    }
    results = {name: _run_cli(root, *args) for name, args in steps.items()}
    return root, results


class TestPipeline:
    def test_exit_codes(self, pipeline):
        _, res = pipeline
        assert res["simulate"].returncode == 0, res["simulate"].stderr
        assert res["trace"].returncode == 0, res["trace"].stderr
        # at Ng=64 the plateau is under-resolved and make-data's checks fail
        assert res["make-data"].returncode == 1, res["make-data"].stderr
        assert "checks FAIL" in res["make-data"].stdout

    def test_outputs_written(self, pipeline):
        root, _ = pipeline
        assert (root / "md" / "omega0.msqg").is_file()
        assert sorted(p.name for p in (root / "run").glob("snap_*.msqg")) == [
            "snap_0000000.msqg", "snap_0000010.msqg", "snap_0000019.msqg"]
        summary = json.loads((root / "tr" / "trace_summary.json").read_text())
        assert summary["halted"] is False
        assert (root / "tr" / "trajectory.csv").read_text().startswith("time,x1,x2,u1,u2,r\n")

    def test_config_file_sizes_used(self, pipeline):
        root, _ = pipeline
        cfg = json.loads((root / "run" / "manifest.json").read_text())["config"]
        assert (cfg["N"], cfg["Ng"], cfg["image_radius"]) == (32, 64, 2)
        assert json.loads((root / "run" / "metadata.json").read_text())["config"]["n_modes"] == 32

    def test_initial_data_warning_recorded(self, pipeline):
        # delta = 0.25 spans about 5 cells of Ng = 64: the construction warns
        root, res = pipeline
        message = ("delta=0.25 spans fewer than 8 grid cells at n_grid=64; "
                   "construction is under-resolved")
        checks = json.loads((root / "md" / "make_data_checks.json").read_text())
        assert checks["warnings"] == [message]
        for name in ("metadata.json", "summary.json"):
            notes = json.loads((root / "run" / name).read_text())["notes"]
            assert notes == [f"warning: {message}"]
        assert message in res["make-data"].stderr and message in res["simulate"].stderr

    @pytest.mark.parametrize("out", ["md", "run", "tr", "ver"])
    def test_manifest_hashes_match_files(self, pipeline, out):
        root, _ = pipeline
        manifest = json.loads((root / out / "manifest.json").read_text())
        listed = {entry["path"] for entry in manifest["files"]}
        on_disk = {p.name for p in (root / out).iterdir() if p.name != "manifest.json"}
        assert listed == on_disk
        for entry in manifest["files"]:
            path = root / out / entry["path"]
            assert entry["sha256"] == _sha256(path), entry["path"]
            assert entry["bytes"] == path.stat().st_size

    def test_environment_recorded(self, pipeline):
        # _run_cli pins MSQGLAB_THREADS=1
        root, _ = pipeline
        want = {"numpy": np.__version__, "scipy": scipy.__version__, "pocketfft": "direct",
                "fft_threads": 1, "cpu_count": os.cpu_count()}
        for name in ("md/manifest.json", "run/manifest.json", "run/metadata.json",
                     "tr/manifest.json", "ver/manifest.json"):
            assert json.loads((root / name).read_text())["environment"] == want, name

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_outputs(self, pipeline, name):
        root, _ = pipeline
        assert _sha256(root / name) == GOLDEN[name]

    def test_summary_scale_column(self, pipeline):
        # L or delta, the kernel sweep's scale ratio, and nothing for the far field
        root, _ = pipeline
        with open(root / "ver" / "verify_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        scales = {}
        for row in rows:
            scales.setdefault(row["estimate_id"], []).append(row["L_or_delta"])
        assert scales["kernel_asymptotics"] == ["10.0", "100.0", "1000.0"]
        assert set(scales["far_field"]) == {""}
        assert set(scales["background"]) == {"0.1", "0.2", "0.4"}
        assert set(scales["near_field"]) == set(scales["decomposition"]) == {"8.0"}


class TestTraceOfShortRun:
    def test_ten_records_skip_the_growth_fit(self, tmp_path):
        # 10 records leave 9 samples in the default fit window; the fit is
        # skipped with a note instead of failing the whole trace
        sim = _run_cli(tmp_path, "simulate", "--N", "32", "--Ng", "64", "--T", "0.45",
                       "--out", "run")
        assert sim.returncode == 0, sim.stderr
        assert len((tmp_path / "run" / "diagnostics.csv").read_text().splitlines()) == 11
        tr = _run_cli(tmp_path, "trace", "--Ng", "64", "--run-dir", "run", "--out", "tr")
        assert tr.returncode == 0, tr.stderr
        summary = json.loads((tmp_path / "tr" / "trace_summary.json").read_text())
        assert summary["gamma"] is None and summary["gamma_r2"] is None
        assert [n.split(":")[0] for n in summary["notes"]] == ["growth fit skipped"]
        written = {p.name for p in (tmp_path / "tr").iterdir()}
        assert written == {"growth.csv", "manifest.json", "trace_summary.json", "trajectory.csv"}


class TestZeroInitialField:
    @pytest.fixture
    def zero_run(self, tmp_path):
        write_snapshot(tmp_path / "zero.msqg", SineField.zeros(16), 32, 0.5, 0.0)
        out = tmp_path / "run"
        rc = cli.main(["simulate", "--N", "16", "--Ng", "32", "--T", "0.01",
                       "--initial", str(tmp_path / "zero.msqg"), "--out", str(out)])
        return rc, out

    def test_simulate_writes_summary_and_manifest(self, zero_run):
        # the Hessian starts at 0, so there is no growth ratio to report
        rc, out = zero_run
        assert rc == cli.EXIT_OK
        assert json.loads((out / "summary.json").read_text())["hessian_growth"] is None
        assert (out / "manifest.json").exists()
        # a field passed in is not built from a spec
        assert json.loads((out / "metadata.json").read_text())["initial_data"] is None

    def test_trace_sets_no_hessian_threshold(self, zero_run):
        # nothing grows from a zero Hessian: the path runs to the horizon
        _, out = zero_run
        tr = out.parent / "tr"
        assert cli.main(["trace", "--run-dir", str(out), "--out", str(tr)]) == cli.EXIT_OK
        summary = json.loads((tr / "trace_summary.json").read_text())
        assert (summary["T0"], summary["reason"]) == (pytest.approx(0.01), "horizon")


class TestOneInitialSpec:
    """make-data, simulate, verify and trace agree on what the settings mean."""

    @pytest.mark.parametrize("config", ["blend_order = 7", "delta = 0.5"])
    def test_simulate_starts_from_the_make_data_field(self, tmp_path, config):
        (tmp_path / "c.ini").write_text(f"[run]\nN = 32\nNg = 128\n{config}\n")
        base = ["--config", str(tmp_path / "c.ini")]
        assert cli.main(["make-data", *base, "--out", str(tmp_path / "md")]) in (
            cli.EXIT_OK, cli.EXIT_FAIL)
        assert cli.main(["simulate", *base, "--T", "0.01", "--out", str(tmp_path / "run")]) == \
            cli.EXIT_OK
        made = (tmp_path / "md" / "omega0.msqg").read_bytes()
        assert (tmp_path / "run" / "snap_0000000.msqg").read_bytes() == made
        spec = json.loads((tmp_path / "run" / "metadata.json").read_text())["initial_data"]
        key, value = config.split(" = ")
        assert spec[key] == type(spec[key])(value)
        assert (spec["n_modes"], spec["n_grid"]) == (32, 128)

    def test_verify_accepts_what_make_data_accepts(self, tmp_path, capsys):
        # delta = 0.5 lies above the spec's default delta_max pi/8
        (tmp_path / "c.ini").write_text("[run]\nN = 32\nNg = 64\nimage_radius = 2\n")
        rc = cli.main(["verify", "--config", str(tmp_path / "c.ini"), "--which", "near",
                       "--delta", "0.5", "--out", str(tmp_path / "ver")])
        assert rc in (cli.EXIT_OK, cli.EXIT_FAIL), capsys.readouterr().err
        assert json.loads((tmp_path / "ver" / "report_near_field.json").read_text())["samples"]

    def test_trace_starts_from_the_run_settings(self, tmp_path):
        run = tmp_path / "run"
        assert cli.main(["simulate", "--N", "32", "--Ng", "96", "--T", "0.2", "--delta", "0.3",
                         "--beta", "3", "--out", str(run)]) == cli.EXIT_OK
        assert cli.main(["trace", "--run-dir", str(run), "--out", str(tmp_path / "tr")]) == \
            cli.EXIT_OK
        summary = json.loads((tmp_path / "tr" / "trace_summary.json").read_text())
        t_end = read_snapshot(sorted(run.glob("snap_*.msqg"))[-1])[1]["time"]
        start = select_start(t_end, 0.3, 0.5, 3.0, 4 * math.pi / 96)
        assert summary["start"] == list(start.point)

    @pytest.mark.parametrize("dropped, taken", [(None, "alpha=0.5, Ng=48, delta=0.3, beta=3.0"),
                                                (("delta", "beta"), "delta=0.3, beta=3.0")])
    def test_trace_notes_the_settings_it_takes(self, tmp_path, dropped, taken):
        # the run's delta and beta are 0.25 and 5, trace's 0.3 and 3; without
        # metadata.json, or without those keys in it, trace's own are used
        run = tmp_path / "run"
        assert cli.main(["simulate", "--N", "16", "--Ng", "48", "--T", "0.02",
                         "--out", str(run)]) == cli.EXIT_OK
        meta = run / "metadata.json"
        if dropped is None:
            meta.unlink()
        else:
            ran = json.loads(meta.read_text())
            meta.write_text(json.dumps({**ran, "config": {
                k: v for k, v in ran["config"].items() if k not in dropped}}))
        assert cli.main(["trace", "--run-dir", str(run), "--Ng", "48", "--delta", "0.3",
                         "--beta", "3", "--out", str(tmp_path / "tr")]) == cli.EXIT_OK
        summary = json.loads((tmp_path / "tr" / "trace_summary.json").read_text())
        assert summary["notes"] == [f"from the trace settings, not the run's metadata: {taken}"]
        t_end = read_snapshot(sorted(run.glob("snap_*.msqg"))[-1])[1]["time"]
        assert summary["start"] == list(select_start(t_end, 0.3, 0.5, 3.0, 4 * math.pi / 48).point)


class TestImageRadiusOne:
    @pytest.mark.parametrize("which, estimate", [("far", "far_field"),
                                                 ("decomposition", "decomposition")])
    def test_verify_ends_in_a_report(self, tmp_path, which, estimate):
        # image_radius 1 leaves the far region no image cell: its sums are zero
        (tmp_path / "c.ini").write_text("[run]\nN = 32\nNg = 64\nimage_radius = 1\n")
        res = _run_cli(tmp_path, "verify", "--config", "c.ini", "--which", which, "--out", "ver")
        assert res.returncode in (cli.EXIT_OK, cli.EXIT_FAIL), res.stderr
        assert "Traceback" not in res.stderr
        report = json.loads((tmp_path / "ver" / f"report_{estimate}.json").read_text())
        assert report["samples"]


class TestUsageErrors:
    @pytest.mark.parametrize("flag", ["--seed", "--bogus"])
    def test_unknown_flag(self, tmp_path, capsys, flag):
        assert cli.main(["simulate", flag, "3", "--out", str(tmp_path)]) == cli.EXIT_USAGE

    def test_bad_which(self, tmp_path, capsys):
        assert cli.main(["verify", "--which", "everything", "--out", str(tmp_path)]) == \
            cli.EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--x1", "--x2"])
    def test_one_start_coordinate(self, tmp_path, capsys, flag):
        rc = cli.main(["trace", "--run-dir", str(tmp_path), flag, "0.1",
                       "--out", str(tmp_path / "tr")])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--x1" in err and "--x2" in err
        assert not (tmp_path / "tr").exists()

    @pytest.mark.parametrize("command, flag", [
        ("make-data", "--L"), ("make-data", "--beta"), ("make-data", "--dt"),
        ("make-data", "--T"), ("verify", "--beta"), ("verify", "--dt"), ("verify", "--T"),
        ("trace", "--N"), ("trace", "--L"), ("trace", "--T")])
    def test_flag_the_command_does_not_read(self, tmp_path, capsys, command, flag):
        # not even as an abbreviation: trace's --N is no --Ng
        run_dir = ["--run-dir", str(tmp_path)] if command == "trace" else []
        rc = cli.main([command, flag, "16", *run_dir, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag} 16" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, source", [
        ("simulate", "flag"), ("simulate", "config"), ("trace", "flag"), ("trace", "config")])
    def test_negative_dt(self, tmp_path, capsys, command, source):
        (tmp_path / "c.ini").write_text("[run]\ndt = -0.01\n")
        dt = ["--dt", "-0.01"] if source == "flag" else ["--config", str(tmp_path / "c.ini")]
        run_dir = ["--run-dir", str(tmp_path)] if command == "trace" else []
        rc = cli.main([command, *dt, *run_dir, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: dt must be >= 0 (0 selects the default step), got -0.01\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_horizon(self, tmp_path, capsys, value):
        rc = cli.main(["simulate", "--T", value, "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: t_final must be finite and >= 0, got {float(value)}\n"
        assert not (tmp_path / "o").exists()

    def test_nan_medium_scale(self, tmp_path, capsys):
        rc = cli.main(["verify", "--which", "background", "--L", "nan", "--N", "16",
                       "--Ng", "32", "--out", str(tmp_path / "v")])
        assert rc == cli.EXIT_USAGE
        assert "L >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan", "1.5"])
    def test_bad_monitor_scale(self, tmp_path, capsys, value):
        # 0 turns the monitor off and a scale is at least 2; anything else,
        # NaN too, stops before the run directory is read
        rc = cli.main(["trace", "--run-dir", str(tmp_path), "--monitor-L", value,
                       "--out", str(tmp_path / "tr")])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: --monitor-L must be 0 (off) or >= 2, got {float(value)}\n"
        assert not (tmp_path / "tr").exists()

    def test_run_dir_without_snapshots(self, tmp_path, capsys):
        rc = cli.main(["trace", "--run-dir", str(tmp_path), "--out", str(tmp_path / "tr")])
        assert rc == cli.EXIT_USAGE
        assert "no snapshots" in capsys.readouterr().err


# the flags of each subcommand: --config, --out and the settings it reads
FLAGS = {
    "make-data": "--config --out --alpha --delta --N --Ng",
    "simulate": "--config --out --alpha --delta --L --beta --N --Ng --dt --T --initial",
    "verify": "--config --out --alpha --delta --L --N --Ng --which",
    "trace": "--config --out --alpha --delta --beta --Ng --dt --run-dir --x1 --x2 --monitor-L",
}


def test_flags_per_subcommand():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {flag for action in sub._actions for flag in action.option_strings}
             for name, sub in subparsers.choices.items()}
    assert flags == {name: set(f"-h --help {names}".split()) for name, names in FLAGS.items()}


class TestConfigFile:
    def _settings(self, tmp_path, text):
        path = tmp_path / "c.ini"
        path.write_text(text)
        return cli._settings(cli.build_parser().parse_args(["make-data", "--config", str(path)]))

    def test_keys_match_case_insensitively(self, tmp_path):
        cfg = self._settings(tmp_path, "[run]\nN = 16\nng = 40\nT = 0.5\nl = 4\nalpha = 0.3\n")
        assert (cfg["N"], cfg["Ng"], cfg["T"], cfg["L"], cfg["alpha"]) == (16, 40, 0.5, 4.0, 0.3)
        assert not {"n", "ng", "t", "l"} & set(cfg)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nN = 16\n")
        args = cli.build_parser().parse_args(["make-data", "--config", str(path), "--N", "8"])
        assert cli._settings(args)["N"] == 8

    def test_values_take_the_type_of_their_default(self, tmp_path):
        cfg = self._settings(tmp_path, "[run]\nT = 1\nN = 16\nwhich = far\n")
        assert type(cfg["T"]) is float and cfg["T"] == 1.0
        assert type(cfg["N"]) is int and cfg["N"] == 16
        assert cfg["which"] == "far"

    def test_fractional_int_rejected(self, tmp_path, capsys):
        path = tmp_path / "c.ini"
        path.write_text("[run]\nN = 32.5\n")
        rc = cli.main(["make-data", "--config", str(path), "--out", str(tmp_path / "md")])
        assert rc == cli.EXIT_USAGE
        assert "32.5" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("N = 32.5", "config key 'N' in {path!r} must be int, got '32.5'"),
        ("safety = half", "config key 'safety' in {path!r} must be float, got 'half'")])
    def test_type_error_names_the_key(self, tmp_path, capsys, line, message):
        path = tmp_path / "c.ini"
        path.write_text(f"[run]\n{line}\n")
        rc = cli.main(["make-data", "--config", str(path), "--out", str(tmp_path / "md")])
        assert rc == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message.format(path=str(path))}\n"

    @pytest.mark.parametrize("line", ["sede = 4", "seed = 0"])
    def test_unknown_key_rejected(self, tmp_path, capsys, line):
        path = tmp_path / "c.ini"
        path.write_text(f"[run]\n{line}\n")
        rc = cli.main(["make-data", "--config", str(path), "--out", str(tmp_path / "md")])
        assert rc == cli.EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "md").exists()
