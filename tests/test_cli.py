"""End-to-end tests for the command-line interface."""

import hashlib
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from shardcast import cli
from shardcast.cli import main
from shardcast.errors import ShardcastError
from shardcast.identity import identifier_verify

REPO = Path(__file__).resolve().parent.parent
TRACE = REPO / "data" / "synthetic_trace.csv"
TABLE_CFG = REPO / "configs" / "table_repro.cfg"
GOLDEN_ANALYZE = Path(__file__).resolve().parent / "fixtures" / "golden_analyze_5_6_1.txt"

SECRET = "00112233445566778899aabbccddeeff"

# Child processes import this checkout's package, installed or not.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))),
}


def run_cli(*argv, input=None):
    return subprocess.run(
        [sys.executable, "-m", "shardcast", *argv],
        input=input,
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )


# -- split / recover ------------------------------------------------------


def test_split_is_deterministic_under_seed(capsys):
    assert main(["split", "--k", "3", "--n", "5",
                 "--secret-hex", SECRET, "--seed", "7"]) == 0
    first = capsys.readouterr()
    assert main(["split", "--k", "3", "--n", "5",
                 "--secret-hex", SECRET, "--seed", "7"]) == 0
    second = capsys.readouterr()
    assert first.out == second.out
    assert first.err == ""  # explicit seed: nothing echoed
    lines = first.out.splitlines()
    assert len(lines) == 5
    for i, line in enumerate(lines, start=1):
        share_id, body = line.split(":")
        assert int(share_id) == i
        assert len(bytes.fromhex(body)) == 16


def test_split_random_echoes_seed_to_stderr(capsys):
    assert main(["split", "--k", "2", "--n", "3", "--random"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("seed: ")
    assert len(captured.out.splitlines()) == 3


def test_split_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["split", "--k", "4", "--n", "3", "--secret-hex", SECRET])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["split", "--k", "2", "--n", "3", "--secret-hex", "zz"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["split", "--k", "2", "--n", "3"])  # no secret source
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["split", "--k", "2", "--n", "3", "--secret-hex", ""])
    assert info.value.code == 2
    assert "--secret-hex must not be empty" in capsys.readouterr().err


def test_recover_roundtrip_from_file(tmp_path, capsys):
    assert main(["split", "--k", "3", "--n", "5",
                 "--secret-hex", SECRET, "--seed", "21"]) == 0
    lines = capsys.readouterr().out.splitlines()
    share_file = tmp_path / "shares.txt"
    share_file.write_text("\n".join(lines[1:4]) + "\n")  # any 3 of 5
    assert main(["recover", "--input", str(share_file)]) == 0
    assert capsys.readouterr().out.strip() == SECRET


def test_recover_with_explicit_threshold(tmp_path, capsys):
    assert main(["split", "--k", "2", "--n", "4",
                 "--secret-hex", SECRET, "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    share_file = tmp_path / "shares.txt"
    share_file.write_text("\n".join(lines) + "\n")  # all 4 present
    assert main(["recover", "--input", str(share_file), "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == SECRET


def test_recover_check_rejects_non_identifier(tmp_path, capsys):
    # An arbitrary secret is astronomically unlikely to carry a valid
    # checksum, so --check must refuse it.
    assert main(["split", "--k", "2", "--n", "3",
                 "--secret-hex", SECRET, "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    share_file = tmp_path / "shares.txt"
    share_file.write_text("\n".join(lines[:2]) + "\n")
    assert main(["recover", "--input", str(share_file), "--check"]) == 1
    assert "checksum" in capsys.readouterr().err


def test_recover_rejects_empty_input():
    proc = run_cli("recover", input="")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_recover_reports_malformed_line(tmp_path, capsys):
    share_file = tmp_path / "shares.txt"
    share_file.write_text("1:00112233445566778899aabbccddeeff\nnot-a-share\n")
    assert main(["recover", "--input", str(share_file)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_recover_rejects_threshold_below_one(k, capsys):
    with pytest.raises(SystemExit) as info:
        main(["recover", "--k", k, "--input", "/no/such/shares.txt"])
    assert info.value.code == 2
    assert "--k" in capsys.readouterr().err


def test_split_recover_pipe_with_check():
    pipeline = (
        f"{sys.executable} -m shardcast split --k 3 --n 5 --random --seed 7"
        f" | head -3 | {sys.executable} -m shardcast recover --check"
    )
    proc = subprocess.run(
        ["sh", "-c", pipeline], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0
    recovered = bytes.fromhex(proc.stdout.strip())
    assert recovered.hex() == "269e0d37f2a74de452e6b4388d067aed"
    assert identifier_verify(recovered)


# -- encode / decode ------------------------------------------------------


def test_encode_default_fields(capsys):
    assert main(["encode", "--share-id", "1",
                 "--body-hex", "000102030405060708090a0b0c0d0e0f"]) == 0
    assert capsys.readouterr().out.strip() == (
        "1801beac01000102030405060708090a0b0c0d0e0f000000c500"
    )


def test_encode_custom_fields(capsys):
    assert main(["encode", "--share-id", "255",
                 "--body-hex", "ffeeddccbbaa99887766554433221100",
                 "--mfg-id", "0x004c", "--ref-rssi", "-100",
                 "--reserved", "127"]) == 0
    assert capsys.readouterr().out.strip() == (
        "4c00beacffffeeddccbbaa998877665544332211000000009c7f"
    )


def test_decode_prints_fields(capsys):
    assert main(["decode",
                 "4c00beacffffeeddccbbaa998877665544332211000000009c7f"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "mfg_id: 0x004c",
        "beacon_code: 0xbeac",
        "share_id: 255",
        "body: ffeeddccbbaa99887766554433221100",
        "ref_rssi: -100",
        "reserved: 127",
    ]


def test_decode_reads_stdin():
    proc = run_cli("decode", input="1801beac01000102030405060708090a0b0c0d0e0f000000c500\n")
    assert proc.returncode == 0
    assert "share_id: 1" in proc.stdout


def test_decode_rejects_wrong_beacon_code(capsys):
    bad = "1801bead01000102030405060708090a0b0c0d0e0f000000c500"
    assert main(["decode", bad]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_encode_rejects_out_of_range_rssi(capsys):
    assert main(["encode", "--share-id", "1",
                 "--body-hex", "000102030405060708090a0b0c0d0e0f",
                 "--ref-rssi", "200"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("flags, named", [
    (["--mfg-id", "70000"], "mfg_id"), (["--mfg-id", "-1"], "mfg_id"),
    (["--reserved", "300"], "mfg_reserved"), (["--reserved", "-1"], "mfg_reserved"),
])
def test_encode_rejects_out_of_range_header_fields(flags, named, capsys):
    assert main(["encode", "--share-id", "1",
                 "--body-hex", "000102030405060708090a0b0c0d0e0f", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {named} ")


# -- simulate / sweep -----------------------------------------------------


def test_simulate_single_run_row(capsys):
    argv = ["simulate", "--k", "3", "--n", "5", "--nodes", "3",
            "--t-share", "1", "--adv-interval", "1",
            "--seed", "1", "--trials", "5"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    lines = first.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("k\tn\tnodes")
    assert lines[1].startswith("3\t5\t3\t0\tcontinuous\t")
    assert main(argv) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "flags",
    [["--horizon", "inf"], ["--horizon", "nan"], ["--t-share", "inf"],
     ["--scan-mode", "custom:1:inf"],
     # Finite, but with no finite tick count (n * t_share for --t-share).
     ["--horizon", "1e308"], ["--scan-mode", "custom:1e308:1e308"], ["--t-share", "1e305"]],
)
def test_simulate_rejects_non_finite_values(flags, capsys):
    assert main(["simulate", "--k", "3", "--n", "5", "--seed", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_simulate_rejects_t_share_off_the_tick_grid(capsys):
    assert main(["simulate", "--k", "3", "--n", "5", "--seed", "1", "--t-share", "1.0003"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: t_share 1.0003 is not a multiple of 0.000625 s"]


def test_simulate_requires_scheme_or_config(capsys):
    # simulate takes the scheme as flags; a config file is sweep's.
    for argv, message in (
        (["simulate"], "the following arguments are required: --k, --n"),
        (["simulate", "--k", "3", "--n", "5", "--config", str(TABLE_CFG)],
         f"unrecognized arguments: --config {TABLE_CFG}"),
        (["sweep"], "the following arguments are required: --config"),
        (["simulate", "--k", "6", "--n", "5"], "need 2 <= k <= n <= 255"),
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_simulate_checks_its_flags_before_echoing_a_seed(capsys):
    # No --seed: a rejected flag still writes exactly one error line.
    assert main(["simulate", "--k", "3", "--n", "5", "--loss-rate", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: loss_rate 2.0 must lie in [0, 1)\n"


@pytest.mark.parametrize("argv", [
    ["split", "--k", "4", "--n", "3", "--secret-hex", SECRET],
    ["split", "--k", "2", "--n", "3", "--secret-hex", "zz"],
    ["recover", "--k", "0"],
    ["simulate", "--k", "6", "--n", "5"],
    ["analyze", "--input", str(TRACE), "--k", "3", "--n", "5", "--t", "1", "--gaps", "x"],
    ["encounters", "--input", str(TRACE), "--gaps", "-1"],
])
def test_handler_usage_errors_print_the_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: shardcast {argv[0]} ")


@pytest.mark.parametrize("argv", [
    ["simulate", "--k", "3", "--n", "5", "--seed", "-1"],
    ["sweep", "--config", str(TABLE_CFG), "--seed", "-1"],
])
def test_simulations_reject_a_negative_seed(argv, capsys):
    # Trial i runs at seed + i, and a negative seed draws the stream of its
    # absolute value, so trials would repeat each other.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed -1 must be an integer of at least 0\n"


@pytest.mark.parametrize("key", ["seed", "trials"])
def test_sweep_overrides_use_the_settings_converters(key, capsys):
    argv = ["sweep", "--config", str(TABLE_CFG), "--" + key]
    with pytest.raises(SystemExit) as info:
        main([*argv, "x"])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f": bad value for {key}: 'x'\n")
    assert getattr(cli.build_parser().parse_args([*argv, "7"]), key) == 7


def test_sweep_bundled_config(capsys):
    argv = ["sweep", "--config", str(TABLE_CFG), "--trials", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 73  # header + one row per configuration
    assert lines[1].startswith("2\t5\t1\t")
    assert lines[72].startswith("6\t7\t8\t")
    assert main(argv) == 0
    assert capsys.readouterr().out == out


# sha256 of the one-trial table sweep by seed. Seed 1 was recorded before the
# search's candidate test became a checksum syndrome; seed 1000 is unit 0 of
# the benchmark's table-sweep workload, which fails its run on any other output.
TABLE_SWEEP_TRIALS1_SHA256 = {
    1: "bf0a67c4af46b0ff9ad78dba52a965997e82ea65967753e3aec56ebc4c6da57f",
    1000: "1b008a88d87cb2c1539b12a15678404d7d9fc79fc99074f654209b3c4745b830",
}


def test_table_sweep_output_is_pinned(tmp_path):
    out_path = tmp_path / "table.tsv"
    for seed, expected in TABLE_SWEEP_TRIALS1_SHA256.items():
        assert main(["sweep", "--config", str(TABLE_CFG), "--trials", "1", "--seed", str(seed),
                     "--out", str(out_path)]) == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == expected, seed


def test_sweep_missing_config_file(capsys):
    assert main(["sweep", "--config", "/no/such/file.cfg"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sweep_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = 3:5\nwidgets = 4\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,text",
    [(["sweep", "--config"], "scheme = 3:5\nnodes = 2\nseed = 1\xff\n"),
     (["analyze", "--k", "3", "--n", "5", "--t", "1", "--input"],
      "0,d,s,-1\n1,d,s,-1\n2,d\xff,s,-1\n"),
     (["encounters", "--input"], "ts,dev,sc,rssi\n0,d,s,-1\n1,\xff,s,-1\n"),
     (["recover", "--input"], f"1:{SECRET}\n2:{SECRET}\n\xff3:{SECRET}\n")],
    ids=["sweep", "analyze", "encounters", "recover"],
)
def test_input_that_is_not_utf8_names_the_line(tmp_path, capsys, argv, text):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("latin-1"))
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: line 3: not UTF-8 text"]


def test_recover_names_the_line_on_stdin_that_is_not_utf8():
    # Shares on stdin are read as bytes, the way a file is read, whatever the
    # interpreter's own decoding of stdin: UTF-8 mode keeps a bad byte as a
    # lone surrogate, a strict decoder raises at it.
    for mode in ({"PYTHONUTF8": "1"}, {"PYTHONIOENCODING": "utf-8:strict"}):
        proc = subprocess.run([sys.executable, "-m", "shardcast", "recover"],
                              env={**CHILD_ENV, **mode}, capture_output=True,
                              input=f"1:{SECRET}\n2:\xff{SECRET[2:]}\n".encode("latin-1"))
        assert proc.returncode == 1, mode
        assert proc.stdout == b""
        assert proc.stderr.decode().splitlines() == ["error: line 2: not UTF-8 text"], mode


def test_config_rejects_scenario_flags(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("scheme = 3:5\nnodes = 2\n")
    scenario = ["--scanners", "2", "--t-share", "2", "--adv-interval", "1", "--scan-mode",
                "balanced", "--horizon", "9", "--recon-mode", "arrival", "--n", "4"]
    for flags in (["--nodes", "7", "--loss-rate", "0.5"], ["--k", "2"], scenario):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--config", str(cfg), *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flags)}" in captured.err
    # --seed, --trials and --out still override a config file.
    out_path = tmp_path / "results.tsv"
    argv = ["sweep", "--config", str(cfg), "--seed", "3", "--trials", "2",
            "--out", str(out_path)]
    assert main(argv) == 0
    assert main(["simulate", "--k", "3", "--n", "5", "--nodes", "2", "--seed", "3",
                 "--trials", "2"]) == 0
    assert out_path.read_text() == capsys.readouterr().out


def test_sweep_writes_results_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scheme = 2:3\nnodes = 1,2\nt_share = 1\ntrials = 2\nseed = 4\n")
    out_path = tmp_path / "results.tsv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("k\tn\tnodes")
    assert lines[1].startswith("2\t3\t1\t")
    assert lines[2].startswith("2\t3\t2\t")


def _no_simulation(configs):
    raise AssertionError("simulated before --out was checked")


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_fails_before_simulating(where, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "sweep", _no_simulation)
    out = tmp_path / "missing" / "x.tsv" if where == "missing-dir" else tmp_path
    assert main(["sweep", "--config", str(TABLE_CFG), "--trials", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert str(out) in err
    assert list(tmp_path.iterdir()) == []  # nothing is written


def test_failed_run_keeps_earlier_result(tmp_path, monkeypatch, capsys):
    def fail(configs):
        raise ShardcastError("simulation failed")

    out = tmp_path / "results.tsv"
    out.write_text("earlier result\n")
    monkeypatch.setattr(cli, "sweep", fail)
    assert main(["sweep", "--config", str(TABLE_CFG), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: simulation failed\n"
    assert out.read_text() == "earlier result\n"
    assert list(tmp_path.iterdir()) == [out]  # no temporary file is left behind


def test_out_replaces_an_earlier_result(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("scheme = 2:3\nnodes = 1\nt_share = 1\ntrials = 1\nseed = 4\n")
    out = tmp_path / "results.tsv"
    out.write_text("earlier result\n" * 100)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("k\tn\tnodes")
    assert sorted(tmp_path.iterdir()) == [out, cfg]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_writes_a_pipe_in_place(tmp_path):
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["encounters", "--input", str(TRACE), "--out", str(fifo)]) == 0
    reader.join(30)
    assert not reader.is_alive()
    assert received == [GOLDEN_ANALYZE.read_text().split("\n\n")[1]]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("argv", [
    ["analyze", "--input", "/", "--k", "2", "--n", "3", "--t", "1"],
    ["sweep", "--config", str(TABLE_CFG), "--trials", "1", "--out", "/"],
])
def test_os_errors_are_one_line(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stdout == ""


# -- analyze / encounters -------------------------------------------------


def test_analyze_matches_golden_report(capsys):
    assert main(["analyze", "--input", str(TRACE), "--k", "5", "--n", "6",
                 "--t", "1", "--gaps", "1,3,30,60"]) == 0
    assert capsys.readouterr().out == GOLDEN_ANALYZE.read_text()


def test_analyze_without_gaps_prints_exposure_only(capsys):
    assert main(["analyze", "--input", str(TRACE),
                 "--k", "5", "--n", "6", "--t", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("t\tk\tn")


def test_analyze_rejects_empty_gaps(capsys):
    # An empty --gaps is a list with no gap in it, not an absent flag.
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--input", str(TRACE), "--k", "5", "--n", "6", "--t", "1",
              "--gaps", ""])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--gaps must not be empty" in captured.err


def test_analyze_device_alignment_runs(capsys):
    assert main(["analyze", "--input", str(TRACE), "--k", "5", "--n", "6",
                 "--t", "1", "--align", "device"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert row[:3] == ["1", "5", "6"]
    assert int(row[3]) > 0


def test_analyze_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["analyze", "--input", str(empty),
                 "--k", "3", "--n", "5", "--t", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_analyze_invalid_scheme(capsys):
    assert main(["analyze", "--input", str(TRACE),
                 "--k", "6", "--n", "5", "--t", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_encounters_defaults_match_golden_section(capsys):
    assert main(["encounters", "--input", str(TRACE)]) == 0
    out = capsys.readouterr().out
    golden_tail = GOLDEN_ANALYZE.read_text().split("\n\n")[1]
    assert out == golden_tail


def test_encounters_rejects_bad_gaps(capsys):
    for gaps in ("a,b", "-1", "3,-2"):
        with pytest.raises(SystemExit) as info:
            main(["encounters", "--input", str(TRACE), "--gaps", gaps])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""
    for argv in (["encounters"], ["analyze", "--k", "5", "--n", "6", "--t", "1"]):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--input", str(TRACE), "--gaps", ","])  # a list with no gap in it
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--gaps must not be empty" in captured.err


def test_analyze_rejects_negative_gaps_before_reading(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--input", str(tmp_path / "missing.csv"), "--k", "5", "--n", "6",
              "--t", "1", "--gaps", "1,-1"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_analyze_rejects_bad_scheme_before_reading(tmp_path, capsys):
    assert main(["analyze", "--input", str(tmp_path / "missing.csv"), "--k", "7", "--n", "6",
                 "--t", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: need 1 <= k <= n, got k=7 n=6\n"
    assert captured.out == ""


def test_bundled_trace_is_reproducible(tmp_path):
    out = tmp_path / "trace.csv"
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "generate_trace.py"), str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == TRACE.read_bytes()


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
