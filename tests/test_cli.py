"""End-to-end tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from shardcast.cli import main
from shardcast.identity import identifier_verify

REPO = Path(__file__).resolve().parent.parent
TRACE = REPO / "data" / "synthetic_trace.csv"
TABLE_CFG = REPO / "configs" / "table_repro.cfg"
GOLDEN_ANALYZE = Path(__file__).resolve().parent / "fixtures" / "golden_analyze_5_6_1.txt"

SECRET = "00112233445566778899aabbccddeeff"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "shardcast", *argv],
        capture_output=True,
        text=True,
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


def test_recover_reports_malformed_line(tmp_path, capsys):
    share_file = tmp_path / "shares.txt"
    share_file.write_text("1:00112233445566778899aabbccddeeff\nnot-a-share\n")
    assert main(["recover", "--input", str(share_file)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_split_recover_pipe_with_check():
    pipeline = (
        f"{sys.executable} -m shardcast split --k 3 --n 5 --random --seed 7"
        f" | head -3 | {sys.executable} -m shardcast recover --check"
    )
    proc = subprocess.run(
        ["sh", "-c", pipeline], capture_output=True, text=True
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
    proc = subprocess.run(
        [sys.executable, "-m", "shardcast", "decode"],
        input="1801beac01000102030405060708090a0b0c0d0e0f000000c500\n",
        capture_output=True,
        text=True,
    )
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
     ["--scan-mode", "custom:1:inf"]],
)
def test_simulate_rejects_non_finite_values(flags, capsys):
    assert main(["simulate", "--k", "3", "--n", "5", "--seed", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_simulate_requires_scheme_or_config(capsys):
    with pytest.raises(SystemExit) as info:
        main(["simulate"])
    assert info.value.code == 2


def test_simulate_bundled_config(capsys):
    argv = ["simulate", "--config", str(TABLE_CFG), "--trials", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 73  # header + one row per configuration
    assert lines[1].startswith("2\t5\t1\t")
    assert lines[72].startswith("6\t7\t8\t")
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_simulate_missing_config_file(capsys):
    assert main(["simulate", "--config", "/no/such/file.cfg"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_simulate_bad_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = 3:5\nwidgets = 4\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_config_rejects_scenario_flags(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("scheme = 3:5\nnodes = 2\n")
    for flags, named in (
        (["--nodes", "7", "--loss-rate", "0.5"], "--nodes, --loss-rate"),
        (["--k", "2"], "--k"),
        (["--scanners", "2", "--t-share", "2", "--adv-interval", "1", "--scan-mode",
          "balanced", "--horizon", "9", "--recon-mode", "arrival", "--n", "4"],
         "--n, --scanners, --t-share, --adv-interval, --scan-mode, --horizon, --recon-mode"),
    ):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--config", str(cfg), *flags])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err
    # --seed, --trials and --out still override a config file.
    out_path = tmp_path / "results.tsv"
    argv = ["simulate", "--config", str(cfg), "--seed", "3", "--trials", "2",
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


def test_analyze_rejects_negative_gaps_before_reading(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--input", str(tmp_path / "missing.csv"), "--k", "5", "--n", "6",
              "--t", "1", "--gaps", "1,-1"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
