"""Tests for the broadcast/capture simulator and its sweep driver."""

import dataclasses
import hashlib
import io
import itertools
import math
from collections import Counter

import pytest

from shardcast import EmptyConfigList, InvalidConfig, InvalidParams, ParseError, SchemeParams
from shardcast import cli
from shardcast.reconstructor import Reconstructor
from shardcast.simulator import (
    RESULTS_HEADER,
    SCAN_MODES,
    SETTINGS,
    SimConfig,
    SweepRow,
    load_sim_configs,
    run_simulation,
    run_trials,
    scan_window_params,
    sweep,
    write_results,
)


def sweep_cfg(k, n, m, seed, trials=1):
    """One-generation lossless regime: every device contributes exactly
    one complete share cycle, so attempt counts isolate pool mixing."""
    return SimConfig(
        params=SchemeParams(k, n),
        m_devices=m,
        t_share=1.0,
        adv_interval=1.0,
        seed=seed,
        trials=trials,
    )


# -- scan modes -----------------------------------------------------------


def test_scan_window_params_named():
    assert scan_window_params("continuous") == (1.0, 1.0)
    assert scan_window_params("balanced") == (2.0, 3.0)
    assert scan_window_params("low_power") == (0.5, 5.0)
    assert set(SCAN_MODES) == {"continuous", "balanced", "low_power"}


def test_scan_window_params_custom():
    assert scan_window_params("custom:0.25:2.5") == (0.25, 2.5)
    # window == interval is a continuous scanner
    assert scan_window_params("custom:1:1") == (1.0, 1.0)


@pytest.mark.parametrize(
    "mode",
    ["idle", "custom:3:1", "custom:0:1", "custom:1", "custom:a:b", "", "custom:0.0001:1",
     "custom:1e308:1e308", "custom:1:1e308"],  # no finite tick count
)
def test_scan_window_params_rejects(mode):
    with pytest.raises(ValueError):
        scan_window_params(mode)


# -- configuration --------------------------------------------------------


def test_config_validation():
    params = SchemeParams(3, 5)
    for kwargs in (
        {"m_devices": 0},
        {"scanners": 0},
        {"trials": 0},
        {"loss_rate": 1.0},
        {"loss_rate": -0.1},
        {"recon_mode": "batchy"},
        {"horizon": 0.0},
        {"horizon": -5.0},
        {"scan_mode": "sometimes"},
        {"horizon": math.inf},
        {"t_share": math.inf},
        {"eviction": -5},
        {"max_tries": 0},
        {"adv_interval": 0.001},
        {"scan_mode": "custom:1:inf"},
    ):
        with pytest.raises(ValueError):
            SimConfig(params=params, **kwargs)


@pytest.mark.parametrize("max_tries", [2.5, math.inf, "3"])
def test_max_tries_must_be_an_integer(max_tries):
    # A run stops when its tries equal the budget, so a budget that no try
    # count equals would never stop an arrival-mode run.
    with pytest.raises(InvalidConfig) as info:
        SimConfig(SchemeParams(3, 5), m_devices=3, recon_mode="arrival", max_tries=max_tries)
    assert info.value.fields == ("max_tries",)


@pytest.mark.parametrize(
    "name, value", [("m_devices", 2.5), ("m_devices", "3"), ("scanners", 1.5), ("trials", 2.5)]
)
def test_counts_must_be_integers(name, value):
    # A count is a number of devices, scanners or runs: a float would reach
    # range() in run_trials, and a string the comparison with 1.
    with pytest.raises(InvalidConfig) as info:
        SimConfig(SchemeParams(3, 5), **{name: value})
    assert info.value.fields == (name,)


@pytest.mark.parametrize("name, value", [
    ("loss_rate", "0.1"), ("horizon", "5"), ("t_share", "5"), ("adv_interval", None),
    ("eviction", None), ("scan_mode", 3), ("params", (3, 5)), ("seed", "x"),
])
def test_settings_of_the_wrong_type_are_invalid(name, value):
    # Each used to leak a bare TypeError or AttributeError, at construction
    # or (seed) later in run_trials.
    settings = {"params": SchemeParams(3, 5), name: value}
    with pytest.raises(InvalidConfig) as info:
        SimConfig(**settings)
    assert info.value.fields == (name,)


def test_seed_must_not_be_negative():
    # Random(-s) draws what Random(s) draws, and trial i runs at seed + i, so
    # trials -2..2 would run seeds 2 and 1 twice each.
    with pytest.raises(InvalidConfig) as info:
        SimConfig(SchemeParams(3, 5), seed=-1)
    assert info.value.fields == ("seed",)


def test_default_horizon_is_one_cycle():
    cfg = SimConfig(params=SchemeParams(3, 5), t_share=5.0)
    assert cfg.ticks() == (40000, 1600, 1600)  # 25 s, continuous 1 s / 1 s
    assert SimConfig(params=SchemeParams(3, 5), horizon=7.0).ticks()[0] == 11200
    assert SimConfig(SchemeParams(3, 5), scan_mode="balanced").ticks()[1:] == (3200, 4800)


def test_eviction_age_modes():
    cfg = SimConfig(params=SchemeParams(3, 5), t_share=5.0)
    # auto: one full cycle plus one slot of slack
    assert cfg.eviction_age() == 30.0
    assert SimConfig(params=SchemeParams(3, 5), eviction="off").eviction_age() is None
    assert SimConfig(params=SchemeParams(3, 5), eviction=12.5).eviction_age() == 12.5


# -- single runs ----------------------------------------------------------


def test_single_device_recovers_in_one_try():
    row, results = run_trials(sweep_cfg(3, 5, 1, 0, trials=20))
    assert row.mean_ntries == 1.0
    assert all(r.recoveries == 1 and r.total_tries == 1 for r in results)
    assert all(r.undetected == 0 and r.spurious == 0 for r in results)


def test_lossless_continuous_resolves_every_device():
    row, results = run_trials(sweep_cfg(3, 5, 5, 2, trials=30))
    assert row.undetected == 0
    assert sum(r.spurious for r in results) == 0
    assert all(r.resolved_devices == set(range(5)) for r in results)


def test_short_horizon_blocks_resolution():
    # Fewer than k distinct slots fit before the horizon, so no observer
    # can assemble a quorum.
    cfg = SimConfig(
        params=SchemeParams(3, 5), m_devices=4, t_share=5.0, horizon=9.0, seed=1
    )
    result = run_simulation(cfg)
    assert result.recoveries == 0
    assert result.undetected == 4
    assert result.latencies == []


def test_arrival_latency_floor():
    # A continuous lossless observer hears a device from its very first
    # beacon; the k-th distinct slot begins exactly (k-1)*t_share later.
    for seed in range(50):
        cfg = SimConfig(
            params=SchemeParams(3, 5),
            m_devices=1,
            t_share=5.0,
            adv_interval=1.0,
            recon_mode="arrival",
            seed=seed,
        )
        result = run_simulation(cfg)
        assert result.latencies == [pytest.approx(10.0)]


def test_determinism():
    cfg = sweep_cfg(3, 5, 4, 99)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert a.total_tries == b.total_tries
    assert a.recoveries == b.recoveries
    assert a.latencies == b.latencies
    assert a.identifiers == b.identifiers
    row_a, _ = run_trials(sweep_cfg(3, 5, 3, 7, trials=10))
    row_b, _ = run_trials(sweep_cfg(3, 5, 3, 7, trials=10))
    assert row_a == row_b


# At 0.1 s advertising every share is heard several times per slot, so these
# runs take the duplicate-reception path; at (2, 3) with 1 s slots a 0.5 s
# eviction drops a share mid-slot and its next beacon re-admits it. Recorded
# before duplicate receptions were made O(1).
DUPLICATE_PATH_DIGESTS = {
    (2, 3, 1.0, 15.0): "d6ae39e4c66c2babe1fae9623d66ab844d424b0e8060cf049437626b79d97d02",
    (3, 5, 0.2, 10.0): "d9c2a55b2c218140f1b58bfc976d54206957b8170b909acde6c43d1f5438c5dd",
}


@pytest.mark.parametrize("k, n, t_share, horizon", list(DUPLICATE_PATH_DIGESTS))
def test_duplicate_receptions_leave_outputs_unchanged(k, n, t_share, horizon):
    digest = hashlib.sha256()
    duplicates = 0
    for recon_mode, loss, eviction, scan in itertools.product(
        ("cycle", "arrival"), (0.0, 0.4), ("auto", "off", 0.5), ("continuous", "balanced"),
    ):
        result = run_simulation(SimConfig(
            SchemeParams(k, n), m_devices=2, scanners=2, t_share=t_share, adv_interval=0.1,
            loss_rate=loss, scan_mode=scan, horizon=horizon, seed=1, recon_mode=recon_mode,
            eviction=eviction,
        ))
        assert result.spurious == 0
        duplicates += sum(result.received) - sum(result.slots_received)
        digest.update(repr((result.recoveries, result.total_tries, result.latencies,
                            result.received, result.slots_received, result.reports)).encode())
    assert duplicates > 0
    assert digest.hexdigest() == DUPLICATE_PATH_DIGESTS[k, n, t_share, horizon]


# sha256 over every SimResult field but config, for 120 runs of 3 devices and
# 3 scanners at 0.1 s advertising in 0.5 s slots: repeats of a held share;
# no eviction, or evictions after a whole cycle and a slot (auto), within a
# slot (0.25 s, so a share is re-admitted mid-slot) or before the next beacon
# (0 and 0.05 s); and scan windows that hear some devices' beacons only
# every other time (custom:0.05:0.2). First recorded before the simulator
# handled slot runs instead of single beacons; re-recorded over the same
# runs by the code that still had SimResult's per-trial mean and median,
# leaving those two fields out.
SIMULATOR_DIFFERENTIAL_DIGEST = "6f9163715e02db931ec29c853ef910cb1f5adfa379297b33b0ebe1ba1c3b9d13"


def test_simulator_outputs_are_pinned():
    digest = hashlib.sha256()
    repeats = 0
    for recon_mode, loss, eviction, scan in itertools.product(
        ("cycle", "arrival"), (0.0, 0.3), ("auto", "off", 0, 0.05, 0.25),
        ("continuous", "balanced", "custom:0.05:0.2"),
    ):
        result = run_simulation(SimConfig(
            SchemeParams(3, 4), m_devices=3, scanners=3, t_share=0.5, adv_interval=0.1,
            loss_rate=loss, scan_mode=scan, horizon=9.0, seed=5, recon_mode=recon_mode,
            eviction=eviction,
        ))
        repeats += sum(result.received) - sum(result.slots_received)
        fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
        del fields["config"]
        fields["resolved_devices"] = sorted(fields["resolved_devices"])
        digest.update(repr(sorted(fields.items())).encode())
    assert repeats > 0
    assert digest.hexdigest() == SIMULATOR_DIFFERENTIAL_DIGEST


def test_field_run_with_a_checksum_false_accept_is_pinned():
    # The 32-bit checksum passes a mixed-device candidate at about 2^-32 per
    # try, and this lossy (3,5) field run meets one: a scanner recovers a
    # value that is neither device's identifier. A candidate test that is not
    # exactly interpolate-then-verify would miss it or find others.
    result = run_simulation(SimConfig(
        SchemeParams(3, 5), m_devices=2, scanners=4, t_share=5.0, adv_interval=0.1,
        loss_rate=0.3, scan_mode="balanced", horizon=300.0, seed=9206925, recon_mode="cycle",
    ))
    assert result.spurious == 1
    assert result.recoveries == 97
    assert result.total_tries == 579


def test_cycle_sweep_sees_only_earlier_receptions(monkeypatch):
    # With one beacon per 20 ms slot, two of these 128 devices start at phase
    # 0, so some emissions fall exactly on a cycle boundary. The sweep at a
    # boundary runs before the receptions of that tick.
    late = []
    run = Reconstructor.run

    def checked_run(recon, now, budget=None):
        late.extend(e for e in recon.pool_entries() if e.received_at >= now)
        return run(recon, now, budget)

    monkeypatch.setattr(Reconstructor, "run", checked_run)
    for seed in range(64):
        run_simulation(SimConfig(SchemeParams(2, 3), m_devices=2, t_share=0.02,
                                 adv_interval=0.02, horizon=0.5, seed=seed))
    assert late == []


def test_cycle_runs_start_only_on_a_pool_that_holds_k_shares_of_one_source(monkeypatch):
    # A cycle-mode run starts only when some (device, generation) holds k
    # shares in the pool. A device airs one address per generation, and the
    # pool holds one entry per key, so the pool's addresses count sources.
    starts = []
    run = Reconstructor.run

    def checked_run(recon, now, budget=None):
        counts = Counter(entry.mac_token for entry in recon.pool_entries())
        starts.append(max(counts.values(), default=0) >= recon.params.k)
        return run(recon, now, budget)

    monkeypatch.setattr(Reconstructor, "run", checked_run)
    for loss, eviction, mode, seed in itertools.product(
        (0.0, 0.3), ("auto", "off", 0.25), ("continuous", "balanced"), range(3)
    ):
        run_simulation(SimConfig(SchemeParams(3, 4), m_devices=3, scanners=2, t_share=0.5,
                                 adv_interval=0.1, loss_rate=loss, scan_mode=mode,
                                 horizon=9.0, seed=seed, eviction=eviction))
    assert len(starts) > 100 and all(starts)


# -- attempt-count statistics --------------------------------------------


def test_quick_row_matches_published_mean():
    row, _ = run_trials(sweep_cfg(3, 5, 3, 7, trials=60))
    assert row.mean_ntries == pytest.approx(7.0, rel=0.25)


def test_quick_row_exact_line_regression():
    row, _ = run_trials(sweep_cfg(3, 5, 3, 7, trials=60))
    assert row.to_line() == "3\t5\t3\t0\tcontinuous\t7.139\t4.567\t0"


def test_dense_row_matches_published_mean():
    row, results = run_trials(sweep_cfg(4, 5, 8, 13, trials=120))
    assert row.mean_ntries == pytest.approx(205.0, rel=0.25)
    assert sum(r.spurious for r in results) == 0


def test_mean_tries_monotone_in_device_count():
    means = []
    for m in (1, 3, 5, 8):
        row, _ = run_trials(sweep_cfg(3, 5, m, 11, trials=40))
        means.append(row.mean_ntries)
    assert means[0] == 1.0
    assert means == sorted(means)
    assert means[-1] > 10 * means[1] / 3  # growth is super-linear in m


# -- channel effects ------------------------------------------------------


def test_loss_rate_thins_receptions():
    cfg = SimConfig(
        params=SchemeParams(3, 5),
        m_devices=80,
        t_share=5.0,
        adv_interval=1.0,
        loss_rate=0.6,
        horizon=625.0,
        seed=5,
        max_tries=1,  # the search barely runs; receptions do not depend on it
    )
    result = run_simulation(cfg)
    assert result.slot_instances == 10_000
    # Per-beacon survival is 1 - loss; a slot survives if any of its
    # t_share/adv_interval = 5 repeats gets through.
    assert sum(result.received) / result.emitted == pytest.approx(0.4, rel=0.02)
    assert sum(result.slots_received) / result.slot_instances == pytest.approx(
        1 - 0.6**5, rel=0.02
    )


def test_low_power_duty_cycle():
    cfg = SimConfig(
        params=SchemeParams(3, 5),
        m_devices=200,
        t_share=5.0,
        adv_interval=0.5,
        scan_mode="low_power",
        horizon=500.0,
        seed=3,
        max_tries=1,  # the search barely runs; receptions do not depend on it
    )
    result = run_simulation(cfg)
    assert result.emitted >= 100_000
    assert sum(result.received) / result.emitted == pytest.approx(0.1, rel=0.02)


def test_balanced_duty_cycle():
    cfg = SimConfig(
        params=SchemeParams(3, 5),
        m_devices=60,
        t_share=5.0,
        adv_interval=0.5,
        scan_mode="balanced",
        horizon=100.0,
        seed=3,
        max_tries=1,  # the search barely runs; receptions do not depend on it
    )
    result = run_simulation(cfg)
    assert sum(result.received) / result.emitted == pytest.approx(2 / 3, rel=0.02)


# -- pooling and sweep ----------------------------------------------------


def test_run_trials_pools_counts():
    cfg = sweep_cfg(3, 5, 3, 21, trials=3)
    row, results = run_trials(cfg)
    assert len(results) == 3
    tries = sum(r.total_tries for r in results)
    recoveries = sum(r.recoveries for r in results)
    assert row.mean_ntries == tries / recoveries
    assert row.undetected == sum(r.undetected for r in results)
    # trial i runs at seed + i
    assert [r.config.seed for r in results] == [21, 22, 23]


def test_sweep_empty_raises():
    with pytest.raises(EmptyConfigList):
        sweep([])


def test_sweep_rows_deterministic():
    cfgs = [sweep_cfg(3, 5, 2, 4, trials=5), sweep_cfg(2, 4, 3, 4, trials=5)]
    assert sweep(cfgs) == sweep(cfgs)


def test_write_results_format():
    rows = [
        SweepRow(3, 5, 2, 0.1, "balanced", 6.25, 4.5, 1),
        SweepRow(4, 6, 1, 0.0, "continuous", 1.0, 15.0, 0),
    ]
    out = io.StringIO()
    write_results(rows, out)
    lines = out.getvalue().splitlines()
    assert lines[0] == RESULTS_HEADER
    assert lines[0].split("\t") == [
        "k", "n", "nodes", "loss_rate", "scan_mode",
        "mean_ntries", "p50_latency_s", "undetected",
    ]
    assert lines[1] == "3\t5\t2\t0.1\tbalanced\t6.250\t4.500\t1"
    assert lines[2] == "4\t6\t1\t0\tcontinuous\t1.000\t15.000\t0"


# -- config files ---------------------------------------------------------


def test_load_bundled_table_config():
    from pathlib import Path

    bundled = Path(__file__).resolve().parent.parent / "configs" / "table_repro.cfg"
    configs = load_sim_configs(str(bundled))
    assert len(configs) == 72
    assert (configs[0].params.k, configs[0].params.n, configs[0].m_devices) == (2, 5, 1)
    assert (configs[-1].params.k, configs[-1].params.n, configs[-1].m_devices) == (6, 7, 8)
    assert all(c.t_share == 1.0 and c.adv_interval == 1.0 for c in configs)
    assert all(c.trials == 10 and c.seed == 1 for c in configs)
    assert all(c.recon_mode == "cycle" and c.scan_mode == "continuous" for c in configs)
    assert all(c.loss_rate == 0.0 for c in configs)


def test_load_config_grid_and_scalars(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(
        "# capture study\n"
        "scheme = 4:6, 3:5\n"
        "nodes = 2, 4\n"
        "scanners = 2\n"
        "t_share = 2.5\n"
        "adv_interval = 0.5\n"
        "loss_rate = 0.1\n"
        "scan_mode = balanced\n"
        "horizon = 30\n"
        "seed = 9\n"
        "trials = 3\n"
        "recon_mode = arrival\n"
        "max_tries = 500\n"
        "eviction = 12\n"
    )
    configs = load_sim_configs(str(path))
    assert [(c.params.k, c.params.n, c.m_devices) for c in configs] == [
        (4, 6, 2), (4, 6, 4), (3, 5, 2), (3, 5, 4)
    ]
    cfg = configs[0]
    assert cfg.scanners == 2
    assert cfg.t_share == 2.5
    assert cfg.adv_interval == 0.5
    assert cfg.loss_rate == 0.1
    assert cfg.scan_mode == "balanced"
    assert cfg.horizon == 30.0
    assert cfg.seed == 9
    assert cfg.trials == 3
    assert cfg.recon_mode == "arrival"
    assert cfg.max_tries == 500
    assert cfg.eviction == 12.0


def test_load_config_single_scheme_keys(tmp_path):
    path = tmp_path / "single.cfg"
    path.write_text("k = 3\nn = 5\n")
    configs = load_sim_configs(str(path))
    assert len(configs) == 1
    assert configs[0].params == SchemeParams(3, 5)
    assert configs[0].m_devices == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("scheme = 3:5\nwidgets = 4\n", 2),
        ("scheme = 3;5\n", 1),
        ("scheme = 3:x\n", 1),
        ("t_share = 1\n", 1),  # no scheme and no k/n
        ("scheme = 3:5\nnodes = 1,two\n", 2),
        ("scheme = 3:5\ngroup_by_mac = maybe\n", 2),
        ("scheme = 3:5\nloss_rate = abc\nloss_rate = 0.1\n", 2),  # a later line does not mend it
        ("scheme = 3:5\njust words\n", 2),
        ("scheme = 3:5\neviction = soon\n", 2),
        ("scheme = 3:5\nrecon_mode = sometimes\n", 2),
        ("scheme = 3:5\nscan_mode = custom:5:1\n", 2),
        ("scheme = 3:5\nnodes = 0\n", 2),
        ("scheme = 3:5\nloss_rate = 1.5\n", 2),
        ("scheme = 3:5\nadv_interval = 0.001\n", 2),
        ("scheme = 3:5\nadv_interval = inf\n", 2),
        ("scheme = 3:5\nhorizon = inf\n", 2),
        ("scheme = 3:5\nmax_tries = 0\n", 2),
        ("scheme = 3:5\nmax_tries = -4\n", 2),
        ("scheme = 6:5\n", 1),
        ("k = 6\nn = 5\n", 2),
        ("scheme = 3:5\nk = 4\nn = 6\n", 3),  # the scheme named both ways
        ("k = 4\nscheme = 3:5\nseed = 2\n", 2),
        ("scheme = 3:5\nseed = -1\ntrials = 5\n", 2),
        ("scheme = 3:5\neviction = -5\n", 2),
        ("scheme = 3:5\neviction = nan\n", 2),
        ("scheme = 3:5\nscan_mode = custom:1:inf\n", 2),
        ("scheme = 3:5\nscan_mode = custom:0.0001:1\n", 2),  # window under one tick
        ("scheme = 3:5\nt_share = nan\n", 2),
        ("scheme = 3:5\nt_share = 0.5\n", 2),  # longer than the default adv_interval
        ("scheme = 3:5\nt_share = 1.0003\n", 2),  # off the 625 us tick grid
        ("scheme = 3:5\nadv_interval = 2\nt_share = 1\n", 2),
        # No finite tick count: the horizon, the scan interval, or a cycle of 5 slots.
        ("scheme = 3:5\nhorizon = 1e308\n", 2),
        ("scheme = 3:5\nscan_mode = custom:1e308:1e308\n", 2),
        ("scheme = 3:5\nt_share = 1e305\n", 2),
    ],
)
def test_load_config_errors(tmp_path, text, line):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_sim_configs(str(path))
    assert info.value.line == line


def test_load_config_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes("# é\nscheme = 3:5\nnodes = ".encode() + b"\xff\n")
    with pytest.raises(ParseError) as info:
        load_sim_configs(str(path))
    assert info.value.line == 3
    assert str(info.value).endswith("not UTF-8 text")


def test_load_config_reports_the_first_bad_line(tmp_path):
    # A line that fails on its own (no '=', an unknown key, a value that does
    # not convert) and a byte that is not UTF-8: the earlier line's error is
    # raised, though the read decodes both at once.
    path = tmp_path / "bad.cfg"
    for first, second, message in ((b"nodes 2\n", b"seed = 1\xff\n", "expected key=value"),
                                   (b"seed = 1\xff\n", b"nodes 2\n", "not UTF-8 text"),
                                   (b"widgets = 1\n", b"seed = 1\xff\n", "unknown config key"),
                                   (b"seed = x\n", b"seed = 1\xff\n", "bad value for seed")):
        path.write_bytes(b"scheme = 3:5\n" + first + b"# note\n" + second)
        with pytest.raises(ParseError) as info:
            load_sim_configs(str(path))
        assert info.value.line == 2
        assert message in str(info.value)


# One out-of-range value per config key. Every SimConfig field is a key of
# the same name except params (scheme, or k and n) and m_devices (nodes).
# seed has no range, so its value fails text conversion.
BAD_VALUES = {
    "scheme": "6:5",
    "nodes": "0",
    "scanners": "0",
    "t_share": "0",
    "adv_interval": "0.001",
    "loss_rate": "-0.1",
    "scan_mode": "custom:2:1",
    "horizon": "nan",
    "seed": "1.5",
    "trials": "0",
    "recon_mode": "batchy",
    "max_tries": "-1",
    "eviction": "inf",
}


def test_simconfig_owns_every_default_and_rule(tmp_path, monkeypatch):
    # Settings left out of a file or off the command line take SimConfig's
    # own defaults.
    path = tmp_path / "scheme.cfg"
    path.write_text("scheme = 3:5\n")
    assert load_sim_configs(str(path)) == [SimConfig(SchemeParams(3, 5))]
    built = []
    monkeypatch.setattr(cli, "sweep", lambda configs: built.extend(configs) or [])
    assert cli.main(["simulate", "--k", "3", "--n", "5", "--seed", "4"]) == 0
    assert built == [SimConfig(SchemeParams(3, 5), seed=4)]

    # Each key's range rule is the class's: the loader reports the class's
    # error at the line that set the value.
    fields = {f.name for f in dataclasses.fields(SimConfig)} - {"params", "m_devices"}
    assert set(BAD_VALUES) == fields | {"scheme", "nodes"}
    for key, bad in BAD_VALUES.items():
        scheme = "" if key == "scheme" else "scheme = 3:5"
        path.write_text(f"# the bad value is on line 3\n{scheme}\n{key} = {bad}\n")
        with pytest.raises(ParseError) as info:
            load_sim_configs(str(path))
        assert info.value.line == 3, key
        if key != "seed":
            assert isinstance(info.value.__cause__, (InvalidConfig, InvalidParams)), key


# A value other than the default for every config key but scheme, which
# simulate takes as --k and --n.
GOOD_VALUES = {
    "k": "2",
    "n": "6",
    "nodes": "3",
    "scanners": "2",
    "t_share": "2.5",
    "adv_interval": "0.5",
    "loss_rate": "0.25",
    "scan_mode": "balanced",
    "horizon": "30",
    "seed": "9",
    "trials": "3",
    "recon_mode": "arrival",
    "max_tries": "500",
    "eviction": "off",
}


def test_every_config_key_is_a_simulate_flag(tmp_path, monkeypatch, capsys):
    assert list(GOOD_VALUES) == [key for key in SETTINGS if key != "scheme"]
    built = []
    monkeypatch.setattr(cli, "sweep", lambda configs: built.extend(configs) or [])

    def config_file(key, text):
        path = tmp_path / "one.cfg"
        path.write_text(f"k = 3\nn = 5\nseed = 4\n{key} = {text}\n")
        return str(path)

    def simulate(key, text):
        return cli.main(["simulate", "--k", "3", "--n", "5", "--seed", "4",
                         "--" + key.replace("_", "-"), text])

    default = SimConfig(SchemeParams(3, 5), seed=4)
    for key, text in GOOD_VALUES.items():
        assert cli.main(["sweep", "--config", config_file(key, text)]) == 0
        config = built.pop()
        assert config != default, key
        assert simulate(key, text) == 0
        assert built.pop() == config, key

    # Text the key's converter cannot read: the loader's message both ways,
    # a ParseError from the file and a usage error from the flag.
    capsys.readouterr()
    for key in GOOD_VALUES.keys() - {"scan_mode", "recon_mode"}:
        message = f"bad value for {key}: 'x'"
        with pytest.raises(ParseError, match=f"^line 4: {message}$"):
            load_sim_configs(config_file(key, "x"))
        with pytest.raises(SystemExit) as info:
            simulate(key, "x")
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f": {message}\n"), key
    # Any text converts for scan_mode and recon_mode: SimConfig rejects it,
    # with one message both ways, and the command exits 1.
    for key in ("scan_mode", "recon_mode"):
        with pytest.raises(ParseError) as info:
            load_sim_configs(config_file(key, "x"))
        assert simulate(key, "x") == 1
        assert capsys.readouterr().err == f"error: {info.value.__cause__}\n", key
        assert str(info.value) == f"line 4: {info.value.__cause__}", key
