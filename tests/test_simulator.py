"""Tests for the broadcast/capture simulator and its sweep driver."""

import io

import pytest

from shardcast import EmptyConfigList, ParseError, SchemeParams
from shardcast.simulator import (
    RESULTS_HEADER,
    SCAN_MODES,
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
    ["idle", "custom:3:1", "custom:0:1", "custom:1", "custom:a:b", ""],
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
    ):
        with pytest.raises(ValueError):
            SimConfig(params=params, **kwargs)


def test_effective_horizon_default_is_one_cycle():
    cfg = SimConfig(params=SchemeParams(3, 5), t_share=5.0)
    assert cfg.effective_horizon == 25.0
    assert SimConfig(params=SchemeParams(3, 5), horizon=7.0).effective_horizon == 7.0


def test_eviction_age_modes():
    cfg = SimConfig(params=SchemeParams(3, 5), t_share=5.0)
    # auto: share expiry (one full cycle) plus one slot of slack
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
        max_tries=0,
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
        max_tries=0,
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
        max_tries=0,
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
        "group_by_mac = yes\n"
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
    assert cfg.group_by_mac is True
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
        ("scheme = 3:5\njust words\n", 2),
        ("scheme = 3:5\neviction = soon\n", 2),
        ("scheme = 3:5\nrecon_mode = sometimes\n", 2),
        ("scheme = 3:5\nscan_mode = custom:5:1\n", 2),
    ],
)
def test_load_config_errors(tmp_path, text, line):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_sim_configs(str(path))
    assert info.value.line == line
