//! Values frozen when the benchmark was added, measured once at that commit
//! on the 2-core box. A change to any of them is a change to the benchmark
//! and re-baselines every trajectory: it belongs in a benchmark PR that
//! claims no gain.

/// Fingerprint of the §6 fixture (schema, visible tuples, mapping text).
pub const FIXTURE_FP: u64 = 0xd3de_4448_fbf0_86a5;

/// Fingerprint of corpus block 0 of each workload, in `workloads::ALL` order.
pub const BLOCK0_FP: [(&str, u64); 6] = [
    ("fig_batch", 0x9358_781e_ecfa_a82c),
    ("deep_cascade", 0x1a82_8637_ca6c_46da),
    ("day_open", 0x8a42_4b53_fc56_7e17),
    ("workers_2", 0x62ed_e1dc_a075_bc70),
    ("durable_crash", 0x2c9f_dea3_5d11_55a5),
    ("sync_heal", 0x65a1_0bbe_8ad1_6125),
];

/// `day_open` arrival rates (updates/s). The engine is metastable under an
/// open loop: with 32 updates in flight it completes about 4 000/s, with one
/// or two in flight several times that, and once a queue forms it does not
/// drain. Runs at 50–110 % of the saturated capacity flipped between the two
/// regimes from one repetition to the next (p99 4 ms or 800 ms on the same
/// seed), so the two lower rates sit well inside the stable regime and the
/// highest is far past capacity, where the run is saturated from its first
/// millisecond.
pub const DAY_OPEN_RATES: [f64; 3] = [500.0, 1_000.0, 20_000.0];

/// Share of `--seconds` each rate's *schedule* lasts. The highest rate is
/// past capacity, so its run lasts as long as the backlog takes to drain.
pub const DAY_OPEN_SCHEDULE_SHARE: [f64; 3] = [0.15, 0.55, 0.03];

/// `day_open` latency limit on p99: five times the p99 measured at the lowest
/// rate. The highest rate that meets it without a backlog is `max_rate_ok`.
pub const DAY_OPEN_P99_LIMIT_MS: f64 = 22.0;

/// `harness.calib_ms` on the box the rates were sized on. A run whose reading
/// is more than 1.5× away warns that the fixed rates no longer sit at
/// 50/80/110 % of this machine's capacity.
pub const CALIB_MS: f64 = 185.0;

/// One reading of the speedometer's probe on that box in a quiet moment, in
/// ms. Reported times are scaled to it (see `sys::Speedometer`).
pub const PROBE_REF_MS: f64 = 1.9;
