//! Metric names and units, failure accounting, host metadata, and the
//! JSON the benchmark prints and writes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every untraced run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("photons_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: every traced run reports all of them, each measured
/// on the workload's own inputs (README.md defines them per workload).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mcrng.next_f64_ns", "ns"),
    ("photon.spin_ns", "ns"),
    ("photon.fresnel_ns", "ns"),
    ("photon.libm_ln_ns", "ns"),
    ("photon.libm_sincos_ns", "ns"),
    ("photon.libm_exp_ns", "ns"),
    ("photon.fast_ln_ns", "ns"),
    ("photon.sincos_unit_ns", "ns"),
    ("photon.fast_exp_ns", "ns"),
    ("tissue.layered_boundary_hit_ns", "ns"),
    ("tissue.voxel_boundary_hit_ns", "ns"),
    ("core.exact_ns_per_photon", "ns"),
    ("core.fast_ns_per_photon.task", "ns"),
    ("core.fast_ns_per_photon.long", "ns"),
    ("core.fast_tail_ratio", "ratio"),
    ("core.fast_vs_exact", "ratio"),
    ("core.tally_merge_us", "us"),
    ("core.fold_s", "s"),
    ("core.tail_idle_s", "s"),
    ("core.task_gap_ms.p50", "ms"),
    ("core.worker_task_share_min", "ratio"),
    ("core.parallel_efficiency", "ratio"),
    ("core.archive_entries", "count"),
    ("core.archive_evals_per_s", "1/s"),
    ("core.archive_evaluate_us", "us"),
    ("cluster.wire_encode_tally_mb_s", "MB/s"),
    ("cluster.wire_decode_tally_mb_s", "MB/s"),
    ("cluster.wire_tally_bytes", "count"),
    ("cluster.wire_encode_scenario_us", "us"),
    ("net.frame_encode_gb_s", "GB/s"),
    ("net.frame_decode_gb_s", "GB/s"),
    ("net.roundtrip_us.small", "us"),
    ("net.roundtrip_us.mb", "us"),
    ("service.scenario_key_us", "us"),
    ("service.inproc_cold_ms", "ms"),
    ("service.inproc_warm_us", "us"),
    ("service.transport_us", "us"),
    ("service.reply_encode_us", "us"),
    ("service.reply_decode_us", "us"),
    ("service.cached_bytes", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
];

/// Operations attempted and failed. A correctness check is an operation
/// too: a failed check counts against the attempted total.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Ledger {
    /// Count `n` operations of which `failed` failed.
    pub fn ops(&mut self, what: &str, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            self.problems.push(format!("{what}: {failed} of {n} failed"));
        }
    }

    /// Count one correctness check; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) -> bool {
        self.ops(&what.into(), 1, u64::from(!ok));
        ok
    }
}

/// Metric values by name; units come from [`END_TO_END`] / [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The metrics of `table`, in order, or the names that are missing or
    /// not finite.
    pub fn select(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let mut out = Vec::with_capacity(table.len());
        let mut bad = Vec::new();
        for &(name, unit) in table {
            match self.values.get(name) {
                Some(v) if v.is_finite() => out.push((name, unit, *v)),
                _ => bad.push(name),
            }
        }
        if bad.is_empty() {
            Ok(out)
        } else {
            Err(format!("metrics missing or not finite: {}", bad.join(", ")))
        }
    }
}

/// Host and build facts stamped on every record.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc: nproc(),
            cpu_model,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// Logical CPUs this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent when the tree is an export rather than a clone).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .filter(|id| !id.is_empty())
}

/// The process's resident-set high-water mark in MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Quote a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of `v`.
pub fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let cells: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("{}: {{\"value\": {v}, \"unit\": {}}}", json_str(n), json_str(u)))
        .collect();
    format!("{{{}}}", cells.join(", "))
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(ledger: &Ledger, metrics: &[(&str, &str, f64)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ledger.failed == 0 && ledger.problems.is_empty(),
        ledger.attempted,
        ledger.failed,
        json_metrics(metrics)
    )
}
