//! Metric collection, output checks and the result line.

use sawl_simctl::LifetimeResult;

/// Named metrics in the order they were recorded.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation; a failure carries its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("perfbench: FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// The result line: one JSON object, printed last on standard output.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed() == 0,
        tally.attempted.max(1),
        tally.failed(),
        body.join(", ")
    )
}

/// FNV-1a over the canonical JSON of every result, in order.
pub fn digest<'a>(results: impl IntoIterator<Item = &'a LifetimeResult>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        let json = serde_json::to_string(r).expect("lifetime results serialize");
        for b in json.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// The digest committed for `workload` at the default seed.
pub fn committed_digest(workload: &str) -> Option<String> {
    const DIGESTS: &str = include_str!("../digests.txt");
    DIGESTS.lines().find_map(|line| {
        let (name, hex) = line.split_once(' ')?;
        (name == workload).then(|| hex.trim().to_string())
    })
}

/// Median of `xs` (mean of the middle pair for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `xs` (`p` in 0..=1).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Process peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
