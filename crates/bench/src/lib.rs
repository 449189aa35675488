//! Shared helpers for the `faehim-rs` benchmark harness.
//!
//! Each Criterion bench target regenerates one experiment of the
//! per-experiment index in DESIGN.md (E1–E11). Benches print the
//! paper-shaped rows/series before measuring, so `cargo bench` output
//! doubles as the EXPERIMENTS.md evidence.

use dm_wsrf::soap::SoapValue;
use std::time::Duration;

/// The case-study dataset as ARFF text (cached per process).
pub fn breast_cancer_arff() -> &'static str {
    use std::sync::OnceLock;
    static ARFF: OnceLock<String> = OnceLock::new();
    ARFF.get_or_init(dm_data::corpus::breast_cancer_arff)
}

/// Standard argument vector for J48Service::classify.
pub fn j48_classify_args() -> Vec<(String, SoapValue)> {
    vec![
        (
            "dataset".to_string(),
            SoapValue::Text(breast_cancer_arff().to_string()),
        ),
        ("attribute".to_string(), SoapValue::Text("Class".into())),
        ("options".to_string(), SoapValue::Text(String::new())),
    ]
}

/// Print a banner for an experiment.
pub fn banner(id: &str, what: &str) {
    println!("\n================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// The `q`-quantile of an ascending sample by the nearest-rank method
/// (rank `ceil(q·n)`, clamped to `1..=n`). Panics on an empty sample.
pub fn quantile(sorted: &[Duration], q: f64) -> Duration {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `v` sorted ascending, ready for [`quantile`].
pub fn sorted(mut v: Vec<Duration>) -> Vec<Duration> {
    v.sort_unstable();
    v
}
