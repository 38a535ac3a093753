//! Experiment harness shared by the `exp_*` binaries: text tables,
//! common workload plumbing, naive reference implementations
//! ([`oracle`]) the library has outgrown, kept for differential tests
//! and bench gates, and [`model::ModelService`], the naive reference
//! model of the session service that every served test suite compares
//! the server's replies against.
//!
//! Each binary regenerates one experiment from `EXPERIMENTS.md`; run them
//! with e.g. `cargo run --release -p bucketrank-bench --bin exp_equivalence`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod model;
pub mod oracle;
pub mod report;
pub mod roofline;
pub mod table;
pub mod timing;

pub use report::BenchReport;
pub use table::Table;
pub use timing::{Measurement, Sampler};

/// Formats a ratio with three decimals, or `-` for an undefined ratio.
pub fn ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "-".to_owned()
    } else {
        format!("{:.3}", num / den)
    }
}

/// Wall-clock helper: runs `f` and returns `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(3.0, 2.0), "1.500");
        assert_eq!(ratio(1.0, 0.0), "-");
    }

    #[test]
    fn timed_returns_value() {
        let (v, secs) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
