//! A small measurement loop for the `bench_*` binaries — the in-repo
//! replacement for criterion, keeping the workspace dependency-free.
//!
//! Method: warm up, calibrate an iteration count so one sample takes
//! roughly [`Sampler::sample_time`], then collect [`Sampler::samples`]
//! samples and report min / median / mean per-iteration time. Min is
//! the headline number (least noise on a shared machine); the
//! median–mean spread flags interference.
//!
//! Set `BUCKETRANK_BENCH_FAST=1` to run a smoke-test-speed pass (one
//! short sample per case) — used to keep the bench binaries testable.

use std::time::{Duration, Instant};

/// One benchmark's aggregated timings, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark id, e.g. `pair_counts/fast/1024`.
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1}ns")
    } else if ns < 1e6 {
        format!("{:.2}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2}ms", ns / 1e6)
    } else {
        format!("{:.3}s", ns / 1e9)
    }
}

impl Measurement {
    /// One aligned report line.
    pub fn line(&self) -> String {
        format!(
            "{:<44} min {:>10}   median {:>10}   mean {:>10}   ({} iters/sample)",
            self.name,
            fmt_ns(self.min_ns),
            fmt_ns(self.median_ns),
            fmt_ns(self.mean_ns),
            self.iters,
        )
    }

    /// One JSON object (hand-rolled: the workspace has no serde), for
    /// the `BENCH_*.json` trajectory files. Bench names are plain
    /// `[a-z0-9_/]` identifiers, so no string escaping is needed.
    pub fn json(&self) -> String {
        debug_assert!(
            self.name.chars().all(|c| c != '"' && c != '\\'),
            "bench names must not need JSON escaping"
        );
        format!(
            "{{\"name\":\"{}\",\"iters\":{},\"min_ns\":{:.1},\"median_ns\":{:.1},\"mean_ns\":{:.1}}}",
            self.name, self.iters, self.min_ns, self.median_ns, self.mean_ns
        )
    }
}

/// Benchmark configuration: warmup budget, per-sample time target, and
/// sample count.
#[derive(Debug, Clone)]
pub struct Sampler {
    /// Time spent running the closure before measuring.
    pub warmup: Duration,
    /// Target wall time per sample (calibrates the iteration count).
    pub sample_time: Duration,
    /// Number of samples collected.
    pub samples: usize,
}

impl Default for Sampler {
    fn default() -> Self {
        if std::env::var_os("BUCKETRANK_BENCH_FAST").is_some() {
            Sampler {
                warmup: Duration::from_millis(1),
                sample_time: Duration::from_millis(1),
                samples: 2,
            }
        } else {
            Sampler {
                warmup: Duration::from_millis(40),
                sample_time: Duration::from_millis(25),
                samples: 11,
            }
        }
    }
}

impl Sampler {
    /// Measure `f`, print the report line, and return the measurement.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) -> Measurement {
        // Warm up (also seeds caches/allocator) while estimating cost
        // with doubling batches, so sub-microsecond closures are not
        // swamped by timer overhead.
        let mut batch: u64 = 1;
        let per_iter_estimate;
        let warmup_start = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let took = t.elapsed();
            if took >= Duration::from_millis(1) || warmup_start.elapsed() >= self.warmup {
                per_iter_estimate = took.as_secs_f64() / batch as f64;
                break;
            }
            batch = batch.saturating_mul(2);
        }
        while warmup_start.elapsed() < self.warmup {
            std::hint::black_box(f());
        }

        let iters = ((self.sample_time.as_secs_f64() / per_iter_estimate.max(1e-9)).ceil()
            as u64)
            .max(1);
        let mut per_iter_ns: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));

        let m = Measurement {
            name: name.to_string(),
            iters,
            min_ns: per_iter_ns[0],
            median_ns: per_iter_ns[per_iter_ns.len() / 2],
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
        };
        println!("{}", m.line());
        m
    }
}

/// The result of an [`ab`] comparison: over the rounds, the median
/// ratio of the baseline's cost to the candidate's (above 1 when the
/// candidate is cheaper) and the ratio's quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbRatio {
    /// Rounds run.
    pub rounds: usize,
    /// Median round ratio.
    pub median: f64,
    /// Lower quartile of the round ratios.
    pub q1: f64,
    /// Upper quartile of the round ratios.
    pub q3: f64,
}

impl AbRatio {
    /// One JSON object for a gate's row in a `BENCH_*.json` file: the
    /// gate's name and bound, the median ratio and its quartiles.
    pub fn json(&self, name: &str, bound: f64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"bound\":{bound},\"ratio\":{:.3},\"q1\":{:.3},\"q3\":{:.3},\"rounds\":{}}}",
            self.median, self.q1, self.q3, self.rounds
        )
    }
}

/// The shared A/B method of the bench gates. Each of `rounds` rounds
/// runs `baseline` and `candidate` back to back, alternating which goes
/// first, and records `baseline() / candidate()`; each closure returns
/// its own cost (seconds per call, per request, …), so the caller picks
/// what is timed. The machine's speed drifts within a run, but both
/// sides of a round see nearly the same machine, so the drift mostly
/// cancels in the round's ratio; the median over rounds drops the
/// rounds a burst of interference split.
///
/// # Panics
/// If `rounds` is zero or a cost is not a positive finite number.
pub fn ab(baseline: impl FnMut() -> f64, candidate: impl FnMut() -> f64, rounds: usize) -> AbRatio {
    assert!(rounds > 0, "an A/B comparison needs at least one round");
    let mut gate = AbRounds::default();
    gate.run(baseline, candidate, rounds);
    gate.ratio()
}

/// An [`ab`] comparison taken in blocks of rounds at several points of
/// a run. A slow phase of the machine that outlasts one block's few
/// milliseconds but not the run then moves that block's rounds, not
/// the median over all of them. Which side goes first alternates over
/// the rounds of every block in turn.
#[derive(Debug, Clone, Default)]
pub struct AbRounds {
    ratios: Vec<f64>,
}

impl AbRounds {
    /// Runs `rounds` more rounds of `baseline` against `candidate`, as
    /// [`ab`] does.
    ///
    /// # Panics
    /// If a cost is not a positive finite number.
    pub fn run(
        &mut self,
        mut baseline: impl FnMut() -> f64,
        mut candidate: impl FnMut() -> f64,
        rounds: usize,
    ) {
        for _ in 0..rounds {
            let (base, cand) = if self.ratios.len().is_multiple_of(2) {
                let base = baseline();
                (base, candidate())
            } else {
                let cand = candidate();
                (baseline(), cand)
            };
            assert!(
                base > 0.0 && cand > 0.0 && base.is_finite() && cand.is_finite(),
                "costs must be positive and finite, got {base} and {cand}"
            );
            self.ratios.push(base / cand);
        }
    }

    /// The median round ratio and its quartiles over every round so far.
    ///
    /// # Panics
    /// If no round has run.
    pub fn ratio(&self) -> AbRatio {
        let rounds = self.ratios.len();
        assert!(rounds > 0, "an A/B comparison needs at least one round");
        let mut ratios = self.ratios.clone();
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        AbRatio {
            rounds,
            median: ratios[rounds / 2],
            q1: ratios[rounds / 4],
            q3: ratios[3 * rounds / 4],
        }
    }
}

/// Prints a group header, mirroring criterion's benchmark groups.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_sane_numbers() {
        let s = Sampler {
            warmup: Duration::from_millis(1),
            sample_time: Duration::from_millis(1),
            samples: 3,
        };
        let m = s.bench("smoke", || (0..100u64).sum::<u64>());
        assert!(m.iters >= 1);
        assert!(m.min_ns > 0.0);
        assert!(m.min_ns <= m.mean_ns * 1.001);
    }

    #[test]
    fn json_is_well_formed() {
        let m = Measurement {
            name: "batch/prepared/seq/64x512".to_string(),
            iters: 7,
            min_ns: 1234.56,
            median_ns: 1300.0,
            mean_ns: 1400.25,
        };
        let j = m.json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\":\"batch/prepared/seq/64x512\""));
        assert!(j.contains("\"iters\":7"));
        assert!(j.contains("\"min_ns\":1234.6"));
    }

    #[test]
    fn ab_alternates_and_reports_quartiles() {
        // Round costs: the baseline is 3 units until round 5, then 2;
        // the candidate always 1. Ratios (sorted): 2, 2, 3, 3, 3, 3, 3.
        let order = std::cell::RefCell::new(Vec::new());
        let mut base_calls = 0;
        let r = ab(
            || {
                base_calls += 1;
                order.borrow_mut().push('b');
                if base_calls > 5 { 2.0 } else { 3.0 }
            },
            || {
                order.borrow_mut().push('c');
                1.0
            },
            7,
        );
        assert_eq!(r, AbRatio { rounds: 7, median: 3.0, q1: 2.0, q3: 3.0 });
        assert_eq!(order.into_inner().iter().collect::<String>(), "bccbbccbbccbbc");
        let j = r.json("gate", 2.0);
        assert!(j.contains("\"name\":\"gate\"") && j.contains("\"ratio\":3.000"));
        assert!(j.contains("\"bound\":2") && j.contains("\"rounds\":7"));
    }

    #[test]
    fn ab_rounds_alternate_across_blocks() {
        // Blocks of 3 and 2 rounds order the sides as one 5-round `ab`.
        let order = std::cell::RefCell::new(String::new());
        let mut gate = AbRounds::default();
        for (rounds, base) in [(3, 4.0), (2, 2.0)] {
            gate.run(
                || {
                    order.borrow_mut().push('b');
                    base
                },
                || {
                    order.borrow_mut().push('c');
                    1.0
                },
                rounds,
            );
        }
        assert_eq!(order.into_inner(), "bccbbccbbc");
        assert_eq!(
            gate.ratio(),
            AbRatio {
                rounds: 5,
                median: 4.0,
                q1: 2.0,
                q3: 4.0
            }
        );
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(12.3), "12.3ns");
        assert_eq!(fmt_ns(12_300.0), "12.30µs");
        assert_eq!(fmt_ns(12_300_000.0), "12.30ms");
        assert_eq!(fmt_ns(2.5e9), "2.500s");
    }
}
