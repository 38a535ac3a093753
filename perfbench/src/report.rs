//! The run's printed output: a detail line (seed, `nproc`, filesystem,
//! sample counts, every extra figure) followed by the one-line result
//! object `{"correct", "attempted", "failed", "metrics"}` as the last
//! line of standard output.

use std::fmt::Write as _;

/// A JSON value, only as rich as the output needs.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values print as `null`.
    Num(f64),
    /// An integer count.
    Int(u64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null` (an unavailable probe).
    Null,
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
    /// An array.
    Arr(Vec<Json>),
}

impl Json {
    /// Renders compactly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                // `{:?}` prints the shortest round-trip form, with a
                // decimal point, so every measured digit survives.
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) | Json::Null => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
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
}

/// One named metric with its unit; `None` when its probe was
/// unavailable.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// The measured value.
    pub value: Option<f64>,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output and durability check passed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations failed, refused (`Busy`), disconnected or wrongly
    /// typed.
    pub failed: u64,
    /// The metrics this run mode reports.
    pub metrics: Vec<Metric>,
    /// Extra detail for the detail line.
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Records a detail field.
    pub fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_owned(), value));
    }

    /// Prints the detail line and then the result line. A run that
    /// failed a check records no metrics.
    pub fn print(&self) {
        let unavailable: Vec<(String, Json)> = self
            .metrics
            .iter()
            .filter(|m| m.value.is_none())
            .map(|m| (m.name.to_owned(), Json::Str("unavailable".into())))
            .collect();
        let mut detail = self.detail.clone();
        if !unavailable.is_empty() {
            detail.push(("unavailable".into(), Json::Obj(unavailable)));
        }
        println!("{}", Json::Obj(vec![("detail".into(), Json::Obj(detail))]).render());
        let metrics = if self.correct {
            self.metrics
                .iter()
                .map(|m| {
                    let value = m.value.map_or(Json::Null, Json::Num);
                    let body = vec![
                        ("value".to_owned(), value),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ];
                    (m.name.to_owned(), Json::Obj(body))
                })
                .collect()
        } else {
            Vec::new()
        };
        let result = Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Int(self.attempted.max(1))),
            ("failed".into(), Json::Int(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", result.render());
    }
}
