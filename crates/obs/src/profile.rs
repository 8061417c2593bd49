//! Per-query execution profiles: a [`Span`] tree the store stack fills
//! in while a query runs and the CLI renders as an
//! EXPLAIN-ANALYZE-style tree.
//!
//! A span is a named, optionally timed node with ordered `key=value`
//! fields and children. The store attaches one [`QueryProfile`] to a
//! `PlannedQuery` when profiling was requested;
//! nothing here is collected on the unprofiled path.

use std::fmt;
use std::time::Duration;

/// One node of an execution profile: a named phase with an optional
/// wall-clock duration, display fields, and child phases.
#[derive(Clone, Debug, Default)]
pub struct Span {
    name: String,
    duration: Option<Duration>,
    fields: Vec<(String, String)>,
    children: Vec<Span>,
}

impl Span {
    pub fn new(name: impl Into<String>) -> Span {
        Span {
            name: name.into(),
            ..Span::default()
        }
    }

    /// Builder-style field append (insertion order is display order).
    pub fn field(mut self, key: impl Into<String>, value: impl fmt::Display) -> Span {
        self.add_field(key, value);
        self
    }

    pub fn add_field(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        self.fields.push((key.into(), value.to_string()));
    }

    /// Builder-style duration.
    pub fn timed(mut self, duration: Duration) -> Span {
        self.duration = Some(duration);
        self
    }

    pub fn push(&mut self, child: Span) {
        self.children.push(child);
    }

    /// Builder-style child append.
    pub fn with(mut self, child: Span) -> Span {
        self.push(child);
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn duration(&self) -> Option<Duration> {
        self.duration
    }

    pub fn fields(&self) -> &[(String, String)] {
        &self.fields
    }

    pub fn children(&self) -> &[Span] {
        &self.children
    }

    /// The value of field `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn render(
        &self,
        out: &mut fmt::Formatter<'_>,
        prefix: &str,
        last: bool,
        root: bool,
    ) -> fmt::Result {
        if root {
            write!(out, "{}", self.name)?;
        } else {
            let branch = if last { "└─ " } else { "├─ " };
            write!(out, "{prefix}{branch}{}", self.name)?;
        }
        if let Some(d) = self.duration {
            write!(out, " {}", fmt_duration(d))?;
        }
        if !self.fields.is_empty() {
            write!(out, " [")?;
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    write!(out, ", ")?;
                }
                write!(out, "{k}={v}")?;
            }
            write!(out, "]")?;
        }
        writeln!(out)?;
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        for (i, child) in self.children.iter().enumerate() {
            child.render(out, &child_prefix, i + 1 == self.children.len(), false)?;
        }
        Ok(())
    }
}

/// A completed per-query execution profile (the root span and its
/// tree). Displays as a box-drawing tree, one line per span.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    pub root: Span,
}

impl QueryProfile {
    pub fn new(root: Span) -> QueryProfile {
        QueryProfile { root }
    }
}

impl fmt::Display for QueryProfile {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root.render(out, "", true, true)
    }
}

/// Human units: ns below 1 µs, fractional µs below 1 ms, else ms.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else {
        format!("{:.3}ms", ns as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_a_nested_tree_with_fields_and_durations() {
        let profile = QueryProfile::new(
            Span::new("query")
                .timed(Duration::from_micros(1500))
                .field("strategy", "wco")
                .with(
                    Span::new("plan")
                        .timed(Duration::from_nanos(800))
                        .field("order", "1,0,2"),
                )
                .with(
                    Span::new("execute")
                        .timed(Duration::from_micros(1400))
                        .with(Span::new("level ?x").field("rows", 12))
                        .with(Span::new("level ?y").field("rows", 3)),
                ),
        );
        let text = profile.to_string();
        assert_eq!(
            text,
            "query 1.500ms [strategy=wco]\n\
             ├─ plan 800ns [order=1,0,2]\n\
             └─ execute 1.400ms\n\
             \u{20}  ├─ level ?x [rows=12]\n\
             \u{20}  └─ level ?y [rows=3]\n"
        );
        assert_eq!(profile.root.get("strategy"), Some("wco"));
        assert_eq!(
            profile.root.children()[1].children()[0].get("rows"),
            Some("12")
        );
    }
}
