//! Correctness reference: the simulated statistics every sweep point and
//! every fault-injection campaign produced when the reference was
//! recorded, one `key digest` line each. Every run compares what it
//! computed against these lines; a mismatch is a failed operation.
//!
//! Re-record (only when a change is *meant* to alter simulated
//! results) with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --record-reference`.

use std::collections::BTreeMap;

/// Reference lines for the sweep points (`sweep-cpu`, `sweep-mem`).
pub const SWEEP: &str = include_str!("../reference/sweep.txt");
/// Reference lines for the fault-injection campaigns (`inject`).
pub const INJECT: &str = include_str!("../reference/inject.txt");

/// Parsed reference: key → digest.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    entries: BTreeMap<String, String>,
}

impl Reference {
    /// Parse `key digest` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Reference {
        let entries = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, d)| (k.to_string(), d.trim().to_string()))
            .collect();
        Reference { entries }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    pub fn insert(&mut self, key: impl Into<String>, digest: impl Into<String>) {
        self.entries.insert(key.into(), digest.into());
    }

    /// Compare one computed digest against its reference line. `Err`
    /// describes the mismatch (or the missing line) for the log.
    pub fn check(&self, key: &str, actual: &str) -> Result<(), String> {
        match self.get(key) {
            Some(want) if want == actual => Ok(()),
            Some(want) => Err(format!(
                "reference mismatch for {key}:\n  want {want}\n  got  {actual}"
            )),
            None => Err(format!("no reference line for {key}")),
        }
    }

    /// Render as reference-file text under a comment header.
    pub fn render(&self, header: &str) -> String {
        let mut out = String::new();
        for line in header.lines() {
            out.push_str("# ");
            out.push_str(line);
            out.push('\n');
        }
        for (k, d) in &self.entries {
            out.push_str(k);
            out.push(' ');
            out.push_str(d);
            out.push('\n');
        }
        out
    }
}

/// Check `actual` against `reference`, logging a mismatch to stderr.
/// Returns whether it matched.
pub fn matches(reference: &Reference, key: &str, actual: &str) -> bool {
    match reference.check(key, actual) {
        Ok(()) => true,
        Err(why) => {
            eprintln!("perfbench: {why}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_references_are_complete() {
        let sweep = Reference::parse(SWEEP);
        let expected_points = (crate::sweep::SweepKind::Cpu.configs().len()
            + crate::sweep::SweepKind::Mem.configs().len())
            * crate::sweep::MAX_SALTS as usize;
        assert_eq!(sweep.len(), expected_points);
        let inject = Reference::parse(INJECT);
        let schemes = crate::inject::SCHEMES.len();
        assert_eq!(
            inject.len(),
            schemes * (1 + crate::inject::POOL as usize),
            "one golden line plus one line per pooled campaign seed, per scheme"
        );
    }

    /// A doctored reference entry must be reported, naming the point,
    /// while the true digest still passes.
    #[test]
    fn doctored_entry_is_reported() {
        let reference = Reference::parse(SWEEP);
        let (key, digest) = reference
            .entries
            .iter()
            .next()
            .expect("non-empty reference");
        assert!(reference.check(key, digest).is_ok());

        let mut doctored = reference.clone();
        let bumped = digest.replacen("cycles=", "cycles=1", 1);
        assert_ne!(&bumped, digest);
        doctored.insert(key.clone(), bumped);
        let err = doctored.check(key, digest).unwrap_err();
        assert!(
            err.contains(key.as_str()) && err.contains("mismatch"),
            "{err}"
        );
        assert!(!matches(&doctored, key, digest));
        assert!(matches(&reference, key, digest));
    }

    #[test]
    fn missing_entry_is_reported() {
        let reference = Reference::parse("# only a comment\n");
        assert_eq!(reference.len(), 0);
        let err = reference
            .check("CPU-A/baseline/ICOUNT/s9", "x")
            .unwrap_err();
        assert!(err.contains("no reference line"));
    }

    #[test]
    fn render_round_trips() {
        let mut r = Reference::default();
        r.insert("b", "2 3");
        r.insert("a", "1");
        let text = r.render("header line");
        assert!(text.starts_with("# header line\n"));
        let back = Reference::parse(&text);
        assert_eq!(back.get("a"), Some("1"));
        assert_eq!(back.get("b"), Some("2 3"));
    }
}
