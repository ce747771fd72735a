//! The `experiments` command line: one flag table, one parser.
//!
//! [`MODES`] lists, for every mode of the binary, the flags it accepts
//! and the kind of each flag's value. [`parse`] checks every argument
//! against that table once: an unknown flag, a flag the mode does not
//! take, a bad or missing value, a repeated flag, a stray positional or
//! a missing required flag is an `Err`, which the binary turns into
//! exit `1` with [`usage`] — before any simulation starts. [`usage`]
//! prints the same table, so the help text cannot drift from the
//! parser.

use std::path::PathBuf;

/// The binary's modes. The first argument selects one by its word;
/// without a mode word the arguments go to the exhibit runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Exhibits,
    BenchBaseline,
    FaultInject,
    Report,
    Chaos,
    Serve,
    ServeClient,
}

/// What a flag's value must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Takes no value.
    Switch,
    /// An integer `>= 1`.
    Positive,
    /// An integer `>= 0`.
    Unsigned,
    /// A non-empty path.
    Path,
    /// Any string.
    Text,
}

/// One row of the flag table: name, value kind, and the value's
/// placeholder in the usage text (empty for switches).
pub type Flag = (&'static str, Kind, &'static str);

/// One mode's grammar.
#[derive(Debug)]
pub struct ModeSpec {
    pub mode: Mode,
    /// The first argument that selects the mode; the exhibit runner,
    /// selected by the absence of any other mode word, is named
    /// `experiments` in diagnostics.
    pub word: &'static str,
    pub flags: &'static [Flag],
    /// A flag the mode refuses to run without.
    pub required: Option<&'static str>,
    /// Usage text for the positional arguments (empty: none).
    pub positionals: &'static str,
    /// How many positional arguments the mode accepts.
    pub max_positionals: usize,
}

use Kind::{Path, Positive, Switch, Text, Unsigned};

/// The flag table, transcribed from the synopsis in `main.rs`.
#[rustfmt::skip]
pub const MODES: [ModeSpec; 7] = [
    ModeSpec {
        mode: Mode::Exhibits, word: "experiments", required: None,
        flags: &[("--fast", Switch, ""), ("--list", Switch, ""), ("--jobs", Positive, "N"),
            ("--csv", Path, "DIR"), ("--manifest", Path, "DIR"), ("--trace", Path, "DIR"),
            ("--metrics", Path, "DIR"), ("--profile", Path, "DIR"), ("--store", Path, "DIR")],
        positionals: "[EXHIBIT...]", max_positionals: usize::MAX,
    },
    ModeSpec {
        mode: Mode::BenchBaseline, word: "bench-baseline", required: None,
        flags: &[("--seeds", Positive, "N"), ("--jobs", Positive, "N"), ("--out", Path, "FILE"),
            ("--check-baseline", Path, "FILE"), ("--resume", Path, "DIR"),
            ("--deadline-s", Positive, "N"), ("--snapshot-every", Positive, "CYCLES"),
            ("--selfcheck", Switch, ""), ("--heartbeat-s", Positive, "N"),
            ("--trace", Path, "DIR"), ("--metrics", Path, "DIR"), ("--profile", Path, "DIR"),
            ("--store", Path, "DIR")],
        positionals: "", max_positionals: 0,
    },
    ModeSpec {
        mode: Mode::FaultInject, word: "fault-inject", required: None,
        flags: &[("--fast", Switch, ""), ("--seeds", Positive, "N"), ("--trials", Positive, "N"),
            ("--jobs", Positive, "N"), ("--out", Path, "FILE"), ("--check-avf", Switch, ""),
            ("--resume", Path, "DIR"), ("--deadline-s", Positive, "N"),
            ("--heartbeat-s", Positive, "N"), ("--trace", Path, "DIR"),
            ("--metrics", Path, "DIR"), ("--store", Path, "DIR")],
        positionals: "", max_positionals: 0,
    },
    ModeSpec {
        mode: Mode::Report, word: "report", required: Some("--store"),
        flags: &[("--store", Path, "DIR"), ("--list", Switch, ""), ("--diff", Switch, ""),
            ("--html", Path, "FILE"), ("--title", Text, "TITLE")],
        positionals: "[SEL_A [SEL_B]]", max_positionals: 2,
    },
    ModeSpec {
        mode: Mode::Chaos, word: "chaos", required: None,
        flags: &[("--seed", Unsigned, "N"), ("--rounds", Positive, "N"),
            ("--scratch", Path, "DIR"), ("--out", Path, "FILE")],
        positionals: "", max_positionals: 0,
    },
    ModeSpec {
        mode: Mode::Serve, word: "serve", required: Some("--dir"),
        flags: &[("--dir", Path, "DIR"), ("--addr", Text, "HOST:PORT"),
            ("--serve-workers", Positive, "N"), ("--max-queued", Positive, "N"),
            ("--deadline-s", Positive, "N"), ("--drain", Switch, ""), ("--store", Path, "DIR")],
        positionals: "", max_positionals: 0,
    },
    ModeSpec {
        mode: Mode::ServeClient, word: "serve-client", required: None,
        flags: &[("--dir", Path, "DIR"), ("--addr", Text, "HOST:PORT"), ("--name", Text, "S"),
            ("--kind", Text, "S"), ("--seed", Unsigned, "N"), ("--steps", Positive, "N"),
            ("--payload", Text, "JSON"), ("--priority", Text, "low|normal|high"),
            ("--timeout-s", Positive, "N")],
        positionals: "VERB [ID]", max_positionals: 2,
    },
];

/// A validated flag value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    On,
    Num(u64),
    Path(PathBuf),
    Text(String),
}

/// A parsed command line: the mode, the flags given (in argument
/// order) and the positional arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    pub mode: Mode,
    pub values: Vec<(&'static str, Value)>,
    pub positionals: Vec<String>,
}

/// Whether any mode takes `flag`.
fn known(flag: &str) -> bool {
    MODES.iter().any(|m| m.flags.iter().any(|f| f.0 == flag))
}

impl Cli {
    /// The value of `flag`, `None` when not given. Asking for a flag no
    /// mode has is a bug in the caller, not in the command line.
    fn get(&self, flag: &str) -> Option<&Value> {
        assert!(known(flag), "{flag} is in no mode's flag table");
        self.values.iter().find(|(n, _)| *n == flag).map(|(_, v)| v)
    }

    pub fn switch(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    pub fn num(&self, flag: &str) -> Option<u64> {
        match self.get(flag)? {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        match self.get(flag)? {
            Value::Path(p) => Some(p.clone()),
            _ => None,
        }
    }

    pub fn text(&self, flag: &str) -> Option<String> {
        match self.get(flag)? {
            Value::Text(s) => Some(s.clone()),
            _ => None,
        }
    }
}

/// Check one flag value against its kind. `raw` is `None` when the
/// flag was the last argument. A value that looks like a flag is
/// refused: the next option swallowed the slot, and accepting it would
/// (say) create a directory named `--trace`.
pub fn parse_value(flag: &str, kind: Kind, raw: Option<&str>) -> Result<Value, String> {
    let Some(raw) = raw else {
        return Err(format!("{flag} wants a value, got nothing"));
    };
    if raw.starts_with("--") {
        return Err(format!(
            "{flag} wants a value, got flag-like {raw:?} (value missing?)"
        ));
    }
    match kind {
        Switch => unreachable!("switches take no value"),
        Positive => match raw.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(Value::Num(n)),
            Ok(_) => Err(format!("{flag} wants a positive integer, got 0")),
            Err(_) => Err(format!("{flag} wants a positive integer, got {raw:?}")),
        },
        Unsigned => raw
            .parse()
            .map(Value::Num)
            .map_err(|_| format!("{flag} wants an unsigned integer, got {raw:?}")),
        Path if raw.is_empty() => Err(format!("{flag} wants a path, got an empty string")),
        Path => Ok(Value::Path(PathBuf::from(raw))),
        Text => Ok(Value::Text(raw.to_string())),
    }
}

/// Parse the arguments after the program name against [`MODES`].
pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Cli, String> {
    let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
    let (spec, rest) = match MODES[1..].iter().find(|m| args.first() == Some(&m.word)) {
        Some(spec) => (spec, &args[1..]),
        None => (&MODES[0], &args[..]),
    };
    let mut cli = Cli {
        mode: spec.mode,
        values: Vec::new(),
        positionals: Vec::new(),
    };
    let mut rest = rest.iter().copied();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            cli.positionals.push(arg.to_string());
            continue;
        }
        let Some(&(name, kind, _)) = spec.flags.iter().find(|f| f.0 == arg) else {
            return Err(if known(arg) {
                format!("{} does not take {arg}", spec.word)
            } else {
                format!("unknown flag {arg}")
            });
        };
        if cli.values.iter().any(|(n, _)| *n == name) {
            return Err(format!("{arg} given twice"));
        }
        let value = match kind {
            Switch => Value::On,
            _ => parse_value(name, kind, rest.next())?,
        };
        cli.values.push((name, value));
    }
    if cli.positionals.len() > spec.max_positionals {
        let takes = match spec.positionals {
            "" => "no positional arguments",
            p => p,
        };
        return Err(format!(
            "{} takes {takes}, got {:?}",
            spec.word, cli.positionals
        ));
    }
    match spec.required {
        Some(flag) if !cli.values.iter().any(|(n, _)| *n == flag) => {
            Err(format!("{} wants {flag}", spec.word))
        }
        _ => Ok(cli),
    }
}

/// The usage text, one synopsis per mode, generated from [`MODES`].
pub fn usage() -> String {
    const WIDTH: usize = 76;
    const INDENT: &str = "            ";
    let mut out = String::from("usage:\n");
    for spec in &MODES {
        let mut words = vec!["experiments".to_string()];
        if spec.mode != Mode::Exhibits {
            words.push(spec.word.to_string());
        }
        for &(name, kind, meta) in spec.flags {
            words.push(match kind {
                Switch => format!("[{name}]"),
                _ if spec.required == Some(name) => format!("{name} {meta}"),
                _ => format!("[{name} {meta}]"),
            });
        }
        if !spec.positionals.is_empty() {
            words.push(spec.positionals.to_string());
        }
        let mut line = String::new();
        for word in words {
            if line.len() + 1 + word.len() > WIDTH {
                out.push_str(&line);
                out.push('\n');
                line = INDENT.to_string();
            } else if !line.is_empty() {
                line.push(' ');
            }
            line.push_str(&word);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_names_are_unique_per_mode_and_kinds_agree_across_modes() {
        for spec in &MODES {
            for (i, &(name, kind, meta)) in spec.flags.iter().enumerate() {
                assert!(name.starts_with("--"), "{name}");
                assert!(
                    spec.flags[..i].iter().all(|g| g.0 != name),
                    "{name} twice in {}",
                    spec.word
                );
                assert_eq!(meta.is_empty(), kind == Switch, "{name}");
                for other in MODES.iter().flat_map(|m| m.flags.iter()) {
                    if other.0 == name {
                        assert_eq!(other.1, kind, "{name} changes kind");
                    }
                }
            }
            if let Some(flag) = spec.required {
                assert!(spec.flags.iter().any(|f| f.0 == flag), "{flag}");
            }
        }
    }

    #[test]
    fn usage_lists_every_flag_and_matches_the_binary_docs() {
        let text = usage();
        for f in MODES.iter().flat_map(|m| m.flags.iter()) {
            assert!(text.contains(f.0), "{} missing from usage", f.0);
        }
        for line in text.lines() {
            assert!(line.len() <= 76, "usage line too long: {line:?}");
        }
        // The synopsis at the top of `main.rs` is this text verbatim.
        let docs: String = include_str!("main.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//! "))
            .collect::<Vec<_>>()
            .join("\n");
        let synopsis = text.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert!(
            docs.contains(&synopsis),
            "main.rs synopsis differs from the flag table; replace it with:\n{synopsis}"
        );
    }
}
