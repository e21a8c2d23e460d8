//! `invariants.toml` loading.
//!
//! The offline dependency set has no `toml`/`serde` TOML support, so
//! this module parses the small subset the config actually uses:
//! `[table.sub]` headers, `key = "string"`, `key = 12` (an unsigned
//! integer), and `key = ["a", "b"]` (single- or multi-line). Anything else is a hard error — a config
//! the linter cannot read must fail the build, not silently check
//! nothing.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed value: the config only ever holds strings, string lists and
/// unsigned integers.
#[derive(Debug, Clone)]
pub enum Value {
    Str(String),
    List(Vec<String>),
    Int(usize),
}

/// One rule's configuration as loaded from `invariants.toml`.
#[derive(Debug, Clone, Default)]
pub struct RuleConfig {
    /// Glob patterns (relative to the lint root) this rule applies to.
    pub files: Vec<String>,
    /// Identifiers the rule denies (L2/L4) — meaning is per rule.
    pub deny: Vec<String>,
    /// Identifiers that trigger the rule (L5) or name the guarded
    /// field (L3, single entry).
    pub triggers: Vec<String>,
    /// Function names exempt from the rule (L3's sanctioned helpers).
    pub allow_in: Vec<String>,
    /// Required doc-comment marker (L5).
    pub marker: Option<String>,
    /// Lock-domain specs (L7): `"name:pattern[@glob]"` entries.
    pub domains: Vec<String>,
    /// Declared lock-domain acquisition order (L7) — the
    /// machine-readable form of the L5 prose notes.
    pub order: Vec<String>,
    /// Domains safe to re-acquire while held because an internal order
    /// exists (L7) — e.g. shard commit locks, taken ascending.
    pub nestable: Vec<String>,
}

/// `[callgraph]`: the corpus and resolution knobs for the
/// interprocedural rules (L6/L7).
#[derive(Debug, Clone)]
pub struct CallgraphConfig {
    /// Glob patterns selecting the call-graph corpus. Defaults to
    /// `["**"]`; the real workspace narrows it to `crates/*/src/**` so
    /// fixtures and tooling never join the graph.
    pub files: Vec<String>,
    /// Method/function names too generic for name-based resolution
    /// (`get`, `insert`, `clone`, …) — calls to them resolve to nothing.
    pub ignore_calls: Vec<String>,
}

impl Default for CallgraphConfig {
    fn default() -> Self {
        CallgraphConfig { files: vec!["**".to_string()], ignore_calls: Vec::new() }
    }
}

/// The full config: rule id (`l1`…`l8`) → its settings, plus the
/// call-graph corpus definition and the waiver ceiling.
#[derive(Debug, Default)]
pub struct Config {
    pub rules: BTreeMap<String, RuleConfig>,
    pub callgraph: CallgraphConfig,
    /// `[waivers] max_honored`: the most waivers a run may honor, and
    /// the config line that sets it. More is a `waiver-ceiling` finding.
    pub waiver_ceiling: Option<(usize, usize)>,
}

/// A config-file problem, with its line number.
#[derive(Debug)]
pub struct ConfigError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariants.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Parses the config source. Unknown keys are errors: a typo like
    /// `fils = [...]` must not silently disable a rule.
    pub fn parse(src: &str) -> Result<Config, ConfigError> {
        let raw = parse_toml_subset(src)?;
        let mut config = Config::default();
        for ((table, key), (value, line)) in raw {
            let err = |message: String| ConfigError { line, message };
            if table == "callgraph" {
                match (key.as_str(), value) {
                    ("files", Value::List(v)) => config.callgraph.files = v,
                    ("ignore_calls", Value::List(v)) => config.callgraph.ignore_calls = v,
                    (other, _) => {
                        return Err(err(format!(
                            "unknown or mistyped key `{other}` in [callgraph]"
                        )))
                    }
                }
                continue;
            }
            if table == "waivers" {
                match (key.as_str(), value) {
                    ("max_honored", Value::Int(n)) => config.waiver_ceiling = Some((n, line)),
                    (other, _) => {
                        return Err(err(format!("unknown or mistyped key `{other}` in [waivers]")))
                    }
                }
                continue;
            }
            let Some(rule_id) = table.strip_prefix("rules.") else {
                return Err(ConfigError {
                    line,
                    message: format!(
                        "unexpected table [{table}] — expected [rules.*], [callgraph] or [waivers]"
                    ),
                });
            };
            let rule = config.rules.entry(rule_id.to_string()).or_default();
            match (key.as_str(), value) {
                ("files", Value::List(v)) => rule.files = v,
                ("deny", Value::List(v)) => rule.deny = v,
                ("triggers", Value::List(v)) => rule.triggers = v,
                ("allow_in", Value::List(v)) => rule.allow_in = v,
                ("marker", Value::Str(s)) => rule.marker = Some(s),
                ("domains", Value::List(v)) => rule.domains = v,
                ("order", Value::List(v)) => rule.order = v,
                ("nestable", Value::List(v)) => rule.nestable = v,
                (other, _) => {
                    return Err(err(format!("unknown or mistyped key `{other}` in [{table}]")))
                }
            }
        }
        for (id, rule) in &config.rules {
            if rule.files.is_empty() {
                return Err(ConfigError {
                    line: 0,
                    message: format!("[rules.{id}] has no `files` patterns"),
                });
            }
        }
        Ok(config)
    }
}

type RawConfig = BTreeMap<(String, String), (Value, usize)>;

fn parse_toml_subset(src: &str) -> Result<RawConfig, ConfigError> {
    let mut out = RawConfig::new();
    let mut table = String::new();
    let mut lines = src.lines().enumerate().peekable();
    while let Some((idx, raw_line)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw_line).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            table = header.trim().to_string();
            continue;
        }
        let Some((key, rest)) = line.split_once('=') else {
            return Err(ConfigError {
                line: lineno,
                message: format!("expected `key = value`, got `{line}`"),
            });
        };
        let key = key.trim().to_string();
        let mut rest = rest.trim().to_string();
        let value = if rest.starts_with('[') {
            // Gather a possibly multi-line array until the closing `]`.
            while !rest.contains(']') {
                let Some((_, cont)) = lines.next() else {
                    return Err(ConfigError { line: lineno, message: "unterminated array".into() });
                };
                rest.push(' ');
                rest.push_str(strip_comment(cont).trim());
            }
            let inner = rest
                .trim()
                .strip_prefix('[')
                .and_then(|r| r.trim_end().strip_suffix(']'))
                .ok_or_else(|| ConfigError { line: lineno, message: "malformed array".into() })?;
            let mut items = Vec::new();
            for piece in inner.split(',') {
                let piece = piece.trim();
                if piece.is_empty() {
                    continue; // trailing comma
                }
                items.push(unquote(piece, lineno)?);
            }
            Value::List(items)
        } else if let Ok(n) = rest.parse::<usize>() {
            Value::Int(n)
        } else {
            Value::Str(unquote(&rest, lineno)?)
        };
        if table.is_empty() {
            return Err(ConfigError { line: lineno, message: "key outside any [table]".into() });
        }
        out.insert((table.clone(), key), (value, lineno));
    }
    Ok(out)
}

/// Strips a `#` comment, respecting (basic, non-escaped) quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(piece: &str, lineno: usize) -> Result<String, ConfigError> {
    piece.strip_prefix('"').and_then(|p| p.strip_suffix('"')).map(str::to_string).ok_or_else(|| {
        ConfigError { line: lineno, message: format!("expected a quoted string, got `{piece}`") }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_shipped_shape() {
        let cfg = Config::parse(
            r#"
# comment
[rules.l1]
files = ["crates/storage/src/*.rs", "crates/core/src/shard.rs"]

[rules.l5]
files = [
    "crates/core/src/pass.rs",  # inline comment
]
triggers = ["lock_one"]
marker = "Lock order"
"#,
        )
        .unwrap();
        assert_eq!(cfg.rules["l1"].files.len(), 2);
        assert_eq!(cfg.rules["l5"].marker.as_deref(), Some("Lock order"));
    }

    #[test]
    fn rejects_unknown_keys_and_empty_files() {
        assert!(Config::parse("[rules.l1]\nfils = [\"x\"]").is_err());
        assert!(Config::parse("[rules.l1]\nderp = \"x\"").is_err());
        assert!(Config::parse("[rules.l1]\ndeny = [\"x\"]").is_err(), "files required");
        assert!(Config::parse("[other]\nfiles = [\"x\"]").is_err(), "tables live under rules.*");
    }

    #[test]
    fn parses_callgraph_and_l7_keys() {
        let cfg = Config::parse(
            "[callgraph]\nfiles = [\"crates/*/src/**\"]\nignore_calls = [\"get\", \"insert\"]\n\n[rules.l7]\nfiles = [\"crates/**\"]\ndomains = [\"state:state.read@crates/core/src/pass.rs\"]\norder = [\"shard_commit\", \"state\"]\nnestable = [\"shard_commit\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.callgraph.files, vec!["crates/*/src/**"]);
        assert_eq!(cfg.callgraph.ignore_calls.len(), 2);
        assert_eq!(cfg.rules["l7"].domains.len(), 1);
        assert_eq!(cfg.rules["l7"].order, vec!["shard_commit", "state"]);
        assert_eq!(cfg.rules["l7"].nestable, vec!["shard_commit"]);
        assert!(Config::parse("[callgraph]\nfils = [\"x\"]").is_err());
    }

    #[test]
    fn parses_the_waiver_ceiling() {
        let cfg = Config::parse("# c\n[waivers]\nmax_honored = 10\n").unwrap();
        assert_eq!(cfg.waiver_ceiling, Some((10, 3)));
        assert!(Config::parse("[waivers]\nmax_honored = \"10\"").is_err(), "an integer");
        assert!(Config::parse("[waivers]\nmax = 10").is_err());
        assert!(Config::parse("[rules.l1]\nfiles = 3").is_err(), "lists stay lists");
    }
}
