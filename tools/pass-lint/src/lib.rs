//! # pass-lint — the PASS workspace invariant checker
//!
//! CI-enforced rules the compiler cannot express, driven by the
//! repo-root `invariants.toml`:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `l1` | no `unwrap`/`expect`/slice-index panics in crash-safety modules |
//! | `l2` | no fsync/blocking-I/O/bulk-encode calls in the `publish_order` section |
//! | `l3` | shard locks only via the ascending-order helpers |
//! | `l4` | no wall-clock reads in simulator/virtual-clock code |
//! | `l5` | commit-path functions document their lock-ordering position |
//! | `l6` | nothing *reachable* from the `publish_order` section fsyncs (interprocedural L2) |
//! | `l7` | the held-while-acquiring graph over lock domains is acyclic and ordered |
//! | `l8` | crash-path modules never silently drop I/O errors |
//!
//! L1–L5 and L8 are lexical, per-file. L6 and L7 run over a whole-
//! workspace call graph ([`callgraph`], [`locks`]) built from the same
//! zero-dependency token stream — see those modules for the (documented)
//! approximations.
//!
//! Deny-by-default: a matched pattern is a finding unless the line (or
//! the line above) carries `// pass-lint: allow(<rule>, reason="...")`.
//! Honored waivers are counted and printed so the waiver population is
//! itself reviewable in CI logs, `--audit-waivers` turns waivers that
//! no longer suppress anything into findings of their own, and an
//! optional `[waivers] max_honored` ceiling fails a run that honors
//! more waivers than the config allows, so their number can only fall.
//!
//! Run as `cargo run -p pass-lint -- --workspace` from the repo root;
//! `--json`/`--sarif` emit machine-readable reports ([`sarif`]); see
//! `tools/pass-lint/tests/ui/` for per-rule fixtures.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod locks;
pub mod parse;
pub mod rules;
pub mod sarif;

use config::Config;
use rules::{glob_match, Finding};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Everything one linting run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    pub files_checked: usize,
    pub findings: Vec<Finding>,
    /// `(file, rule, line)` for every honored waiver.
    pub waivers: Vec<(String, String, u32)>,
}

impl RunReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Run-level switches beyond the config file.
#[derive(Debug, Default)]
pub struct RunOptions {
    /// Turn waivers that suppress nothing into `stale-waiver` findings.
    pub audit_waivers: bool,
}

/// Lints every `.rs` file under `root` (skipping `target/` and
/// hidden directories) against `config`.
///
/// Phases: lex everything once; build the call-graph [`callgraph::Workspace`]
/// from the files in `[callgraph] files` scope; run the per-file rules;
/// run the workspace rules (L6/L7); then apply waivers *globally* — a
/// waiver comment suppresses per-file and workspace findings alike when
/// it names the rule and sits on the finding line or the line above.
pub fn run(root: &Path, config: &Config, options: &RunOptions) -> std::io::Result<RunReport> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut lexed_files: Vec<(String, lexer::Lexed)> = Vec::with_capacity(files.len());
    for rel in &files {
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(root.join(rel))?;
        lexed_files.push((rel_str, lexer::lex(&src)));
    }

    let corpus = lexed_files
        .iter()
        .filter(|(p, _)| config.callgraph.files.iter().any(|g| glob_match(g, p)))
        .map(|(p, l)| (p.as_str(), l));
    let ws = callgraph::Workspace::build(root, corpus, &config.callgraph.ignore_calls);

    let mut report = RunReport { files_checked: lexed_files.len(), ..RunReport::default() };
    let mut raw: Vec<Finding> = Vec::new();
    let mut waivers_by_file: BTreeMap<&str, Vec<rules::Waiver>> = BTreeMap::new();
    for (rel, lexed) in &lexed_files {
        // Files outside every rule's scope contribute neither findings
        // nor waivers — fixture trees and tooling stay inert.
        let in_scope = config.rules.values().any(|r| r.files.iter().any(|g| glob_match(g, rel)));
        if !in_scope {
            continue;
        }
        let syms = parse::parse_file(lexed);
        let (waivers, waiver_findings) = rules::parse_waivers(&lexed.comments, rel);
        // Malformed / reason-less waivers are findings in their own
        // right and are never themselves waivable.
        report.findings.extend(waiver_findings);
        if !waivers.is_empty() {
            waivers_by_file.insert(rel, waivers);
        }
        raw.extend(rules::check_file(config, rel, lexed, &syms));
    }
    if let Some(rule) = config.rules.get("l6") {
        raw.extend(callgraph::check_l6(rule, &ws));
    }
    if let Some(rule) = config.rules.get("l7") {
        raw.extend(locks::check_l7(rule, &ws));
    }

    // Global waiver application. `used` keys honored waiver comments so
    // the stale audit can flag the rest.
    let mut used: BTreeSet<(String, u32, String)> = BTreeSet::new();
    for f in raw {
        let hit = waivers_by_file.get(f.file.as_str()).and_then(|ws| {
            ws.iter().find(|w| {
                w.rule == f.rule && w.reason_ok && (w.line == f.line || w.line + 1 == f.line)
            })
        });
        match hit {
            Some(w) => {
                if used.insert((f.file.clone(), w.line, f.rule.clone())) {
                    report.waivers.push((f.file.clone(), f.rule.clone(), w.line));
                }
            }
            None => report.findings.push(f),
        }
    }
    if let Some((ceiling, line)) = config.waiver_ceiling {
        if report.waivers.len() > ceiling {
            report.findings.push(Finding {
                rule: "waiver-ceiling".into(),
                file: "invariants.toml".into(),
                line: u32::try_from(line).unwrap_or(u32::MAX),
                message: format!(
                    "{} waivers honored, above the ceiling of {ceiling} — remove a waiver; the ceiling only goes down",
                    report.waivers.len()
                ),
            });
        }
    }
    if options.audit_waivers {
        for (file, waivers) in &waivers_by_file {
            for w in waivers {
                if w.reason_ok && !used.contains(&(file.to_string(), w.line, w.rule.clone())) {
                    report.findings.push(Finding {
                        rule: "stale-waiver".into(),
                        file: file.to_string(),
                        line: w.line,
                        message: format!(
                            "waiver for `{}` no longer suppresses any finding — remove it",
                            w.rule
                        ),
                    });
                }
            }
        }
    }
    report.findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    report.waivers.sort();
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}
