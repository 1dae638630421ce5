//! Shared option parsing for the `covenant` subcommands.
//!
//! Every spec-taking subcommand (`check`, `levels`, `sim`, `cluster`)
//! accepts the same surface: one positional spec path plus the common
//! flags parsed here — `--json` (machine-readable output), `--csv`
//! (time-series output where meaningful), and `--deny all|V1,…`
//! (escalate verifier findings to hard failures, exactly as `check`
//! interprets it). The parser is strict: an unknown `--flag` is an error,
//! never silently ignored. What to run — duration and seed included — is
//! the spec file's to say.

use covenant::verify::{RuleMeta, VRule};

/// Parsed command line for one subcommand invocation.
#[derive(Debug, Default)]
pub struct Options {
    /// First free (non-flag) argument: the spec path.
    pub path: Option<String>,
    /// Remaining free arguments (e.g. the optional `cluster` run time).
    pub rest: Vec<String>,
    /// `--json`: emit a machine-readable report instead of tables.
    pub json: bool,
    /// `--csv`: emit the per-second rate series as CSV.
    pub csv: bool,
    /// `--list-rules`: print the verifier rule registry and exit.
    pub list_rules: bool,
    /// `--deny`: findings from these rules fail the command.
    pub deny: Vec<VRule>,
}

impl Options {
    /// The spec path, or a per-command usage error.
    pub fn require_path(&self, usage: &str) -> Result<&str, String> {
        self.path.as_deref().ok_or_else(|| format!("missing spec path\nusage: {usage}"))
    }
}

/// Parses every argument after the subcommand name.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => o.json = true,
            "--csv" => o.csv = true,
            "--list-rules" => o.list_rules = true,
            "--deny" => {
                let spec = it.next().ok_or(
                    "--deny needs an argument: `all` or a comma-separated rule list",
                )?;
                o.deny = VRule::parse_deny(spec)
                    .ok_or_else(|| format!("unknown rule in --deny {spec}; see --list-rules"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            free => {
                if o.path.is_none() {
                    o.path = Some(free.to_string());
                } else {
                    o.rest.push(free.to_string());
                }
            }
        }
    }
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn positional_and_flags_mix_in_any_order() {
        let o = parse(&args(&["--json", "spec.json", "--deny", "V1,V9", "3"])).unwrap();
        assert_eq!(o.path.as_deref(), Some("spec.json"));
        assert_eq!(o.rest, vec!["3".to_string()]);
        assert!(o.json && !o.csv);
        assert_eq!(o.deny, vec![VRule::References, VRule::TimelineOrder]);
    }

    #[test]
    fn deny_all_expands_to_every_rule() {
        let o = parse(&args(&["spec.json", "--deny", "all"])).unwrap();
        assert_eq!(o.deny.len(), VRule::registry().len());
    }

    #[test]
    fn unknown_flags_and_bad_deny_are_errors() {
        assert!(parse(&args(&["--jsno"])).is_err());
        assert!(parse(&args(&["--deny"])).is_err());
        assert!(parse(&args(&["--deny", "V99"])).is_err());
        // The spec file owns duration and seed; the old overrides are gone.
        assert!(parse(&args(&["s.json", "--duration", "inf"])).is_err());
        assert!(parse(&args(&["s.json", "--seed", "9"])).is_err());
    }
}
