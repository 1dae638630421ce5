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
//!
//! `sim` alone also takes `--sweep KEY=v1,v2,…`: one run per value, each
//! of the spec file with KEY set to that value. KEY is a dotted path into
//! the file's JSON objects (`window_secs`, `queue_mode.kind`); the value
//! is set in the parsed document, which then goes through the same decode,
//! verification and build as a file would, so a misspelled key fails with
//! the decoder's `unknown key` error. This is how the ablations run:
//!
//! ```text
//! covenant sim examples/scenarios/fig6.json --sweep window_secs=0.025,0.1,0.4 --json
//! covenant sim examples/scenarios/fig8.json --sweep extra_tree_lag=0,5,10,20 --csv
//! covenant sim examples/scenarios/explicit_vs_implicit.json \
//!     --sweep queue_mode.kind=explicit,credit_retry
//! ```

use covenant::core::json::Value;
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
    /// `--sweep KEY=v1,v2,…`: one `sim` run per value.
    pub sweep: Option<Sweep>,
}

/// A parsed `--sweep KEY=v1,v2,…`.
#[derive(Debug)]
pub struct Sweep {
    /// Dotted path into the spec's JSON objects.
    pub key: String,
    /// The values, as given.
    pub values: Vec<String>,
}

impl Sweep {
    fn parse(arg: &str) -> Result<Sweep, String> {
        let usage = || format!("--sweep needs KEY=v1,v2,… with no empty key or value, got `{arg}`");
        let (key, list) = arg.split_once('=').ok_or_else(usage)?;
        let values: Vec<String> = list.split(',').map(str::to_owned).collect();
        if key.split('.').any(str::is_empty) || values.iter().any(String::is_empty) {
            return Err(usage());
        }
        Ok(Sweep { key: key.to_owned(), values })
    }

    /// `doc` with KEY set to `value`, read as JSON where it parses (a
    /// number, `true`, `null`) and as a string otherwise. Objects missing
    /// on the path are created, so a key the spec does not know reaches
    /// its decoder.
    pub fn point(&self, doc: &Value, value: &str) -> Result<Value, String> {
        let mut doc = doc.clone();
        let mut at = &mut doc;
        for step in self.key.split('.') {
            let Value::Obj(fields) = at else {
                let key = &self.key;
                return Err(format!("--sweep {key}: the value above '{step}' is not an object"));
            };
            let i = match fields.iter().position(|(k, _)| k == step) {
                Some(i) => i,
                None => {
                    fields.push((step.to_owned(), Value::Obj(Vec::new())));
                    fields.len() - 1
                }
            };
            at = &mut fields[i].1;
        }
        *at = Value::parse(value).unwrap_or_else(|_| Value::Str(value.to_owned()));
        Ok(doc)
    }
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
            "--sweep" if o.sweep.is_some() => return Err("--sweep given twice".into()),
            "--sweep" => {
                let arg = it.next().ok_or("--sweep needs an argument: KEY=v1,v2,…")?;
                o.sweep = Some(Sweep::parse(arg)?);
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

    #[test]
    fn sweep_sets_one_dotted_key_per_point() {
        let o = parse(&args(&["s.json", "--sweep", "queue_mode.kind=explicit,credit_retry"]));
        let sweep = o.unwrap().sweep.unwrap();
        assert_eq!(sweep.values, ["explicit", "credit_retry"]);
        let doc = Value::parse(r#"{"queue_mode": {"kind": "credit_retry"}, "seed": 1}"#).unwrap();
        let point = sweep.point(&doc, "explicit").unwrap();
        assert_eq!(point["queue_mode"]["kind"], "explicit");
        assert_eq!(point["seed"], doc["seed"]);
        let lag = parse(&args(&["--sweep", "extra_tree_lag=5"])).unwrap().sweep.unwrap();
        assert_eq!(lag.point(&doc, "5").unwrap()["extra_tree_lag"], Value::Num(5.0));
        let under_a_number = parse(&args(&["--sweep", "seed.x=1"])).unwrap().sweep.unwrap();
        assert!(under_a_number.point(&doc, "1").is_err());
        for bad in ["window_secs", "window_secs=", "=1", "a..b=1", "window_secs=0.1,,0.2"] {
            assert!(parse(&args(&["--sweep", bad])).is_err(), "{bad}");
        }
        assert!(parse(&args(&["--sweep"])).is_err());
        assert!(parse(&args(&["--sweep", "seed=1", "--sweep", "seed=2"])).is_err());
    }
}
