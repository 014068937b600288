//! Minimal dependency-free argument parsing for the CLI.

use std::collections::HashMap;

/// Parsed command line: positional arguments and `--key value` /
/// `--flag` options.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// Option map; bare flags map to `"true"`.
    pub options: HashMap<String, String>,
}

impl Args {
    /// Parses raw arguments (without the program/subcommand names).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, String> {
        let mut out = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name".into());
                }
                let (k, v) = if let Some((k, v)) = key.split_once('=') {
                    (k.to_string(), v.to_string())
                } else if iter.peek().map(|n| !n.starts_with("--")).unwrap_or(false) {
                    let v = iter.next().expect("peeked");
                    (key.to_string(), v)
                } else {
                    (key.to_string(), "true".into())
                };
                if out.options.insert(k.clone(), v).is_some() {
                    return Err(format!("duplicate option --{k}"));
                }
            } else {
                out.positional.push(a);
            }
        }
        Ok(out)
    }

    /// String option with a default.
    pub fn opt(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Optional string option.
    pub fn opt_maybe(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// Numeric option with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.num_maybe(key)?.unwrap_or(default))
    }

    /// Optional numeric option: `None` when absent, an error when given
    /// but unparsable.
    pub fn num_maybe<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("invalid value for --{key}: {v}"))
            })
            .transpose()
    }

    /// Returns `true` if a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).map(|v| v != "false").unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse(&["ResNet-50", "--batch", "16", "--out=trace.json", "--chrome"]);
        assert_eq!(a.positional, vec!["ResNet-50"]);
        assert_eq!(a.opt("batch", "0"), "16");
        assert_eq!(a.opt("out", ""), "trace.json");
        assert!(a.flag("chrome"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn numeric_parsing() {
        let a = parse(&["--bw", "12.5"]);
        assert_eq!(a.num::<f64>("bw", 0.0).unwrap(), 12.5);
        assert_eq!(a.num::<u64>("batch", 7).unwrap(), 7);
        let bad = parse(&["--bw", "abc"]);
        assert!(bad.num::<f64>("bw", 0.0).is_err());
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["--verbose"]);
        assert!(a.flag("verbose"));
    }

    #[test]
    fn key_equals_value_forms() {
        let a = parse(&["--out=trace.json", "--ratio=0.01", "--name="]);
        assert_eq!(a.opt("out", ""), "trace.json");
        assert_eq!(a.num::<f64>("ratio", 0.0).unwrap(), 0.01);
        assert_eq!(a.opt("name", "x"), "", "--key= yields an empty value");
    }

    #[test]
    fn bare_flags_before_options_and_positionals() {
        let a = parse(&["--chrome", "--batch", "16", "ResNet-50", "--dry-run"]);
        assert!(a.flag("chrome"));
        assert!(a.flag("dry-run"));
        assert_eq!(a.opt("batch", "0"), "16");
        assert_eq!(a.positional, vec!["ResNet-50"]);
    }

    #[test]
    fn negative_number_values() {
        // A leading single dash is a value, not an option.
        let a = parse(&["--offset", "-5", "--scale=-1.25"]);
        assert_eq!(a.num::<i64>("offset", 0).unwrap(), -5);
        assert_eq!(a.num::<f64>("scale", 0.0).unwrap(), -1.25);
        let b = parse(&["-3"]);
        assert_eq!(b.positional, vec!["-3"]);
    }

    #[test]
    fn explain_fingerprint_option_parses() {
        // `sweep --explain <fingerprint>` takes a hex key as its value —
        // both spellings, never as a bare flag.
        let a = parse(&["--explain", "93b1f00ddeadbeef", "--models", "ResNet-50"]);
        assert_eq!(a.opt_maybe("explain"), Some("93b1f00ddeadbeef"));
        let b = parse(&["--explain=93b1"]);
        assert_eq!(b.opt_maybe("explain"), Some("93b1"));
        let bare = parse(&["--explain"]);
        assert_eq!(bare.opt("explain", ""), "true", "bare flag has no key");
        assert!(Args::parse(["--explain".into(), "a".into(), "--explain=b".into()]).is_err());
    }

    #[test]
    fn duplicate_options_are_rejected() {
        let argv = |s: &[&str]| Args::parse(s.iter().map(|x| x.to_string()));
        let err = argv(&["--batch", "8", "--batch", "16"]).unwrap_err();
        assert!(err.contains("duplicate option --batch"), "got: {err}");
        // Mixed spellings of the same key also collide.
        assert!(argv(&["--out=a.json", "--out", "b.json"]).is_err());
        // A repeated bare flag is a duplicate too.
        assert!(argv(&["--verbose", "--verbose"]).is_err());
        // Distinct keys are fine.
        assert!(argv(&["--batch", "8", "--bw", "10"]).is_ok());
    }
}
