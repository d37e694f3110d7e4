//! The flag parser: the one place a command line is read.
//!
//! `repro`, `flowtime-cli` and `flowtimed` each collect `std::env::args`
//! once, in `main`, and hand the vector to [`Args::parse`] together with
//! their usage text, which is the flag registry: a flag is known exactly
//! when the text the user reads names it, so the two cannot disagree. It
//! sits beside [`crate::registry`] and [`crate::run`] for the same reason
//! they exist — a front end that spells a flag, a scheduler or a run its
//! own way is how the three drifted apart before (DESIGN.md §21).
//!
//! Nothing is guessed. An unknown flag is refused before any work starts;
//! a value that does not parse is an error, never a fall-back to the
//! default; a flag's value is never read as a positional and a switch
//! never swallows one.

use std::collections::HashMap;
use std::str::FromStr;

/// A parsed command line: `--flag value` pairs, bare switches, and the
/// positionals that came with them.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` left to right. A flag is known if `usage` names it
    /// (`--key` as a whole word). Those in `switches` take no value; every
    /// other flag takes the next argument unless that is itself a flag (a
    /// bare `--key` holds the empty string, which no typed getter
    /// accepts). At most `positionals` other arguments are accepted.
    ///
    /// # Errors
    ///
    /// The first unknown flag, or the first positional past the limit, is
    /// returned as a one-line message naming it.
    pub fn parse(
        argv: &[String],
        usage: &str,
        switches: &[&str],
        positionals: usize,
    ) -> Result<Args, String> {
        let words = || usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
        let named =
            |key: &str| !key.is_empty() && words().any(|w| w.strip_prefix("--") == Some(key));
        let mut out = Args::default();
        let mut rest = argv.iter().peekable();
        while let Some(arg) = rest.next() {
            let Some(key) = arg.strip_prefix("--") else {
                if out.positional.len() == positionals {
                    return Err(format!("unexpected positional argument `{arg}`"));
                }
                out.positional.push(arg.clone());
                continue;
            };
            if !named(key) {
                return Err(format!("unknown flag --{key}"));
            }
            let value = if switches.contains(&key) {
                None
            } else {
                rest.next_if(|v| !v.starts_with("--"))
            };
            out.flags
                .insert(key.to_string(), value.cloned().unwrap_or_default());
        }
        Ok(out)
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// True if the flag is present (with or without a value).
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Parsed value of a flag: absent flags yield `default`, present flags
    /// must parse. A bare `--key` or a malformed value is an error (a
    /// typo'd `--workflows banana` must not quietly run the default
    /// experiment).
    pub fn get_parsed<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        parsed(self.get(key), &format!("--{key}"), default)
    }

    /// Parsed comma-separated value of a flag (`--rates 0.1,0.3`), `None`
    /// when the flag is absent. Every item must parse.
    pub fn list<T: FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        self.get(key)
            .map(|raw| {
                let item = |item: &str| {
                    item.trim().parse().map_err(|_| {
                        format!("--{key} requires comma-separated valid values, got `{item}`")
                    })
                };
                raw.split(',').map(item).collect()
            })
            .transpose()
    }

    /// Parsed `index`-th positional, `default` when absent; `name` is how
    /// the usage text calls it.
    pub fn positional<T: FromStr>(
        &self,
        index: usize,
        name: &str,
        default: T,
    ) -> Result<T, String> {
        let raw = self.positional.get(index).map(String::as_str);
        parsed(raw, &format!("[{name}]"), default)
    }
}

/// `raw` parsed as `T`, `default` when absent; `what` names the argument.
fn parsed<T: FromStr>(raw: Option<&str>, what: &str, default: T) -> Result<T, String> {
    match raw {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("{what} requires a valid value, got `{raw}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = s.iter().map(|x| x.to_string()).collect();
        let usage = "[seed] --trace <file> [--n N] [--quiet]\n  --cores/--alt-cores, [--rates a,b]";
        Args::parse(&argv, usage, &["quiet"], 1)
    }

    #[test]
    fn parses_flags_switches_and_positionals() {
        let a = parse(&["--trace", "t.jsonl", "--quiet", "7", "--n", "5"]).unwrap();
        assert_eq!(a.get("trace"), Some("t.jsonl"));
        assert!(a.has("quiet") && !a.has("n-not-given"));
        assert_eq!(a.get_parsed("n", 0u64), Ok(5));
        assert_eq!(a.get_parsed("cores", 7u64), Ok(7));
        // The switch did not swallow the positional after it.
        assert_eq!(a.positional(0, "seed", 1u64), Ok(7));
        assert_eq!(parse(&[]).unwrap().positional(0, "seed", 1u64), Ok(1));
    }

    #[test]
    fn unknown_flags_and_stray_positionals_are_refused_by_name() {
        assert_eq!(
            parse(&["--schedular", "edf"]).unwrap_err(),
            "unknown flag --schedular"
        );
        // Known means named as a whole word: no prefixes, no bare `--`.
        assert_eq!(parse(&["--core", "2"]).unwrap_err(), "unknown flag --core");
        assert_eq!(parse(&["--"]).unwrap_err(), "unknown flag --");
        assert_eq!(
            parse(&["1", "2"]).unwrap_err(),
            "unexpected positional argument `2`"
        );
    }

    #[test]
    fn malformed_values_error_instead_of_defaulting() {
        let a = parse(&["--n", "banana", "--cores", "--trace", "4", "x"]).unwrap();
        assert!(a.get_parsed("n", 0u64).unwrap_err().contains("--n"));
        // A bare valued flag holds the empty string: present, unparseable.
        assert_eq!(a.get("cores"), Some(""));
        assert!(a.get_parsed("cores", 0u64).is_err());
        // A flag's value is never taken for a positional.
        assert_eq!(a.get("trace"), Some("4"));
        assert!(a.positional(0, "seed", 0u64).unwrap_err().contains("`x`"));
    }

    #[test]
    fn lists_parse_every_item_or_fail() {
        let a = parse(&["--cores", "1, 2,4", "--rates", "0.1,x"]).unwrap();
        assert_eq!(a.list::<usize>("cores"), Ok(Some(vec![1, 2, 4])));
        assert_eq!(a.list::<usize>("n"), Ok(None));
        assert!(a.list::<f64>("rates").unwrap_err().contains("--rates"));
    }
}
