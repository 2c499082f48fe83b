//! Minimal `--flag value` argument parsing (no external dependencies).
//!
//! Commands read their flags through [`Flags::get`] and [`Flags::has`],
//! which record every key they look up. Once a command has read all of its
//! flags, and before it does any work, [`Flags::reject_unused`] turns every
//! flag the command line gave but the command never looked up into an
//! error, so a misspelt or unsupported flag cannot silently do nothing.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::fmt;

/// A command-line flag error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlagError {
    /// An argument that is not a `--flag` where one was expected.
    Positional(String),
    /// A bare `--`.
    EmptyName,
    /// A flag given without the value its command reads.
    MissingValue(String),
    /// A value that does not parse as the flag's type.
    Invalid {
        /// The flag name, without the leading `--`.
        key: String,
        /// The value as given.
        raw: String,
    },
    /// Flags the command never read, in command-line order.
    Unused(Vec<String>),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Positional(arg) => {
                write!(f, "unexpected argument `{arg}` (flags start with --)")
            }
            FlagError::EmptyName => write!(f, "empty flag name"),
            FlagError::MissingValue(key) => write!(f, "--{key} needs a value"),
            FlagError::Invalid { key, raw } => write!(f, "invalid value `{raw}` for --{key}"),
            FlagError::Unused(keys) => {
                let names: Vec<String> = keys.iter().map(|k| format!("--{k}")).collect();
                let noun = if keys.len() == 1 { "flag" } else { "flags" };
                write!(
                    f,
                    "unrecognized {noun} {} for this command",
                    names.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for FlagError {}

impl From<FlagError> for String {
    fn from(e: FlagError) -> String {
        e.to_string()
    }
}

/// Parsed flags: `--key value` pairs plus bare boolean switches, in
/// command-line order, and the keys the command has read so far.
#[derive(Debug, Default)]
pub struct Flags {
    /// `(key, value)` per flag; `None` marks a boolean switch.
    given: Vec<(String, Option<String>)>,
    read: RefCell<BTreeSet<String>>,
}

impl Flags {
    /// Parses everything after the subcommand. Flags look like `--key value`;
    /// a flag followed by another flag (or end of input) is a boolean switch.
    pub fn parse(args: &[String]) -> Result<Flags, FlagError> {
        let mut flags = Flags::default();
        let mut k = 0;
        while k < args.len() {
            let arg = &args[k];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(FlagError::Positional(arg.clone()));
            };
            if key.is_empty() {
                return Err(FlagError::EmptyName);
            }
            let value = args.get(k + 1).filter(|n| !n.starts_with("--")).cloned();
            k += if value.is_some() { 2 } else { 1 };
            flags.given.push((key.to_string(), value));
        }
        Ok(flags)
    }

    /// The last occurrence of `key`, recording that the command read it.
    fn lookup(&self, key: &str) -> Option<&Option<String>> {
        self.read.borrow_mut().insert(key.to_string());
        self.given
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A numeric or string value with a default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, FlagError> {
        match self.lookup(key) {
            None => Ok(default),
            Some(None) => Err(FlagError::MissingValue(key.to_string())),
            Some(Some(raw)) => raw.parse().map_err(|_| FlagError::Invalid {
                key: key.to_string(),
                raw: raw.clone(),
            }),
        }
    }

    /// `true` if the boolean switch was given.
    pub fn has(&self, key: &str) -> bool {
        matches!(self.lookup(key), Some(None))
    }

    /// Fails with [`FlagError::Unused`] naming every flag the command line
    /// gave that no [`Flags::get`] or [`Flags::has`] call has read. Call it
    /// once the command has read all of its flags, before it does any work.
    pub fn reject_unused(&self) -> Result<(), FlagError> {
        let read = self.read.borrow();
        let mut unused: Vec<String> = Vec::new();
        for (key, _) in &self.given {
            if !read.contains(key) && !unused.contains(key) {
                unused.push(key.clone());
            }
        }
        if unused.is_empty() {
            Ok(())
        } else {
            Err(FlagError::Unused(unused))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let f = Flags::parse(&argv("--n 8 --watch --rounds 100")).unwrap();
        assert_eq!(f.get("n", 0u16).unwrap(), 8);
        assert_eq!(f.get("rounds", 0u64).unwrap(), 100);
        assert!(f.has("watch"));
        assert!(!f.has("quiet"));
        assert_eq!(f.get("missing", 42u32).unwrap(), 42);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            Flags::parse(&argv("positional")).unwrap_err(),
            FlagError::Positional("positional".into())
        );
        assert_eq!(Flags::parse(&argv("--")).unwrap_err(), FlagError::EmptyName);
        let f = Flags::parse(&argv("--n eight --rounds")).unwrap();
        assert_eq!(
            f.get("n", 0u16).unwrap_err(),
            FlagError::Invalid {
                key: "n".into(),
                raw: "eight".into()
            }
        );
        assert_eq!(
            f.get("rounds", 0u64).unwrap_err(),
            FlagError::MissingValue("rounds".into())
        );
    }

    #[test]
    fn flags_the_command_never_read_are_rejected_by_name() {
        let f = Flags::parse(&argv("--n 5 --roundz 10 --watch --heatmapp --roundz 9")).unwrap();
        assert_eq!(f.get("n", 0u16).unwrap(), 5);
        assert_eq!(f.get("rounds", 500u64).unwrap(), 500);
        assert!(f.has("watch"));
        let err = f.reject_unused().unwrap_err();
        assert_eq!(
            err,
            FlagError::Unused(vec!["roundz".into(), "heatmapp".into()])
        );
        assert_eq!(
            err.to_string(),
            "unrecognized flags --roundz, --heatmapp for this command"
        );
        // Reading a flag, with either accessor, is what accepts it.
        assert_eq!(
            f.get("roundz", 0u64).unwrap(),
            9,
            "the last occurrence wins"
        );
        assert!(f.has("heatmapp"));
        assert_eq!(f.reject_unused(), Ok(()));
        let f = Flags::parse(&argv("--seedz 1")).unwrap();
        assert_eq!(
            f.reject_unused().unwrap_err().to_string(),
            "unrecognized flag --seedz for this command"
        );
    }
}
