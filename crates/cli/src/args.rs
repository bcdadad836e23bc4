//! A small, dependency-free argument parser.
//!
//! Grammar: `distill <command> [positional…] [--flag value | --switch]…`.
//! Flags take exactly one value unless listed as boolean switches by the
//! caller; unknown flags are an error (catching typos beats silently
//! ignoring them).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Parsed command-line input.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The command word (first argument).
    pub command: String,
    /// Positional arguments after the command.
    pub positional: Vec<String>,
    /// `--flag value` pairs.
    pub flags: BTreeMap<String, String>,
    /// Bare `--switch` entries.
    pub switches: BTreeSet<String>,
}

/// Argument-parsing and lookup errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No command given.
    MissingCommand,
    /// A `--flag` appeared with no following value.
    MissingValue(String),
    /// A flag's value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The raw value.
        value: String,
        /// Expected type, for the message.
        expected: &'static str,
    },
    /// A flag was given that the command does not understand.
    UnknownFlag(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given (try `distill help`)"),
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "flag --{flag}: cannot parse {value:?} as {expected}")
            }
            ArgError::UnknownFlag(flag) => {
                write!(f, "unknown flag --{flag} (try `distill help`)")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name). `switches` lists the
    /// flags that take no value.
    pub fn parse<I, S>(raw: I, switches: &[&str]) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = raw.into_iter().map(Into::into).peekable();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        let mut args = Args {
            command,
            ..Args::default()
        };
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if switches.contains(&name) {
                    args.switches.insert(name.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(name.into()))?;
                    args.flags.insert(name.to_string(), value);
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// A string flag with a default.
    pub fn str_or(&self, flag: &str, default: &str) -> String {
        self.flags
            .get(flag)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A parsed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_opt(flag)?.unwrap_or(default))
    }

    /// A parsed flag without a default: `None` when it was not given.
    pub fn get_opt<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ArgError> {
        self.flags
            .get(flag)
            .map(|raw| {
                raw.parse().map_err(|_| ArgError::BadValue {
                    flag: flag.to_string(),
                    value: raw.clone(),
                    expected: std::any::type_name::<T>(),
                })
            })
            .transpose()
    }

    /// `true` iff the switch was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.contains(switch)
    }

    /// Rejects any flag/switch outside the allowed set.
    pub fn ensure_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.flags.keys().chain(self.switches.iter()) {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::UnknownFlag(key.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commands_flags_switches() {
        let a = Args::parse(
            ["run", "--n", "128", "extra", "--json", "--alpha", "0.9"],
            &["json"],
        )
        .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.positional, vec!["extra"]);
        assert_eq!(a.flags.get("n").map(String::as_str), Some("128"));
        assert!(a.has("json"));
        assert_eq!(a.get_or("n", 0u32).unwrap(), 128);
        assert!((a.get_or("alpha", 0.0f64).unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(a.get_or("missing", 7u32).unwrap(), 7);
        assert_eq!(a.get_opt("n").unwrap(), Some(128u32));
        assert_eq!(a.get_opt::<u32>("missing").unwrap(), None);
        assert_eq!(a.str_or("mode", "default"), "default");
    }

    #[test]
    fn missing_command_and_value() {
        assert_eq!(
            Args::parse(Vec::<String>::new(), &[]).unwrap_err(),
            ArgError::MissingCommand
        );
        assert_eq!(
            Args::parse(["run", "--n"], &[]).unwrap_err(),
            ArgError::MissingValue("n".into())
        );
    }

    #[test]
    fn bad_and_unknown_values() {
        let a = Args::parse(["run", "--n", "abc"], &[]).unwrap();
        assert!(matches!(
            a.get_or("n", 0u32),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(
            a.get_opt::<u32>("n"),
            Err(ArgError::BadValue { .. })
        ));
        assert!(a.ensure_known(&["n"]).is_ok());
        assert!(matches!(
            a.ensure_known(&["m"]),
            Err(ArgError::UnknownFlag(_))
        ));
    }

    #[test]
    fn errors_render() {
        assert!(ArgError::MissingCommand.to_string().contains("help"));
        assert!(ArgError::MissingValue("x".into())
            .to_string()
            .contains("--x"));
        assert!(ArgError::UnknownFlag("y".into())
            .to_string()
            .contains("--y"));
        let e = ArgError::BadValue {
            flag: "n".into(),
            value: "zzz".into(),
            expected: "u32",
        };
        assert!(e.to_string().contains("zzz"));
    }
}
