//! Strict command lines: each command declares the one table of flags it
//! accepts. [`Command::parse`] checks arguments against that table, so an
//! unknown flag or a value flag missing its value is an error naming the
//! flag (the binaries exit 2), never a silently ignored setting; and
//! [`usage`] renders the help text from the same tables.
//!
//! Hand-rolled (std only): the binaries have a few dozen flags, not
//! enough to justify a parser dependency.

use std::collections::HashMap;

/// One `--flag` of a command: its name, whether it takes a value, and
/// the value's hint in the usage text.
pub struct Flag {
    /// The name after `--`.
    pub name: &'static str,
    /// Whether the next argument is this flag's value.
    pub takes_value: bool,
    /// The value's placeholder in the usage text.
    pub hint: &'static str,
}

/// A flag that takes a value.
pub const fn value(name: &'static str, hint: &'static str) -> Flag {
    Flag { name, takes_value: true, hint }
}

/// A flag that takes no value (present → `"true"`).
pub const fn switch(name: &'static str) -> Flag {
    Flag { name, takes_value: false, hint: "" }
}

/// A command: its name (empty for a binary without subcommands), its
/// positional arguments and the only flags it accepts.
pub struct Command {
    /// The subcommand, or `""`.
    pub verb: &'static str,
    /// The positional arguments, as shown in the usage text.
    pub args: &'static str,
    /// Every flag the command accepts.
    pub flags: &'static [Flag],
}

impl Command {
    /// Split `args` into positionals and `--flag [value]` pairs,
    /// accepting only the flags in this command's table. An unknown flag
    /// or a value flag with no value is an error naming the flag.
    pub fn parse(
        &self,
        args: &[String],
    ) -> Result<(Vec<String>, HashMap<String, String>), String> {
        let mut positional = Vec::new();
        let mut flags = HashMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let Some(name) = arg.strip_prefix("--") else {
                positional.push(arg.clone());
                continue;
            };
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == name)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = if flag.takes_value {
                args.next()
                    .ok_or_else(|| format!("--{name} needs a value ({})", flag.hint))?
                    .clone()
            } else {
                "true".to_string()
            };
            flags.insert(name.to_string(), value);
        }
        Ok((positional, flags))
    }
}

/// The usage text of `program`'s `commands`, one entry per command with
/// every flag from its table, wrapped at 92 columns.
pub fn usage(program: &str, commands: &[Command]) -> String {
    const WIDTH: usize = 92;
    let mut text = String::from("usage:");
    for cmd in commands {
        let head = if cmd.verb.is_empty() {
            format!("  {program}")
        } else {
            format!("  {program} {:<8}", cmd.verb)
        };
        let indent = head.len();
        let mut line = format!("{head} {}", cmd.args).trim_end().to_string();
        for f in cmd.flags {
            let item = if f.takes_value {
                format!(" [--{} {}]", f.name, f.hint)
            } else {
                format!(" [--{}]", f.name)
            };
            if line.len() + item.len() > WIDTH {
                text.push('\n');
                text.push_str(&line);
                line = " ".repeat(indent);
            }
            line.push_str(&item);
        }
        text.push('\n');
        text.push_str(line.trim_end());
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMD: Command =
        Command { verb: "run", args: "FILE", flags: &[value("seed", "N"), switch("drain")] };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_values_and_switches() {
        let (pos, flags) = CMD.parse(&args(&["a.bin", "--seed", "7", "--drain"])).unwrap();
        assert_eq!(pos, ["a.bin"]);
        assert_eq!(flags["seed"], "7");
        assert_eq!(flags["drain"], "true");
    }

    #[test]
    fn unknown_and_valueless_flags_are_errors_naming_the_flag() {
        let err = CMD.parse(&args(&["--bogus", "1"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err = CMD.parse(&args(&["--seed"])).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn usage_lists_every_flag_within_the_width() {
        let text = usage("tool", &[CMD]);
        assert!(text.contains("tool run"), "{text}");
        assert!(text.contains("[--seed N]") && text.contains("[--drain]"), "{text}");
        assert!(text.lines().all(|l| l.len() <= 92));
    }
}
