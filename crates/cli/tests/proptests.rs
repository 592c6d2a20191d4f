//! Argument fuzzing: `parse_args` ends every argument vector built from the
//! real subcommand and flag names in a command or an error, never a panic.
//!
//! Only `parse_args` runs, never `run`, so no generated value (a huge
//! `--points` or `--threads`) is ever acted on.

use mrcc_cli::{parse_args, Command};
use proptest::prelude::*;

/// Token pools, `|`-separated: commands, flags (real ones first), values.
const COMMANDS: &str = "cluster|generate|evaluate|info|help|--help|-h|explain";
const FLAGS: &str = "--input|--output|--method|--alpha|--resolutions|--clusters|--noise|\
--threads|--json|--dims|--points|--rotations|--seed|--found|--truth|--|-x|input";
const VALUES: &str = "0|1|4|-1|1e-10|2.5|nan|inf|true|false|mrcc|LAC|harp|doc|a.csv||\
18446744073709551616|99999999999|--input|é,\n";

fn pool(tokens: &'static str) -> Vec<&'static str> {
    tokens.split('|').collect()
}

/// A command word, then flag–value pairs (some swapped), with the last
/// token sometimes dropped.
fn argv_strategy() -> impl Strategy<Value = Vec<String>> {
    let (commands, flags, values) = (pool(COMMANDS), pool(FLAGS), pool(VALUES));
    let pair = (any::<bool>(), 0..flags.len(), 0..values.len());
    (
        0..commands.len(),
        proptest::collection::vec(pair, 0..=6),
        any::<bool>(),
    )
        .prop_map(move |(command, pairs, drop_last)| {
            let mut argv = vec![commands[command].to_string()];
            for (swapped, flag, value) in pairs {
                let (flag, value) = (flags[flag].to_string(), values[value].to_string());
                argv.extend(if swapped {
                    [value, flag]
                } else {
                    [flag, value]
                });
            }
            if drop_last && argv.len() > 1 {
                argv.pop();
            }
            argv
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Parsing never panics; a parsed `cluster` that needs a cluster count
    /// has one, and every error says something.
    #[test]
    fn parse_args_never_panics(argv in argv_strategy()) {
        match parse_args(&argv) {
            Ok(Command::Cluster { method, clusters, .. }) => {
                prop_assert!(!method.needs_k() || clusters.is_some());
            }
            Ok(_) => {}
            Err(message) => prop_assert!(!message.is_empty()),
        }
    }
}
