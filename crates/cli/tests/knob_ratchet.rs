//! The default-off audit only moves one way (ROADMAP): this test counts the
//! public fields of every struct in `core/src/config.rs` (so grouping fields
//! into a sub-config cannot hide one) and the `--flags` the CLI parses, and
//! fails when either exceeds the count at the last PR that removed some. A
//! PR that removes more lowers the numbers here; one that needs a new knob
//! has to argue for it by raising them.

use std::collections::BTreeSet;

const MAX_CONFIG_FIELDS: usize = 19;
const MAX_CLI_FLAGS: usize = 24;

fn source(relative: &str) -> String {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn config_fields_and_cli_flags_do_not_grow() {
    let config = source("../core/src/config.rs");
    let fields = config
        .split("#[cfg(test)]")
        .next()
        .unwrap_or_default()
        .lines()
        .filter(|l| l.starts_with("    pub ") && !l.starts_with("    pub fn "))
        .count();
    assert!(fields > 0, "no config struct found");
    assert!(
        fields <= MAX_CONFIG_FIELDS,
        "config.rs declares {fields} public fields, the ratchet allows {MAX_CONFIG_FIELDS}"
    );

    // Every distinct "--flag" literal of the parser (its tests excluded).
    let args = source("src/args.rs");
    let parser = args.split("#[cfg(test)]").next().unwrap_or_default();
    let flags: BTreeSet<&str> = parser
        .split('"')
        .filter(|s| {
            s.strip_prefix("--").is_some_and(|name| {
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '-' || c.is_ascii_digit())
            })
        })
        .collect();
    assert!(flags.contains("--data-dir"), "flag literals not found");
    assert!(
        flags.len() <= MAX_CLI_FLAGS,
        "the CLI parses {} flags, the ratchet allows {MAX_CLI_FLAGS}: {flags:?}",
        flags.len()
    );
}
