//! "Library code returns typed errors and never panics" only moves one way
//! (ROADMAP aim 3): this test counts the `unwrap()` / `expect(` / `panic!` /
//! `unreachable!` sites in each crate's non-test library code — every `.rs`
//! under `crates/<crate>/src` but `src/bin`, its `#[cfg(test)] mod` and
//! comment lines left out — and fails when a crate exceeds its count at the
//! last PR that removed some. A PR that removes more lowers the numbers
//! here; one that adds a site has to argue for it by raising them.

use std::path::Path;

/// (crate directory, sites allowed). PR 24 took `format` from 5 to 0: its
/// readers split arrays off slices instead of `try_into().unwrap()`. PR 26
/// took `store` from 24 to 2: the I/O dispatcher has no lock to `expect`
/// and spawns its workers with a typed error. PR 27 took `table` from 3 to
/// 0: documents serialize into a `Result`, and the content token reads
/// whole eight-byte chunks. `sql` went from 10 to 0 when the parser's own
/// token matcher, `Parser::expect` (all ten), became `expect_token`.
/// `columnar` went from 6 to 5 when `Bitmap::for_each_set` walked its bytes
/// as whole eight-byte chunks, and from 5 to 4 when `Column::iter_values`
/// shared `get`'s accessor after its bounds check. `catalog` went from 3 to
/// 2 when `Catalog::commit` set the head on the ref it had looked up
/// instead of looking it up again. `core` went from 6 to 0 when the
/// admission gate became one FIFO queue and the `system.*` tables returned
/// their batch errors typed.
const CEILINGS: &[(&str, usize)] = &[
    ("bench", 2),
    ("catalog", 2),
    ("checksum", 0),
    ("cli", 2),
    ("columnar", 4),
    ("core", 0),
    ("format", 0),
    ("obs", 6),
    ("planner", 1),
    ("runtime", 0),
    ("sql", 0),
    ("store", 2),
    ("table", 0),
    ("workload", 8),
];

const SITES: [&str; 4] = [".unwrap()", ".expect(", "panic!", "unreachable!"];

/// Panic sites in the library code of every source file under `dir`.
fn sites_under(dir: &Path) -> usize {
    let mut sites = 0;
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !path.ends_with("bin") {
                sites += sites_under(&path);
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let source = std::fs::read_to_string(&path).expect("source file");
            let library = source
                .rfind("#[cfg(test)]\nmod ")
                .map_or(&source[..], |at| &source[..at]);
            let code = library
                .lines()
                .map(str::trim)
                .filter(|l| !l.starts_with("//"));
            sites += code
                .map(|line| SITES.iter().map(|s| line.matches(s).count()).sum::<usize>())
                .sum::<usize>();
        }
    }
    sites
}

#[test]
fn panic_sites_in_library_code_do_not_grow() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut listed = 0;
    for entry in std::fs::read_dir(&crates).expect("crates/") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_string_lossy();
        let Some((_, ceiling)) = CEILINGS.iter().find(|(c, _)| *c == name) else {
            panic!("crate `{name}` has no ceiling in the panic ratchet");
        };
        let sites = sites_under(&crates.join(&*name).join("src"));
        assert!(
            sites <= *ceiling,
            "crates/{name} has {sites} panic sites in library code, the ratchet allows {ceiling}"
        );
        listed += 1;
    }
    assert_eq!(
        listed,
        CEILINGS.len(),
        "a listed crate is gone: lower the list"
    );
}
