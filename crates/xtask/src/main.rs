//! Workspace hygiene lints, run as `cargo run -p xtask -- tidy`.
//!
//! Six checks, all textual and std-only (no external dependencies), each
//! implemented as a pure function over a workspace root so the self-tests
//! can run them against seeded fixture trees:
//!
//! 1. **std-sync ban** — no raw `std::sync` lock types (`Mutex`, `RwLock`,
//!    `Condvar`, guards) outside `crates/sync`. Everything else must go
//!    through `conquer_sync`, whose wrappers carry ranks and feed the
//!    lock-order analyzer. Non-lock `std::sync` items (`Arc`, `atomic`,
//!    `LazyLock`, `OnceLock`, `mpsc`, …) stay allowed — in particular
//!    `std::sync::LazyLock<Mutex<..>>` is fine: the inner `Mutex` resolves
//!    to the ranked wrapper.
//! 2. **env-docs** — every `CONQUER_*` environment variable the code reads
//!    must appear in DESIGN.md's configuration table, and every variable
//!    that table documents must still be read by some source file.
//! 3. **unwrap ban** — every library crate root carries
//!    `#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]`,
//!    and no `.unwrap()` / `.expect(` appears in library source outside
//!    `#[cfg(test)]` modules. `crates/bench` (measurement scaffolding that
//!    panics on broken setups by design) and `src/bin` entrypoints are
//!    exempt.
//! 4. **std-fs ban** — no raw `std::fs` IO in library source outside the
//!    `vfs` module and `#[cfg(test)]` modules. This is what makes every IO
//!    fault reachable from a test: storage IO flows through
//!    `conquer_storage::vfs`, so a mounted `SimFs` can fail any call and
//!    enumerate every crash image. `crates/sync`, `crates/bench`, and
//!    `src/bin` entrypoints are exempt (they never touch durable state).
//! 5. **value-keyed-map ban** — no `HashMap`/`HashSet` keyed by a row or a
//!    `Vec<Value>` in `crates/engine/src` outside `#[cfg(test)]` modules.
//!    The executor's grouping, join-build and DISTINCT state all live in
//!    `keytable::KeyTable`, whose arena order is first-seen order; a std
//!    map beside it would need its own rank-and-sort to be deterministic.
//! 6. **diet rule** — a symbol ROADMAP.md records as deleted
//!    ([`DELETED_SYMBOLS`]) may not reappear anywhere in `crates/*/src`,
//!    comments and test modules included: the ROADMAP counts a deletion
//!    only while `grep -rn` for it comes back empty.
//!
//! `crates/xtask` itself and `vendor/` are out of scope for every check.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("tidy") => {
            let root = workspace_root();
            let failures = run_tidy(&root);
            if failures > 0 {
                eprintln!("tidy: {failures} violation(s)");
                std::process::exit(1);
            }
            println!("tidy: all checks passed");
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- tidy");
            std::process::exit(2);
        }
    }
}

fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    match manifest.ancestors().nth(2) {
        Some(root) => root.to_path_buf(),
        None => manifest.to_path_buf(),
    }
}

type Check = fn(&Path) -> Vec<String>;

fn run_tidy(root: &Path) -> usize {
    let checks: [(&str, Check); 6] = [
        ("std-sync lock ban", check_std_sync),
        ("env-var docs", check_env_docs),
        ("unwrap/expect ban", check_unwrap_ban),
        ("std-fs IO ban", check_std_fs),
        ("value-keyed-map ban", check_value_keyed_map),
        ("diet rule", check_deleted_symbols),
    ];
    let mut total = 0;
    for (name, check) in checks {
        let violations = check(root);
        if violations.is_empty() {
            println!("tidy: {name}: ok");
        } else {
            println!("tidy: {name}: {} violation(s)", violations.len());
            for v in &violations {
                println!("  {v}");
            }
            total += violations.len();
        }
    }
    total
}

// ---------------------------------------------------------------- walking

/// Subdirectories of `crates/` (sorted), minus an exclusion list of crate
/// names.
fn crate_dirs(root: &Path, exclude: &[&str]) -> Vec<PathBuf> {
    let mut dirs = Vec::new();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return dirs;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let excluded = exclude.iter().any(|e| name.to_str() == Some(e));
        if path.is_dir() && !excluded {
            dirs.push(path);
        }
    }
    dirs.sort();
    dirs
}

/// All `.rs` files under `dir`, recursively, sorted for stable output.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, &mut out);
    out.sort();
    out
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

fn display(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .display()
        .to_string()
}

// ------------------------------------------------------------- text utils

/// Blank out `// ...` line-comment tails, preserving byte offsets and
/// newlines so line numbers computed on the stripped text match the
/// original. (A `//` inside a string literal also truncates its line —
/// acceptable for a lint, and none of the patterns we search for hide
/// behind one in this tree.)
fn strip_line_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        match line.find("//") {
            Some(idx) => {
                out.push_str(&line[..idx]);
                for ch in line[idx..].chars() {
                    out.push(if ch == '\n' { '\n' } else { ' ' });
                }
            }
            None => out.push_str(line),
        }
    }
    out
}

fn line_of(text: &str, offset: usize) -> usize {
    text.as_bytes()[..offset]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// `(line number, code)` for each line of library code: everything above
/// the first `#[cfg(test)]` (test module convention: everything below is
/// tests), with any `// ...` tail cut off.
fn library_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .enumerate()
        .map(|(idx, line)| (idx + 1, line.find("//").map_or(line, |pos| &line[..pos])))
}

/// The contents of string literals on one line (escape-naive: splits on
/// `"`, which is exact for the plain literals these checks target).
fn string_literals(line: &str) -> Vec<&str> {
    line.split('"').skip(1).step_by(2).collect()
}

fn is_ident_char(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '_'
}

/// Does `hay` contain `word` as a standalone identifier that is not a path
/// segment qualified from the left (i.e. not preceded by `:`)?
fn contains_bare_word(hay: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let prev_ok = hay[..start]
            .chars()
            .next_back()
            .is_none_or(|ch| !is_ident_char(ch) && ch != ':');
        let next_ok = hay[end..]
            .chars()
            .next()
            .is_none_or(|ch| !is_ident_char(ch));
        if prev_ok && next_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Given text starting at `{`, the contents up to the matching `}` (or to
/// the end if unbalanced).
fn brace_group(text: &str) -> &str {
    let mut depth = 0usize;
    for (idx, ch) in text.char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return &text[1..idx];
                }
            }
            _ => {}
        }
    }
    text.get(1..).unwrap_or("")
}

// ---------------------------------------------------- check 1: std::sync

const BANNED_SYNC: [&str; 6] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

/// No raw `std::sync` lock primitives outside the sync layer.
fn check_std_sync(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let mut scopes = crate_dirs(root, &["sync", "xtask"]);
    scopes.push(root.join("src"));
    for scope in scopes {
        for file in rs_files(&scope) {
            scan_std_sync(&read(&file), &display(root, &file), &mut violations);
        }
    }
    violations
}

fn scan_std_sync(text: &str, file: &str, violations: &mut Vec<String>) {
    const NEEDLE: &str = "std::sync::";
    let stripped = strip_line_comments(text);
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(NEEDLE) {
        let at = from + pos;
        let rest = &stripped[at + NEEDLE.len()..];
        from = at + NEEDLE.len();
        let line = line_of(&stripped, at);
        if rest.starts_with('{') {
            let group = brace_group(rest);
            for name in BANNED_SYNC {
                if contains_bare_word(group, name) {
                    violations.push(format!(
                        "{file}:{line}: `{name}` imported from `std::sync` — use \
                         `conquer_sync::{name}` (ranked + analyzable) instead"
                    ));
                }
            }
        } else {
            let ident: String = rest.chars().take_while(|&ch| is_ident_char(ch)).collect();
            if BANNED_SYNC.contains(&ident.as_str()) {
                violations.push(format!(
                    "{file}:{line}: raw `std::sync::{ident}` — use \
                     `conquer_sync::{ident}` (ranked + analyzable) instead"
                ));
            }
        }
    }
}

// ----------------------------------------------------- check 2: env docs

fn is_env_name(lit: &str) -> bool {
    lit.strip_prefix("CONQUER_").is_some_and(|rest| {
        !rest.is_empty() && rest.chars().all(|c| c.is_ascii_uppercase() || c == '_')
    })
}

/// Every `CONQUER_*` environment variable read anywhere in library or
/// binary source must be documented in DESIGN.md's configuration table,
/// and every row of that table must name a variable some source file
/// still reads — a deleted knob may not leave a documented ghost.
fn check_env_docs(root: &Path) -> Vec<String> {
    let design = read(&root.join("DESIGN.md"));
    let mut violations = Vec::new();
    let mut read_names = BTreeSet::new();
    let mut scopes: Vec<PathBuf> = crate_dirs(root, &["xtask"])
        .iter()
        .map(|d| d.join("src"))
        .collect();
    scopes.push(root.join("src"));
    for scope in scopes {
        for file in rs_files(&scope) {
            let text = read(&file);
            for (idx, line) in text.lines().enumerate() {
                for lit in string_literals(line) {
                    if !is_env_name(lit) {
                        continue;
                    }
                    read_names.insert(lit.to_string());
                    if !design.contains(lit) {
                        violations.push(format!(
                            "{}:{}: `{lit}` is read here but missing from DESIGN.md's \
                             environment-variable table",
                            display(root, &file),
                            idx + 1,
                        ));
                    }
                }
            }
        }
    }
    for (idx, line) in design.lines().enumerate() {
        // A table row documents the variable in its first cell.
        let cell = line.strip_prefix("| `").and_then(|r| r.split('`').next());
        if let Some(name) = cell.filter(|n| is_env_name(n) && !read_names.contains(*n)) {
            violations.push(format!(
                "DESIGN.md:{}: `{name}` is in the environment-variable table but no \
                 source file reads it",
                idx + 1,
            ));
        }
    }
    violations
}

// --------------------------------------------------- check 3: unwrap ban

const UNWRAP_DENY_ATTR: &str = "deny(clippy::unwrap_used";

/// Library crates must deny `unwrap`/`expect` outside tests, and no call
/// may appear textually before the first `#[cfg(test)]` in library source.
/// `crates/bench` and `src/bin/` entrypoints are exempt (panic-on-broken-
/// setup is their intended failure mode).
fn check_unwrap_ban(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let mut lib_roots: Vec<PathBuf> = crate_dirs(root, &["bench", "xtask"])
        .iter()
        .map(|d| d.join("src"))
        .collect();
    lib_roots.push(root.join("src"));
    for src in lib_roots {
        let lib = src.join("lib.rs");
        if lib.is_file() && !read(&lib).contains(UNWRAP_DENY_ATTR) {
            violations.push(format!(
                "{}: missing `#![cfg_attr(not(test), deny(clippy::unwrap_used, \
                 clippy::expect_used))]`",
                display(root, &lib),
            ));
        }
        for file in rs_files(&src) {
            let in_bin = file
                .strip_prefix(&src)
                .is_ok_and(|rel| rel.starts_with("bin"));
            if in_bin {
                continue;
            }
            scan_unwraps(&read(&file), &display(root, &file), &mut violations);
        }
    }
    violations
}

fn scan_unwraps(text: &str, file: &str, violations: &mut Vec<String>) {
    // `concat!` keeps the patterns out of this file's own source text, so
    // the check can include its own implementation without self-flagging.
    const UNWRAP: &str = concat!(".unw", "rap()");
    const EXPECT: &str = concat!(".exp", "ect(");
    for (line, code) in library_lines(text) {
        if code.contains(UNWRAP) || code.contains(EXPECT) {
            violations.push(format!(
                "{file}:{line}: `{}` in non-test library code — return a typed error instead",
                if code.contains(UNWRAP) {
                    UNWRAP
                } else {
                    EXPECT
                },
            ));
        }
    }
}

// --------------------------------------------------- check 4: std::fs ban

/// Raw filesystem IO is banned in library source: it must route through
/// `conquer_storage::vfs`, whose free functions call `std::fs` directly
/// (a zero-cost passthrough) and route to a mounted `SimFs`, the one
/// place tests inject IO faults and enumerate crash images. An IO call
/// that bypasses the vfs is invisible to both.
/// The vfs module itself, test modules (below the first `#[cfg(test)]`),
/// `crates/sync`, `crates/bench`, and `src/bin/` entrypoints are exempt.
fn check_std_fs(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let mut scopes: Vec<PathBuf> = crate_dirs(root, &["sync", "bench", "xtask"])
        .iter()
        .map(|d| d.join("src"))
        .collect();
    scopes.push(root.join("src"));
    for src in &scopes {
        for file in rs_files(src) {
            let in_bin = file
                .strip_prefix(src)
                .is_ok_and(|rel| rel.starts_with("bin"));
            let is_vfs = file.file_name().is_some_and(|n| n == "vfs.rs");
            if in_bin || is_vfs {
                continue;
            }
            scan_std_fs(&read(&file), &display(root, &file), &mut violations);
        }
    }
    violations
}

fn scan_std_fs(text: &str, file: &str, violations: &mut Vec<String>) {
    const NEEDLE: &str = "std::fs";
    for (line, code) in library_lines(text) {
        if let Some(pos) = code.find(NEEDLE) {
            // `std::fs` must end there as a path segment (`std::fs::read`,
            // `use std::fs;`) — an identifier continuing is a different
            // name entirely.
            let after = code[pos + NEEDLE.len()..].chars().next();
            if after.is_none_or(|ch| !is_ident_char(ch)) {
                violations.push(format!(
                    "{file}:{line}: raw `std::fs` IO in library code — route it through \
                     `conquer_storage::vfs` so fault injection and crash-state \
                     enumeration see it",
                ));
            }
        }
    }
}

// ------------------------------------------- check 5: value-keyed-map ban

/// The executor keeps value-keyed state in `keytable::KeyTable` only: a
/// std map or set keyed by a row iterates in a per-process order, so each
/// one that held operator state had to carry ranks and sort before every
/// drain. Test modules (below the first `#[cfg(test)]`) may use one as a
/// reference model.
fn check_value_keyed_map(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    let src = root.join("crates/engine/src");
    for file in rs_files(&src) {
        scan_value_keyed_maps(&read(&file), &display(root, &file), &mut violations);
    }
    violations
}

fn scan_value_keyed_maps(text: &str, file: &str, violations: &mut Vec<String>) {
    const BANNED: [&str; 4] = [
        "HashMap<Vec<Value>",
        "HashMap<Row",
        "HashSet<Row>",
        "HashSet<Vec<Value>",
    ];
    for (line, code) in library_lines(text) {
        if let Some(banned) = BANNED.iter().find(|b| code.contains(**b)) {
            violations.push(format!(
                "{file}:{line}: `{banned}` in the executor — keep value-keyed state in \
                 `keytable::KeyTable`, whose order is first-seen order",
            ));
        }
    }
}

// ------------------------------------------------------ check 6: diet rule

/// Symbols ROADMAP.md's diet rule records as deleted. Extend the list when
/// a PR makes another one grep-empty.
const DELETED_SYMBOLS: [&str; 110] = [
    "canonical_sum",
    "load_state",
    "storage::fault",
    "FaultInjected",
    "fault_point",
    "purge_older_than",
    "ignore-epoch",
    "concat_rows",
    "carried_cells",
    "push_down_projection",
    "GatherSource",
    "prepare_spine",
    "HashProbe",
    "MORSEL_SIZE",
    "with_threads",
    "CONQUER_THREADS",
    "writer_labeled",
    "with_db",
    "run_sql",
    "explain_select",
    "save_to_dir",
    "load_from_dir",
    "effective_limits",
    "persist_dir",
    "DbVersion",
    "WriteState",
    "publish_version",
    "sum_float",
    "agg_merge_partition",
    "decode_acc_states",
    "agg_state_row",
    "AggMerge",
    "hj_load_partition",
    "hj_spill_next",
    "GraceJoin",
    "PartProbe",
    "STATE_FIXED",
    "csv::",
    "SCHEMA_EXT",
    "DATA_EXT",
    "current_data_path",
    "decode_put",
    "ExecLimitsBuilder",
    "HashIndex",
    "IndexPath",
    "index_join_path",
    "IndexJoin",
    "create_index",
    "existing_index",
    "set_validation",
    "validation_enabled",
    "CONQUER_VALIDATE",
    "assign_probabilities_parallel",
    "compute_probabilities_parallel",
    "with_limbs",
    "join_shape",
    "build_left",
    "ConquerError",
    "DELTA_TABLES",
    "capture_old",
    "hidden_delta_tables",
    "spill_enabled",
    "compare_exchange_weak",
    "RealFs",
    "cell_count",
    "support_size",
    "CURRENT_FILE",
    "MANIFEST_FILE",
    "MANIFEST_HEADER",
    "WALSEQ_FILE",
    "TABLE_EXT",
    "save_epoch",
    "next_epoch_number",
    "parse_epoch",
    "read_current",
    "current_walseq",
    "epoch_walseq",
    "list_epoch_dirs",
    "list_tmp_dirs",
    "load_epoch",
    "current_table_path",
    "truncate_wal",
    "verify_epoch",
    "loaded_epoch",
    "read_wal",
    "WalContents",
    "WalRecord",
    "write_file_sync",
    "sync_dir_noted",
    "edit_table",
    "transform_rows",
    "Edit::Delete",
    "Edit::Update",
    "Edit::Insert",
    "VIEWS_META",
    "meta_schema",
    "bump_view_meta",
    "V2_MAGIC",
    "TableDelta",
    "delta_pairs",
    "with_catalog",
    "projection_query",
    "Accumulator",
    "add_sum",
    "retract_sum",
    "bound_type",
    "infer_type",
    "sql_eq",
    "normalize_key",
    "EXACT_INT",
];

/// A deleted symbol may not come back: plain substring search over every
/// source file of every crate but this one, the way `grep -rn` sees it.
fn check_deleted_symbols(root: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    for dir in crate_dirs(root, &["xtask"]) {
        for file in rs_files(&dir.join("src")) {
            let text = read(&file);
            for (idx, line) in text.lines().enumerate() {
                for symbol in DELETED_SYMBOLS.iter().filter(|s| line.contains(**s)) {
                    violations.push(format!(
                        "{}:{}: `{symbol}` is recorded as deleted in ROADMAP.md's diet rule",
                        display(root, &file),
                        idx + 1,
                    ));
                }
            }
        }
    }
    violations
}

// ------------------------------------------------------------------ tests

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new(tag: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("conquer_xtask_{tag}_{}", std::process::id()));
            let _ = fs::remove_dir_all(&root);
            fs::create_dir_all(&root).unwrap();
            Fixture { root }
        }

        fn put(&self, rel: &str, content: &str) -> &Self {
            let path = self.root.join(rel);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, content).unwrap();
            self
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.root);
        }
    }

    #[test]
    fn std_sync_flags_direct_and_grouped_lock_imports() {
        let fx = Fixture::new("sync_bad");
        fx.put("crates/engine/src/lib.rs", "use std::sync::Mutex;\n")
            .put(
                "crates/storage/src/wal.rs",
                "use std::sync::{Arc, RwLock};\nfn f() {}\n",
            );
        let v = check_std_sync(&fx.root);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v[0].contains("engine/src/lib.rs:1") && v[0].contains("Mutex"),
            "{v:?}"
        );
        assert!(
            v[1].contains("wal.rs:1") && v[1].contains("RwLock"),
            "{v:?}"
        );
    }

    #[test]
    fn std_sync_allows_non_lock_items_and_the_sync_crate_itself() {
        let fx = Fixture::new("sync_ok");
        fx.put(
            "crates/engine/src/lib.rs",
            "use std::sync::{Arc, LazyLock, OnceLock};\n\
             use std::sync::atomic::{AtomicUsize, Ordering};\n\
             // a comment mentioning std::sync::Mutex is fine\n\
             static S: std::sync::LazyLock<Mutex<u32>> = todo();\n\
             use std::sync::mpsc::channel;\n",
        )
        .put("crates/sync/src/lib.rs", "pub use std::sync::Mutex;\n");
        assert_eq!(check_std_sync(&fx.root), Vec::<String>::new());
    }

    #[test]
    fn undocumented_env_var_is_flagged() {
        let fx = Fixture::new("env");
        fx.put("DESIGN.md", "| `CONQUER_TIMEOUT_MS` | documented |\n")
            .put(
                "crates/engine/src/lib.rs",
                "fn f() { var(\"CONQUER_TIMEOUT_MS\"); var(\"CONQUER_MYSTERY_KNOB\"); }\n",
            );
        let v = check_env_docs(&fx.root);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("CONQUER_MYSTERY_KNOB"), "{v:?}");
    }

    #[test]
    fn documented_but_unread_env_var_is_flagged() {
        let fx = Fixture::new("env_ghost");
        fx.put(
            "DESIGN.md",
            "| `CONQUER_TIMEOUT_MS` | engine | deadline |\n\
             | `CONQUER_DELETED_KNOB` | shared | a ghost |\n\
             prose may still mention `CONQUER_HISTORY` freely\n",
        )
        .put(
            "crates/engine/src/lib.rs",
            "fn f() { var(\"CONQUER_TIMEOUT_MS\"); }\n",
        );
        let v = check_env_docs(&fx.root);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(
            v[0].contains("DESIGN.md:2") && v[0].contains("CONQUER_DELETED_KNOB"),
            "{v:?}"
        );
    }

    #[test]
    fn unwrap_outside_tests_and_missing_attr_are_flagged() {
        let fx = Fixture::new("unwrap");
        let unwrap_call = concat!("x.unw", "rap()");
        fx.put(
            "crates/engine/src/lib.rs",
            &format!("fn f() {{ {unwrap_call}; }}\n#[cfg(test)]\nmod tests {{}}\n"),
        );
        let v = check_unwrap_ban(&fx.root);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("missing"), "{v:?}");
        assert!(v[1].contains("lib.rs:1"), "{v:?}");
    }

    #[test]
    fn unwrap_inside_test_module_comment_or_bench_is_allowed() {
        let fx = Fixture::new("unwrap_ok");
        let unwrap_call = concat!("x.unw", "rap()");
        let attr = "#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]\n";
        fx.put(
            "crates/engine/src/lib.rs",
            &format!(
                "{attr}// comment: {unwrap_call}\n#[cfg(test)]\nmod tests {{\n    fn t() {{ {unwrap_call}; }}\n}}\n"
            ),
        )
        .put(
            "crates/bench/src/lib.rs",
            &format!("fn f() {{ {unwrap_call}; }}\n"),
        )
        .put(
            "crates/engine/src/bin/tool.rs",
            &format!("fn main() {{ {unwrap_call}; }}\n"),
        );
        assert_eq!(check_unwrap_ban(&fx.root), Vec::<String>::new());
    }

    #[test]
    fn std_fs_outside_vfs_and_tests_is_flagged() {
        let fx = Fixture::new("fs_bad");
        fx.put(
            "crates/storage/src/wal.rs",
            "fn f() { std::fs::read(\"x\").ok(); }\n",
        )
        .put("crates/engine/src/lib.rs", "use std::fs;\nfn f() {}\n");
        let v = check_std_fs(&fx.root);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].contains("lib.rs:1"), "{v:?}");
        assert!(v[1].contains("wal.rs:1"), "{v:?}");
    }

    #[test]
    fn std_fs_in_vfs_tests_bins_bench_and_comments_is_allowed() {
        let fx = Fixture::new("fs_ok");
        fx.put(
            "crates/storage/src/vfs.rs",
            "pub fn f() { std::fs::read(\"x\").ok(); }\n",
        )
        .put(
            "crates/storage/src/persist.rs",
            "// comment: std::fs is banned here\nfn f() {}\n#[cfg(test)]\nmod tests {\n    use std::fs;\n}\n",
        )
        .put(
            "crates/engine/src/bin/tool.rs",
            "fn main() { std::fs::read(\"x\").ok(); }\n",
        )
        .put("crates/bench/src/lib.rs", "use std::fs;\n")
        .put("crates/sync/src/lib.rs", "use std::fs;\n");
        assert_eq!(check_std_fs(&fx.root), Vec::<String>::new());
    }

    #[test]
    fn value_keyed_maps_in_the_executor_are_flagged() {
        let fx = Fixture::new("vkm_bad");
        fx.put(
            "crates/engine/src/exec.rs",
            "type BuildMap = HashMap<Vec<Value>, (usize, Vec<Row>)>;\n\
             struct D { seen: HashSet<Row>, k: HashSet<Vec<Value>> }\n\
             fn f(m: &HashMap<Row, f64>) {}\n",
        );
        let v = check_value_keyed_map(&fx.root);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(
            v[0].contains("exec.rs:1") && v[0].contains("HashMap<Vec<Value>"),
            "{v:?}"
        );
        assert!(v[1].contains("exec.rs:2"), "{v:?}");
        assert!(
            v[2].contains("exec.rs:3") && v[2].contains("HashMap<Row"),
            "{v:?}"
        );
    }

    #[test]
    fn value_keyed_maps_in_tests_comments_and_other_crates_are_allowed() {
        let fx = Fixture::new("vkm_ok");
        fx.put(
            "crates/engine/src/keytable.rs",
            "// replaces HashMap<Vec<Value>, _>\n\
             struct Acc { distinct: HashSet<Value>, by_name: HashMap<String, Row> }\n\
             #[cfg(test)]\nmod tests {\n    type Model = HashMap<Vec<Value>, usize>;\n}\n",
        )
        .put(
            "crates/core/src/naive.rs",
            "fn f(probs: HashMap<Row, f64>) {}\n",
        )
        .put(
            "crates/engine/tests/spill.rs",
            "fn f(seen: HashSet<Row>) {}\n",
        );
        assert_eq!(check_value_keyed_map(&fx.root), Vec::<String>::new());
    }

    #[test]
    fn deleted_symbols_are_flagged_anywhere_in_crate_sources() {
        let fx = Fixture::new("diet_bad");
        fx.put(
            "crates/engine/src/view.rs",
            "fn f() {}\n// was canonical_sum\n#[cfg(test)]\nmod tests { fn load_state() {} }\n",
        )
        .put(
            "crates/storage/src/wal.rs",
            "use conquer_storage::fault::FaultInjected;\n",
        );
        let v = check_deleted_symbols(&fx.root);
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(
            v[0].contains("view.rs:2") && v[0].contains("canonical_sum"),
            "{v:?}"
        );
        assert!(
            v[1].contains("view.rs:4") && v[1].contains("load_state"),
            "{v:?}"
        );
        assert!(
            v[2].contains("wal.rs:1") && v[2].contains("storage::fault"),
            "{v:?}"
        );
        assert!(v[3].contains("FaultInjected"), "{v:?}");
    }

    #[test]
    fn deleted_symbols_outside_crate_sources_are_allowed() {
        let fx = Fixture::new("diet_ok");
        fx.put("crates/engine/src/view.rs", "fn fold() {}\n")
            .put("crates/engine/tests/view.rs", "// canonical_sum is gone\n")
            .put("ROADMAP.md", "`canonical_sum`, `fault_point`\n")
            .put(
                "crates/xtask/src/main.rs",
                "const X: &str = \"load_state\";\n",
            );
        assert_eq!(check_deleted_symbols(&fx.root), Vec::<String>::new());
    }

    /// The real workspace must pass every check — this is the tidy gate's
    /// own regression test.
    #[test]
    fn real_workspace_is_tidy() {
        let root = workspace_root();
        assert!(root.join("Cargo.toml").is_file(), "bad root: {root:?}");
        assert_eq!(check_std_sync(&root), Vec::<String>::new());
        assert_eq!(check_env_docs(&root), Vec::<String>::new());
        assert_eq!(check_unwrap_ban(&root), Vec::<String>::new());
        assert_eq!(check_std_fs(&root), Vec::<String>::new());
        assert_eq!(check_value_keyed_map(&root), Vec::<String>::new());
        assert_eq!(check_deleted_symbols(&root), Vec::<String>::new());
    }
}
