//! What the benchmark needs from the machine it runs on: a guard against
//! ambient configuration, peak memory, a scratch directory inside the
//! build tree, and the host fingerprint written into result files.

use std::path::PathBuf;
use std::process::Command;

use crate::json::Json;

/// Refuse to run when any `CONQUER_*` variable is set: the engine reads
/// several (`CONQUER_THREADS`, `CONQUER_MEM_BUDGET`, cache sizes, …), and
/// an ambient one would silently change what is measured. Every knob the
/// benchmark uses is explicit in its own code instead.
pub fn guard_env() -> Result<(), String> {
    guard_vars(std::env::vars_os().filter_map(|(k, _)| k.into_string().ok()))
}

/// [`guard_env`] over an explicit list of variable names.
pub fn guard_vars(names: impl IntoIterator<Item = String>) -> Result<(), String> {
    let mut set: Vec<String> = names
        .into_iter()
        .filter(|k| k.starts_with("CONQUER_"))
        .collect();
    if set.is_empty() {
        return Ok(());
    }
    set.sort();
    Err(format!(
        "refusing to measure with ambient configuration set: {} (unset it; the benchmark's configuration is explicit)",
        set.join(", ")
    ))
}

/// Peak resident set size of this process (`VmHWM`), in MB. `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the engine will use by default.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build tree this executable runs from (`<target>/`), the one place
/// the benchmark writes: temp databases and trace files go to
/// `<target>/bench/`, which version control already ignores.
pub fn scratch_root() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("target/release/bench"));
    // <target>/<profile>/bench  or  <target>/<profile>/deps/test-binary
    let mut dir = exe.parent().map(PathBuf::from).unwrap_or_default();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    dir.pop();
    dir.join("bench")
}

/// A fresh, empty directory under [`scratch_root`], removed on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `<scratch>/<label>-<pid>-<n>`.
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = scratch_root().join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn first_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()?
            .trim()
            .to_string(),
    )
}

/// Host fingerprint for result files. `rustc` and `git` are asked at run
/// time and read `unknown` where they are missing (a bare checkout).
pub fn fingerprint() -> Json {
    let mut out = Json::obj();
    out.push("nproc", nproc())
        .push(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        )
        .push(
            "rustc",
            first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        )
        .push(
            "commit",
            first_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
        )
        .push("os", std::env::consts::OS)
        .push("arch", std::env::consts::ARCH);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ambient_conquer_variables_are_refused_by_name() {
        assert!(guard_vars(["PATH".to_string(), "HOME".to_string()]).is_ok());
        let err = guard_vars([
            "PATH".to_string(),
            "CONQUER_THREADS".to_string(),
            "CONQUER_ADMIT".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("CONQUER_ADMIT, CONQUER_THREADS"), "{err}");
    }

    #[test]
    fn scratch_dirs_are_distinct_and_cleaned_up() {
        let a = ScratchDir::new("t").unwrap();
        let b = ScratchDir::new("t").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(a.path()), 5);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().starts_with(scratch_root()));
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
