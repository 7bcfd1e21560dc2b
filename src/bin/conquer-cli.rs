//! Interactive ConQuer shell.
//!
//! Plain SQL statements (`CREATE TABLE` / `INSERT` / `SELECT`, and
//! `EXPLAIN [ANALYZE] <select>` for plan trees with per-operator runtime
//! statistics) run on the embedded engine; backslash commands expose the
//! clean-answer machinery:
//!
//! ```text
//! \dirty <table> [<id column> [<prob column>]]   register dirty metadata (defaults: id, prob)
//! \clean <select …>                              clean answers (RewriteClean; naive fallback)
//! \expected <select …>                           expected aggregates (COUNT(*)/SUM/AVG)
//! \rewrite <select …>                            show the rewritten SQL
//! \check <select …>                              static analysis: lints + rewritability verdict
//! \explain <select …>                            show the physical plan
//! \gen <sf> <if>                                 load a dirtied TPC-H-lite database
//! \save <dir> / \load <dir>                      persist the catalog as <dir>/wal.log / restore it (crash-safe; \load reports recovery issues)
//! \scrub <dir>                                   checksum-sweep a persisted catalog without loading it
//! \limit [mem <bytes> | disk <bytes> | time <ms> | off]  per-query resource limits (no args: show)
//! \topk <k> <select …>                           k most probable clean answers
//! \why <v1,v2,…> <select …>                      explain one answer's probability
//! \stats                                         dirty-data statistics per table
//! \tables                                        list tables
//! \validate                                      re-check Definition 2 on the dirty tables
//! \help, \quit
//! ```
//!
//! Every SQL statement is linted before it runs; diagnostics print as
//! caret snippets with stable `CQxxxx` codes. Start the shell with
//! `--deny-warnings` to refuse statements that produce any diagnostic.
//!
//! With `--connect HOST:PORT` the shell talks to a running
//! `conquer-server` instead of the embedded engine: SQL statements travel
//! over the wire protocol, `\limit` adjusts the *server* session's
//! budgets, `\stats` shows the server's shared cache and admission
//! counters, `\checkpoint` compacts a durable server's write-ahead log
//! into a fresh base, and `\scrub` checksum-sweeps the
//! server's persistence directory. Engine-side commands (`\clean`,
//! `\gen`, …) are local-only.
//!
//! Example session:
//!
//! ```text
//! conquer> CREATE TABLE c (id TEXT, income INTEGER, prob DOUBLE)
//! conquer> INSERT INTO c VALUES ('c1', 120000, 0.9), ('c1', 80000, 0.1)
//! conquer> \dirty c
//! conquer> \clean SELECT id FROM c WHERE income > 100000
//! id | probability
//! c1 | 0.9000
//! ```

use std::io::{self, BufRead, Write};

use conquer::prelude::*;
use conquer_core::{naive::NaiveOptions, DirtyTableMeta, EvalStrategy, RewriteExpected};
use conquer_datagen::{
    dirty::{dirty_database, ProbMode, UisConfig},
    perturb::PerturbOptions,
    tpch::TpchConfig,
};

struct Shell {
    db: Database,
    spec: DirtySpec,
    /// `--deny-warnings`: refuse to run statements with lint warnings.
    deny_warnings: bool,
}

impl Shell {
    fn new() -> Self {
        Shell {
            db: Database::new(),
            spec: DirtySpec::new(),
            deny_warnings: false,
        }
    }

    fn dirty(&self) -> conquer_core::DirtyDatabase {
        conquer_core::DirtyDatabase::new_unvalidated(self.db.clone(), self.spec.clone())
    }

    /// Render `sql`'s diagnostics (caret snippets and all). Returns an error
    /// when the statement must not run: any error-severity diagnostic, or —
    /// under `--deny-warnings` — any diagnostic at all.
    fn lint(&self, sql: &str) -> Result<(), String> {
        let diags = self.db.analyze(sql);
        if diags.is_empty() {
            return Ok(());
        }
        let rendered: Vec<String> = diags.iter().map(|d| d.render(sql)).collect();
        let fatal = diags.iter().any(|d| d.is_error()) || (self.deny_warnings && !diags.is_empty());
        if fatal {
            let mut msg = rendered.join("\n");
            if !diags.iter().any(|d| d.is_error()) {
                msg.push_str("\nstatement rejected: warnings are denied (--deny-warnings)");
            }
            Err(msg)
        } else {
            for r in rendered {
                eprintln!("{r}");
            }
            Ok(())
        }
    }

    fn handle(&mut self, line: &str) -> Result<bool, String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        if let Some(rest) = line.strip_prefix('\\') {
            return self.command(rest);
        }
        self.lint(line)?;
        let stmt = self.db.prepare(line).map_err(|e| e.to_string())?;
        match stmt.run(&mut self.db).map_err(|e| e.to_string())? {
            conquer_engine::database::ExecOutcome::Created => println!("created."),
            conquer_engine::database::ExecOutcome::Dropped => println!("dropped."),
            conquer_engine::database::ExecOutcome::Inserted(n) => println!("{n} rows."),
            conquer_engine::database::ExecOutcome::Deleted(n) => println!("{n} rows deleted."),
            conquer_engine::database::ExecOutcome::Updated(n) => println!("{n} rows updated."),
            conquer_engine::database::ExecOutcome::Rows(r) => print!("{r}"),
            conquer_engine::database::ExecOutcome::CreatedView(n) => {
                println!("materialized view created ({n} groups).")
            }
            conquer_engine::database::ExecOutcome::DroppedView => println!("view dropped."),
            conquer_engine::database::ExecOutcome::RefreshedView(n) => {
                println!("view refreshed ({n} groups).")
            }
            conquer_engine::database::ExecOutcome::Reclustered(n) => {
                println!("{n} rows reclustered.")
            }
            conquer_engine::database::ExecOutcome::Reannotated(n) => {
                println!("{n} rows reannotated.")
            }
            conquer_engine::database::ExecOutcome::CrossrefApplied(n) => {
                println!("cross-reference applied ({n} clusters).")
            }
        }
        Ok(true)
    }

    fn command(&mut self, rest: &str) -> Result<bool, String> {
        let (cmd, arg) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        match cmd {
            "quit" | "q" => return Ok(false),
            "help" | "h" => println!(
                "SQL statements run directly; \\dirty <t> [id [prob]], \\clean <sql>, \
                 \\expected <sql>, \\rewrite <sql>, \\check <sql>, \\explain <sql>, \
                 \\gen <sf> <if>, \\save <dir>, \\load <dir>, \\scrub <dir>, \
                 \\limit [mem <bytes> | disk <bytes> | time <ms> | off], \
                 \\topk <k> <sql>, \\why <tuple> <sql>, \\stats, \\tables, \\validate, \\quit"
            ),
            "tables" => {
                for t in self.db.catalog().tables() {
                    let mark = if self.spec.meta(t.name()).is_some() {
                        " [dirty]"
                    } else {
                        ""
                    };
                    println!("{} {} [{} rows]{mark}", t.name(), t.schema(), t.len());
                }
            }
            "dirty" => {
                let mut parts = arg.split_whitespace();
                let table = parts.next().ok_or("usage: \\dirty <table> [id [prob]]")?;
                let id = parts.next().unwrap_or("id");
                let prob = parts.next().unwrap_or("prob");
                self.db.catalog().table(table).map_err(|e| e.to_string())?;
                self.spec.add(table, DirtyTableMeta::new(id, prob));
                match self.spec.validate(self.db.catalog()) {
                    Ok(()) => println!("registered {table} (id = {id}, prob = {prob})."),
                    Err(e) => println!("registered, but validation failed: {e}"),
                }
            }
            "validate" => match self.spec.validate(self.db.catalog()) {
                Ok(()) => println!("ok: all dirty tables satisfy Definition 2."),
                Err(e) => println!("invalid: {e}"),
            },
            "clean" => {
                let answers = self
                    .dirty()
                    .clean_answers_with(arg, EvalStrategy::Auto(NaiveOptions::default()))
                    .map_err(|e| e.to_string())?;
                print!("{answers}");
            }
            "expected" => {
                let result = self
                    .dirty()
                    .expected_answers(arg)
                    .map_err(|e| e.to_string())?;
                print!("{result}");
            }
            "rewrite" => {
                let stmt = conquer_sql::parse_select(arg).map_err(|e| e.to_string())?;
                match conquer_core::RewriteClean.rewrite(self.db.catalog(), &self.spec, &stmt) {
                    Ok(rw) => println!("{rw}"),
                    Err(e) => {
                        // Maybe it is an aggregate query.
                        match RewriteExpected.rewrite(&self.spec, &stmt) {
                            Ok(rw) => println!("{rw}  -- (expected-aggregate form)"),
                            Err(_) => return Err(e.to_string()),
                        }
                    }
                }
            }
            "check" => {
                // Full static analysis: engine lints (with caret snippets)
                // plus the Definition 7 rewritability verdict.
                let diags = self.dirty().analyze(arg);
                for d in &diags {
                    // CQ1007 carries the rendered reason tree as its help
                    // text; \check prints the tree itself below.
                    if d.code != conquer_engine::Code::NaiveFallback {
                        println!("{}", d.render(arg));
                    }
                }
                let n_errors = diags.iter().filter(|d| d.is_error()).count();
                if n_errors > 0 {
                    println!("{n_errors} error(s); rewritability not checked.");
                } else {
                    let stmt = conquer_sql::parse_select(arg).map_err(|e| e.to_string())?;
                    match conquer_core::explain_rewritable(self.db.catalog(), &self.spec, &stmt)
                        .map_err(|e| e.to_string())?
                    {
                        Ok(graph) => println!(
                            "rewritable; join graph: {} (root: {})",
                            graph.describe(),
                            graph
                                .root
                                .map(|r| graph.bindings[r].clone())
                                .unwrap_or_default()
                        ),
                        Err(reason) => println!("{}", reason.render_tree(Some(arg))),
                    }
                }
                if self.deny_warnings && !diags.is_empty() {
                    return Err(format!(
                        "{} diagnostic(s); failing because of --deny-warnings",
                        diags.len()
                    ));
                }
            }
            "explain" => {
                let sql = format!("EXPLAIN {arg}");
                let plan = self.db.prepare(&sql).and_then(|stmt| stmt.query(&self.db));
                for line in &plan.map_err(|e| e.to_string())?.rows {
                    println!("{}", line[0]);
                }
            }
            "gen" => {
                let mut parts = arg.split_whitespace();
                let sf: f64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("usage: \\gen <sf> <if>")?;
                let if_factor: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("usage: \\gen <sf> <if>")?;
                let dirty = dirty_database(UisConfig {
                    tpch: TpchConfig { sf, seed: 42 },
                    if_factor,
                    prob_mode: ProbMode::InfoLoss,
                    perturb: PerturbOptions::default(),
                })
                .map_err(|e| e.to_string())?;
                self.spec = dirty.spec().clone();
                self.db = dirty.db().clone();
                println!(
                    "loaded dirty TPC-H-lite: {} rows across {} tables.",
                    self.db.catalog().total_rows(),
                    self.db.catalog().len()
                );
            }
            "topk" => {
                let (k, sql) = arg
                    .split_once(char::is_whitespace)
                    .ok_or("usage: \\topk <k> <select …>")?;
                let k: u64 = k.parse().map_err(|_| "k must be a number")?;
                let answers = self
                    .dirty()
                    .clean_answers_topk(sql.trim(), k)
                    .map_err(|e| e.to_string())?;
                print!("{answers}");
            }
            "why" => {
                let (tuple, sql) = arg
                    .split_once(char::is_whitespace)
                    .ok_or("usage: \\why <v1,v2,…> <select …>")?;
                let answer: Vec<conquer_storage::Value> = tuple
                    .split(',')
                    .map(|v| {
                        let v = v.trim();
                        if let Ok(i) = v.parse::<i64>() {
                            conquer_storage::Value::Int(i)
                        } else if let Ok(f) = v.parse::<f64>() {
                            conquer_storage::Value::Float(f)
                        } else {
                            conquer_storage::Value::text(v)
                        }
                    })
                    .collect();
                let explanation = conquer_core::explain_answer(&self.dirty(), sql.trim(), &answer)
                    .map_err(|e| e.to_string())?;
                print!("{explanation}");
            }
            "stats" => {
                let dirty = self.dirty();
                let stats =
                    conquer_datagen::stats::database_stats(&dirty).map_err(|e| e.to_string())?;
                for s in &stats {
                    println!(
                        "{:<10} {:>8} rows  {:>8} entities  mean {:>5.2}  max {:>3}  \
                         dup {:>5.1}%  2^{:>6.0} candidates",
                        s.table,
                        s.rows,
                        s.entities,
                        s.mean_cluster_size,
                        s.max_cluster_size,
                        s.duplicated_fraction * 100.0,
                        s.log2_candidates
                    );
                }
                println!("{}", conquer_datagen::stats::summarize(&stats));
            }
            "save" => {
                if arg.is_empty() {
                    return Err("usage: \\save <dir>".into());
                }
                conquer_storage::save_catalog(self.db.catalog(), std::path::Path::new(arg))
                    .map_err(|e| e.to_string())?;
                println!(
                    "saved {} tables to {arg}/{}.",
                    self.db.catalog().len(),
                    conquer_storage::wal::WAL_FILE
                );
            }
            "scrub" => {
                if arg.is_empty() {
                    return Err("usage: \\scrub <dir>".into());
                }
                let report =
                    conquer_storage::scrub(std::path::Path::new(arg)).map_err(|e| e.to_string())?;
                for issue in &report.issues {
                    println!("scrub: {issue}");
                }
                println!(
                    "{}: {} clean, {} corrupt, {} quarantined.",
                    if report.is_clean() {
                        "scrub clean"
                    } else {
                        "SCRUB FOUND CORRUPTION"
                    },
                    report.clean,
                    report.corrupt,
                    report.quarantined
                );
            }
            "load" => {
                if arg.is_empty() {
                    return Err("usage: \\load <dir>".into());
                }
                let (catalog, report) =
                    conquer_storage::load_catalog_recover(std::path::Path::new(arg))
                        .map_err(|e| e.to_string())?;
                for issue in &report.issues {
                    eprintln!("recovery: {issue}");
                }
                if report.wal_commits_replayed > 0 {
                    eprintln!(
                        "recovery: replayed {} write-ahead-log commit(s)",
                        report.wal_commits_replayed
                    );
                }
                self.db = Database::from_catalog(catalog);
                self.db.set_spill_dir(std::path::Path::new(arg));
                self.spec = DirtySpec::new();
                println!(
                    "loaded {} tables ({} rows); re-register dirty metadata with \\dirty.",
                    self.db.catalog().len(),
                    self.db.catalog().total_rows()
                );
            }
            "limit" => {
                let mut parts = arg.split_whitespace();
                match (parts.next(), parts.next()) {
                    (None, _) => {
                        let l = self.db.limits();
                        println!(
                            "memory: {}, disk: {}, timeout: {}",
                            l.mem_bytes
                                .map_or("unlimited".into(), |b| format!("{b} bytes")),
                            match l.disk_bytes {
                                Some(0) => "off (no spilling)".into(),
                                Some(b) => format!("{b} bytes"),
                                None => "unlimited".to_string(),
                            },
                            l.timeout.map_or("unlimited".into(), |t| format!("{t:?}")),
                        );
                    }
                    (Some("off"), _) => {
                        self.db.set_limits(ExecLimits::none());
                        println!("limits cleared.");
                    }
                    (Some("mem"), Some(bytes)) => {
                        let bytes: u64 = bytes.parse().map_err(|_| "usage: \\limit mem <bytes>")?;
                        self.db.set_limits(self.db.limits().with_mem_bytes(bytes));
                        println!(
                            "memory budget: {bytes} bytes per query \
                             (overflow spills to disk; \\limit disk 0 to forbid)."
                        );
                    }
                    (Some("disk"), Some(bytes)) => {
                        let bytes: u64 =
                            bytes.parse().map_err(|_| "usage: \\limit disk <bytes>")?;
                        self.db.set_limits(self.db.limits().with_disk_bytes(bytes));
                        if bytes == 0 {
                            println!("spilling disabled; queries abort at the memory budget.");
                        } else {
                            println!("spill-disk budget: {bytes} bytes per query.");
                        }
                    }
                    (Some("time"), Some(ms)) => {
                        let ms: u64 = ms.parse().map_err(|_| "usage: \\limit time <ms>")?;
                        self.db.set_limits(
                            self.db
                                .limits()
                                .with_timeout(std::time::Duration::from_millis(ms)),
                        );
                        println!("query timeout: {ms} ms.");
                    }
                    _ => {
                        return Err(
                            "usage: \\limit [mem <bytes> | disk <bytes> | time <ms> | off]".into(),
                        )
                    }
                }
            }
            other => return Err(format!("unknown command \\{other}; try \\help")),
        }
        Ok(true)
    }
}

/// Client mode (`--connect`): forward each line to a `conquer-server`
/// over the wire protocol and render the typed responses.
struct RemoteShell {
    client: conquer_server::Client,
}

impl RemoteShell {
    fn connect(addr: &str) -> Result<Self, String> {
        let client = conquer_server::Client::connect(addr)
            .map_err(|e| format!("connecting to {addr}: {e}"))?;
        Ok(RemoteShell { client })
    }

    fn handle(&mut self, line: &str) -> Result<bool, String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(true);
        }
        if let Some(rest) = line.strip_prefix('\\') {
            return self.command(rest);
        }
        match self.client.sql(line).map_err(|e| e.to_string())? {
            conquer_server::Response::Rows(rows) => print_remote_rows(&rows),
            conquer_server::Response::Ok(summary) => println!("{summary}."),
            conquer_server::Response::Stats(_) => {}
        }
        Ok(true)
    }

    fn command(&mut self, rest: &str) -> Result<bool, String> {
        let (cmd, arg) = match rest.split_once(char::is_whitespace) {
            Some((c, a)) => (c, a.trim()),
            None => (rest, ""),
        };
        match cmd {
            "quit" | "q" => {
                let _ = self.client.quit();
                return Ok(false);
            }
            "help" | "h" => println!(
                "connected mode: SQL statements run on the server; \
                 \\limit [mem <bytes> | disk <bytes> | time <ms> | off], \
                 \\stats (server cache/admission counters), \\checkpoint (compact the \
                 server's WAL), \\scrub (checksum-sweep the server's storage), \
                 \\epoch, \\ping, \\quit. \
                 Engine commands (\\clean, \\gen, …) need a local shell."
            ),
            "limit" => match self.client.request(&format!("LIMIT {arg}")) {
                Ok(conquer_server::Response::Ok(summary)) => println!("{summary}"),
                Ok(other) => return Err(format!("unexpected response: {other:?}")),
                Err(e) => return Err(e.to_string()),
            },
            "stats" => {
                for (key, value) in self.client.stats().map_err(|e| e.to_string())? {
                    println!("{key:<16} {value}");
                }
            }
            "checkpoint" => match self.client.request("CHECKPOINT") {
                Ok(conquer_server::Response::Ok(summary)) => println!("{summary}."),
                Ok(other) => return Err(format!("unexpected response: {other:?}")),
                Err(e) => return Err(e.to_string()),
            },
            "scrub" => match self.client.request("SCRUB") {
                Ok(conquer_server::Response::Ok(summary)) => println!("{summary}."),
                Ok(conquer_server::Response::Stats(stats)) => {
                    for (key, value) in stats {
                        println!("{key:<20} {value}");
                    }
                }
                Ok(other) => return Err(format!("unexpected response: {other:?}")),
                Err(e) => return Err(e.to_string()),
            },
            "epoch" => println!("{}", self.client.epoch().map_err(|e| e.to_string())?),
            "ping" => {
                self.client.ping().map_err(|e| e.to_string())?;
                println!("pong.");
            }
            other => {
                return Err(format!(
                    "\\{other} is not available over a connection; try \\help"
                ))
            }
        }
        Ok(true)
    }
}

fn print_remote_rows(rows: &conquer_server::Rows) {
    println!("{}", rows.columns.join(" | "));
    for row in &rows.rows {
        println!("{}", row.join(" | "));
    }
    println!(
        "({} rows; {}, epoch {})",
        rows.rows.len(),
        rows.source,
        rows.epoch
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let interactive = args.iter().all(|a| a != "--batch");
    let connect = args
        .iter()
        .position(|a| a == "--connect")
        .and_then(|i| args.get(i + 1).cloned());

    let mut remote = match connect {
        Some(addr) => match RemoteShell::connect(&addr) {
            Ok(shell) => {
                if interactive {
                    println!("ConQuer shell — connected to {addr}. \\help for commands.");
                }
                Some(shell)
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        None => {
            if interactive {
                println!(
                    "ConQuer shell — clean answers over dirty databases. \\help for commands."
                );
            }
            None
        }
    };
    let mut shell = Shell::new();
    shell.deny_warnings = args.iter().any(|a| a == "--deny-warnings");

    let stdin = io::stdin();
    loop {
        if interactive {
            print!("conquer> ");
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let outcome = match &mut remote {
                    Some(r) => r.handle(&line),
                    None => shell.handle(&line),
                };
                match outcome {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => eprintln!("error: {e}"),
                }
            }
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
    }
}
