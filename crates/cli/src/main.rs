//! `apex-cli` — an interactive shell over the APEX index.
//!
//! ```bash
//! apex-cli --file data.xml          # load an XML file
//! apex-cli --dataset Flix01         # or a generated Table 1 dataset
//! apex-cli --dataset ged --size 200 # or a custom-size family instance
//! apex-cli --dataset Flix01 --buffer-pages 64   # bounded LRU pool
//! apex-cli --dataset Flix01 listen 127.0.0.1:7431 --refresh-every 50
//! apex-cli --dataset Flix01 --wal-dir ./durable listen 127.0.0.1:7431
//! ```
//!
//! `--wal-dir <dir>` makes the session durable: startup recovers the
//! index from the newest verified snapshot in `<dir>` plus a replay of
//! the WAL tail ([`apex::recover`]), every recorded query and refresh
//! swap is logged before it is acknowledged, the refresher (or the
//! shell, on `quit`) checkpoints back into the directory, and the next
//! start resumes at the generation this one reached. Works for both
//! the interactive shell and `listen`.
//!
//! `listen <addr>` serves queries over TCP (the apex-net protocol)
//! instead of opening the shell: remote clients connect with
//! `apex_net::Client` (or the `netload` generator), and with
//! `--refresh-every N` the background refresher keeps swapping refined
//! index generations under the live socket traffic. `--workers`,
//! `--queue-cap` and `--deadline-ms` tune the admission control. Type
//! `stop` (or EOF / `stats`) on stdin to drain gracefully / inspect.
//!
//! `rollout` demonstrates replicated serving end to end: it starts
//! `--replicas` listeners over one engine, drives `--requests` queries
//! from `--clients` concurrent clients that each hold the whole
//! address list, and — while that traffic is in flight — restarts the
//! replicas one at a time ([`apex_net::Server::restart`]). It exits
//! non-zero if any client saw a shed response or an error, or any
//! accounting ledger failed to balance: the zero-downtime rollout
//! invariant, checked from the outside.
//!
//! Commands inside the shell:
//!
//! ```text
//! > //actor/name                 evaluate a query (QTYPE1/2/3 syntax)
//! > explain //actor/name         show the plan, then run it on a private pool
//! > tune 0.005                   refine with the recorded workload
//! > workload                     show the recorded query window
//! > stats                        index statistics
//! > buffer                       cross-query buffer-pool state
//! > required                     current required paths
//! > labels                       label alphabet
//! > save out.idx / load out.idx  persist / restore the index
//! > help, quit
//! ```
//!
//! Queries evaluate through the shared execution layer against one
//! buffer pool that lives for the whole session, so repeated queries
//! show buffer hits; `--buffer-pages N` bounds the pool (LRU) instead
//! of the default unbounded pool.

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use apex::{
    persist, recover, write_checkpoint, Apex, CrashPlan, DurabilityConfig, IndexCell,
    RecoverOptions, RefreshPolicy, Refresher, Wal, WorkloadMonitor,
};
use apex_query::apex_qp::ApexProcessor;
use apex_query::batch::{run_adaptive, QueryProcessor};
use apex_query::explain::explain_apex;
use apex_query::Query;
use apex_storage::bufmgr::BufferHandle;
use apex_storage::{DataTable, PageModel};
use xmlgraph::{LabelPath, XmlGraph};

mod repl;

use repl::{Command, ReplError};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let buffer_pages = match take_buffer_pages(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let refresh_every = match take_refresh_every(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let listen_cfg = match take_listen(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let wal_dir = match take_wal_dir(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let rollout_cfg = match take_rollout(&mut args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let g = match load_graph(&args) {
        Ok(g) => Arc::new(g),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: apex-cli --file <xml> | --dataset <Table1-name|play|flix|ged> \
                 [--size N] [--buffer-pages N] [--refresh-every N] [--wal-dir <dir>] \
                 [listen <addr> [--workers N] [--queue-cap N] [--deadline-ms N]] \
                 [rollout [--replicas N] [--requests N] [--clients N]]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "loaded graph: {} nodes, {} edges, {} labels ({} IDREF)",
        g.node_count(),
        g.edge_count(),
        g.label_count(),
        g.idref_labels().len()
    );
    if let Some(cfg) = rollout_cfg {
        rollout(g, &cfg);
        return;
    }

    let table = DataTable::build(&g, PageModel::default());
    let policy = match refresh_every {
        Some(n) => {
            println!("refresh policy: every {n} recorded queries");
            RefreshPolicy::EveryN(n)
        }
        None => RefreshPolicy::Manual,
    };

    // Durable mode: recover the index + monitor from the WAL directory
    // (first boot and crash recovery are the same code path), then open
    // the log for this life and attach it so every recorded query and
    // refresh swap is durable before it is acknowledged.
    let mut index;
    let mut monitor;
    let mut generation: u64 = 0;
    let wal: Option<Arc<Wal>> = match &wal_dir {
        Some(dir) => {
            let opts = RecoverOptions {
                capacity: 1000,
                min_sup: 0.1,
                policy,
                ..RecoverOptions::default()
            };
            let rec = match recover(Path::new(dir), &g, &opts) {
                Ok(rec) => rec,
                Err(e) => {
                    eprintln!("error: cannot recover from {dir}: {e}");
                    std::process::exit(1);
                }
            };
            for (seq, why) in &rec.report.rejected {
                eprintln!("warning: snapshot snap-{seq:06} rejected: {why}");
            }
            println!(
                "recovered gen {} from {dir}: snapshot {}, {} record(s) replayed ({} applied), \
                 {} torn byte(s) truncated",
                rec.generation,
                match rec.report.snapshot_seq {
                    Some(s) => format!("snap-{s:06}"),
                    None => "none".to_string(),
                },
                rec.report.replayed,
                rec.report.applied,
                rec.report.truncated_bytes,
            );
            index = rec.index;
            monitor = rec.monitor;
            generation = rec.generation;
            match Wal::open(
                Path::new(dir),
                DurabilityConfig::default(),
                CrashPlan::none(),
            ) {
                Ok(w) => {
                    let w = Arc::new(w);
                    monitor.attach_wal(Arc::clone(&w));
                    Some(w)
                }
                Err(e) => {
                    eprintln!("error: cannot open WAL in {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            index = Apex::build_initial(&g);
            monitor = WorkloadMonitor::new(1000, 0.1, policy);
            None
        }
    };
    if let Some(cfg) = listen_cfg {
        listen(g, table, index, monitor, generation, wal, &cfg);
        return;
    }
    // One buffer pool for the whole session: queries warm it, repeats
    // hit it. Processors are rebuilt per eval (tune/load swap the
    // index) but share this pool through cloned handles.
    let buf = match buffer_pages {
        Some(pages) => BufferHandle::with_capacity_pages(pages),
        None => BufferHandle::unbounded(),
    };
    match buffer_pages {
        Some(pages) => println!("buffer pool: {pages} pages (LRU)"),
        None => println!("buffer pool: unbounded"),
    }
    println!("APEX0 ready: {:?}", index.stats());
    println!("type `help` for commands");

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("apex> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        match repl::parse_command(&line) {
            Err(ReplError::Empty) => continue,
            Err(ReplError::Unknown(cmd)) => {
                println!("unknown command `{cmd}` — try `help`");
            }
            Ok(Command::Quit) => break,
            Ok(Command::Help) => println!("{}", repl::HELP),
            Ok(Command::Stats) => println!("{:?}", index.stats()),
            Ok(Command::Buffer) => {
                let s = buf.stats();
                println!("{s}");
                println!(
                    "  {} object(s) resident, capacity {}",
                    buf.objects(),
                    if buf.capacity_pages() == u64::MAX {
                        "unbounded".to_string()
                    } else {
                        format!("{} page(s)", buf.capacity_pages())
                    }
                );
            }
            Ok(Command::Labels) => {
                let mut names: Vec<&str> = g.labels().iter().map(|(_, s)| s).collect();
                names.sort_unstable();
                println!("{}", names.join(" "));
            }
            Ok(Command::Required) => {
                for p in index.required_paths(&g) {
                    println!("  {p}");
                }
            }
            Ok(Command::Workload) => {
                let wl = monitor.workload();
                println!(
                    "{} queries recorded since last tune",
                    monitor.since_refresh()
                );
                let mut rendered: Vec<String> = wl.iter().map(|p| p.render(&g)).collect();
                rendered.sort();
                rendered.dedup();
                for r in rendered.iter().take(30) {
                    println!("  {r}");
                }
            }
            Ok(Command::Tune(min_sup)) => {
                let windowed = monitor.workload().len();
                let steps = monitor.refresh_at(&g, &mut index, min_sup);
                if windowed > 0 {
                    generation += 1; // replay counts non-empty swaps the same way
                }
                println!("refined at minSup {min_sup} in {steps} update steps");
                println!("{:?}", index.stats());
            }
            Ok(Command::Save(path)) => match std::fs::File::create(&path) {
                Ok(f) => {
                    let mut w = BufWriter::new(f);
                    match persist::save(&index, &mut w) {
                        Ok(()) => println!("saved to {path}"),
                        Err(e) => println!("save failed: {e}"),
                    }
                }
                Err(e) => println!("cannot create {path}: {e}"),
            },
            Ok(Command::Load(path)) => match std::fs::File::open(&path) {
                Ok(f) => match persist::load(&mut BufReader::new(f)) {
                    Ok(idx) => {
                        index = idx;
                        println!("loaded {path}: {:?}", index.stats());
                    }
                    Err(e) => println!("load failed: {e}"),
                },
                Err(e) => println!("cannot open {path}: {e}"),
            },
            Ok(Command::Explain(text)) => print!("{}", explain(&g, &index, &table, &buf, &text)),
            Ok(Command::Serve(n)) => {
                generation += serve(&g, &table, &buf, &mut index, &mut monitor, n);
            }
            Ok(Command::Eval(text)) => match Query::parse(&g, &text) {
                Ok(q) => {
                    if let Some(labels) = q.labels() {
                        monitor.record(LabelPath::new(labels.to_vec()));
                        if let Some(steps) = monitor.maybe_refresh(&g, &mut index) {
                            generation += 1; // policy refreshes only fire on non-empty windows
                            println!("auto-refreshed in {steps} update steps (policy)");
                        }
                    }
                    let before = buf.stats();
                    let qp = ApexProcessor::with_buffer(&g, &index, &table, buf.clone());
                    let started = std::time::Instant::now();
                    let res = qp.eval(&q);
                    let elapsed = started.elapsed();
                    for n in res.nodes.iter().take(20) {
                        let tag = g.label_str(g.tag(*n));
                        match g.value(*n) {
                            Some(v) => println!("  node {} <{}> \"{}\"", n.0, tag, v),
                            None => println!("  node {} <{}>", n.0, tag),
                        }
                    }
                    if res.nodes.len() > 20 {
                        println!("  … {} more", res.nodes.len() - 20);
                    }
                    println!(
                        "{} node(s) in {:.2} ms | {}",
                        res.nodes.len(),
                        apex_query::stats::millis(elapsed),
                        res.cost
                    );
                    println!("buffer: {}", buf.stats() - before);
                    let ops = res.cost.ops.render();
                    if !ops.is_empty() {
                        print!("{ops}");
                    }
                }
                Err(e) => println!("parse error: {e}"),
            },
        }
    }
    // Durable shells leave a clean directory behind: the final
    // checkpoint means the next start recovers without replaying a
    // single record.
    if let Some(w) = &wal {
        let cell = IndexCell::with_generation(index.clone(), generation);
        let m = Mutex::new(monitor.clone());
        match write_checkpoint(&cell, &m, w) {
            Ok(seq) => println!("final checkpoint snap-{seq:06} written"),
            Err(e) => eprintln!("warning: final checkpoint failed: {e}"),
        }
    }
    println!("bye");
}

/// The shell's `explain`: the plan, rendered with the session pool's
/// state, then the predicted-vs-actual table of one evaluation on a
/// private pool. The session pool is read, never charged, so `explain`
/// leaves no hits or misses behind for later evals or `buffer`.
fn explain(
    g: &XmlGraph,
    index: &Apex,
    table: &DataTable,
    buf: &BufferHandle,
    text: &str,
) -> String {
    let q = match Query::parse(g, text) {
        Ok(q) => q,
        Err(e) => return format!("parse error: {e}\n"),
    };
    let mut s = explain_apex(index, &q).render_with_buffer(g, &q, &buf.stats());
    if let Some(rep) = ApexProcessor::new(g, index, table).eval(&q).plan {
        s.push_str(&rep.render());
    }
    s
}

/// Replays the recorded workload window (cycled to `n` queries) through
/// the concurrent serving layer: the index moves into an [`IndexCell`],
/// a background [`Refresher`] adapts it as the replay re-records the
/// queries, and the final snapshot + monitor state move back into the
/// shell when the run completes. Returns the number of generations the
/// run published (the shell's durable generation counter advances by
/// the same amount — matching what WAL replay will reconstruct).
fn serve(
    g: &Arc<XmlGraph>,
    table: &DataTable,
    buf: &BufferHandle,
    index: &mut Apex,
    monitor: &mut WorkloadMonitor,
    n: usize,
) -> u64 {
    let window: Vec<LabelPath> = monitor.workload().iter().cloned().collect();
    if window.is_empty() {
        println!("no recorded workload — run some queries first");
        return 0;
    }
    if matches!(monitor.policy(), RefreshPolicy::Manual) {
        println!("note: refresh policy is manual; start with --refresh-every N to see swaps");
    }
    let queries: Vec<Query> = window
        .iter()
        .cycle()
        .take(n)
        .map(|p| Query::PartialPath {
            labels: p.labels().to_vec(),
        })
        .collect();
    let cell = Arc::new(IndexCell::new(index.clone()));
    let shared_monitor = Arc::new(Mutex::new(monitor.clone()));
    let refresher = match Refresher::spawn(
        Arc::clone(g),
        Arc::clone(&cell),
        Arc::clone(&shared_monitor),
    ) {
        Ok(r) => r,
        Err(e) => {
            println!("cannot spawn refresher: {e}");
            return 0;
        }
    };
    let stats = run_adaptive(g, table, &cell, &shared_monitor, &refresher, &queries, buf);
    refresher.wait_idle();
    let serve_stats = refresher.shutdown();
    println!("{}", stats.summary());
    for line in stats.generation_lines() {
        println!("  {line}");
    }
    println!(
        "refreshes: {} published, {} coalesced, {} empty windows | swap wall total {:.2} ms, max {:.2} ms",
        serve_stats.refreshes,
        serve_stats.coalesced,
        serve_stats.empty_windows,
        apex_query::stats::millis(serve_stats.swap_total()),
        apex_query::stats::millis(serve_stats.swap_max()),
    );
    for r in &serve_stats.records {
        println!(
            "  swap -> gen {}: {} update steps over {} queries in {:.2} ms",
            r.generation,
            r.steps,
            r.window,
            apex_query::stats::millis(r.wall)
        );
    }
    // Adopt the final published index and the replay's monitor state.
    *index = cell.snapshot().index().clone();
    *monitor = shared_monitor
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone();
    println!("adopted gen {} as the session index", cell.generation());
    serve_stats.refreshes
}

/// `listen` subcommand configuration.
struct ListenConfig {
    addr: String,
    workers: usize,
    queue_cap: usize,
    deadline_ms: u64,
}

/// Serves queries over TCP instead of the interactive shell: the index
/// moves into an [`IndexCell`], the background [`Refresher`] adapts it
/// from the remote workload (snapshot swaps under live socket
/// traffic), and stdin controls the lifecycle — `stats` prints live
/// accounting, `stop`/`quit`/EOF drains gracefully.
///
/// With a WAL (durable mode) the cell resumes at the recovered
/// `generation`, the refresher checkpoints after swaps and flushes a
/// final checkpoint on drain, and every acknowledged query is already
/// in the log (the monitor logs under its own lock, before the
/// response is written).
fn listen(
    g: Arc<XmlGraph>,
    table: DataTable,
    index: Apex,
    monitor: WorkloadMonitor,
    generation: u64,
    wal: Option<Arc<Wal>>,
    cfg: &ListenConfig,
) {
    let table = Arc::new(table);
    let cell = Arc::new(IndexCell::with_generation(index, generation));
    let monitor = Arc::new(Mutex::new(monitor));
    let spawned = match &wal {
        Some(w) => Refresher::spawn_durable(
            Arc::clone(&g),
            Arc::clone(&cell),
            Arc::clone(&monitor),
            Arc::clone(w),
        ),
        None => Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor)),
    };
    let refresher = match spawned {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("cannot spawn refresher: {e}");
            std::process::exit(1);
        }
    };
    let engine = apex_net::Engine::new(
        Arc::clone(&g),
        table,
        Arc::clone(&cell),
        Arc::clone(&monitor),
    )
    .with_refresher(Arc::clone(&refresher));
    let server_cfg = apex_net::ServerConfig {
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        default_deadline: (cfg.deadline_ms > 0)
            .then(|| std::time::Duration::from_millis(cfg.deadline_ms)),
        ..apex_net::ServerConfig::default()
    };
    let mut server = match apex_net::Server::start(engine, server_cfg, cfg.addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    println!(
        "listening on {} ({} workers, queue cap {}) — `stats` for live counters, `stop` to drain",
        server.local_addr(),
        cfg.workers,
        cfg.queue_cap
    );
    let stdin = std::io::stdin();
    loop {
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF: drain
            Ok(_) => {}
        }
        match line.trim() {
            "stop" | "quit" | "q" => break,
            "stats" => {
                println!("{}", server.stats());
                println!("generation {} published", cell.generation());
            }
            "" => {}
            other => println!("unknown `{other}` — `stats` or `stop`"),
        }
    }
    println!("draining…");
    let net = server.drain();
    let per_conn = server_conn_lines(&server);
    for l in per_conn {
        println!("  {l}");
    }
    println!("{net}");
    if !net.balanced() {
        eprintln!("warning: accounting imbalance — a request was silently dropped");
    }
    drop(server); // releases the engine's refresher handle
    let serve_stats = match Arc::try_unwrap(refresher) {
        Ok(r) => r.shutdown(),
        Err(shared) => {
            // Something still holds the refresher; signal and let its
            // Drop join when the last handle goes away.
            shared.begin_shutdown();
            return;
        }
    };
    println!(
        "refresher: {} generation(s) published, {} coalesced | swap wall total {:.2} ms, max {:.2} ms",
        serve_stats.refreshes,
        serve_stats.coalesced,
        apex_query::stats::millis(serve_stats.swap_total()),
        apex_query::stats::millis(serve_stats.swap_max()),
    );
    if wal.is_some() {
        println!(
            "durability: {} checkpoint(s) written, {} failed — next start resumes at gen {}",
            serve_stats.checkpoints,
            serve_stats.checkpoint_errors,
            cell.generation()
        );
    }
}

/// Per-connection accounting lines for the drain report.
fn server_conn_lines(server: &apex_net::Server) -> Vec<String> {
    server
        .connection_stats()
        .iter()
        .enumerate()
        .map(|(i, c)| {
            format!(
                "conn {i}: accepted {} served {} shed {} timed-out {}",
                c.accepted, c.served, c.shed, c.timed_out
            )
        })
        .collect()
}

/// `rollout` subcommand configuration.
struct RolloutConfig {
    replicas: usize,
    requests: usize,
    clients: usize,
}

/// Serves the loaded graph from a replica pool under live load and
/// restarts every replica at least once while the clients run,
/// asserting the zero-downtime invariant from a client's point of
/// view. Exits non-zero on any client-visible shed or error, or any
/// accounting imbalance.
fn rollout(g: Arc<XmlGraph>, cfg: &RolloutConfig) {
    use apex_net::{Client, NetStats, RetryPolicy, Server, ServerConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn add(total: &mut NetStats, s: &NetStats) {
        total.accepted += s.accepted;
        total.served += s.served;
        total.shed += s.shed;
        total.timed_out += s.timed_out;
    }

    // A dataset-independent workload: single-label partial-path queries
    // over the first few element labels of whatever graph was loaded.
    let queries: Vec<String> = g
        .labels()
        .iter()
        .map(|(_, s)| s)
        .filter(|s| !s.starts_with('@'))
        .take(4)
        .map(|s| format!("//{s}"))
        .collect();
    if queries.is_empty() {
        eprintln!("error: the loaded graph has no element labels to query");
        std::process::exit(1);
    }
    let table = Arc::new(DataTable::build(&g, PageModel::default()));
    let cell = Arc::new(IndexCell::new(Apex::build_initial(&g)));
    let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(
        256,
        0.3,
        RefreshPolicy::EveryN(50),
    )));
    let refresher = match Refresher::spawn(Arc::clone(&g), Arc::clone(&cell), Arc::clone(&monitor))
    {
        Ok(r) => Arc::new(r),
        Err(e) => {
            eprintln!("error: cannot spawn refresher: {e}");
            std::process::exit(1);
        }
    };
    let engine = apex_net::Engine::new(Arc::clone(&g), table, Arc::clone(&cell), monitor)
        .with_refresher(Arc::clone(&refresher));
    let mut servers = Vec::with_capacity(cfg.replicas);
    for _ in 0..cfg.replicas {
        match Server::start(engine.clone(), ServerConfig::default(), "127.0.0.1:0") {
            Ok(s) => servers.push(s),
            Err(e) => {
                eprintln!("error: cannot start replica: {e}");
                std::process::exit(1);
            }
        }
    }
    drop(engine);
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.local_addr()).collect();
    println!(
        "rollout: {} replica(s) at {:?} | {} request(s) over {} client(s)",
        cfg.replicas, addrs, cfg.requests, cfg.clients
    );
    println!("workload: {}", queries.join(" "));

    let clients = cfg.clients.max(1);
    let per_client = cfg.requests.div_ceil(clients);
    let policy = RetryPolicy::default();
    let (mut ok, mut sheds, mut errors) = (0u64, 0u64, 0u64);
    let (mut retried, mut reconnects) = (0u64, 0u64);
    let mut retired = NetStats::default();
    let (mut restarted, mut in_flight) = (0usize, 0usize);
    let mut restart_errors = 0usize;
    let mut unbalanced = 0usize;
    let progress: Vec<AtomicUsize> = (0..clients).map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (queries, policy, addrs) = (&queries, &policy, &addrs);
                let done = &progress[c];
                scope.spawn(move || {
                    let (mut ok, mut sheds, mut errors) = (0u64, 0u64, 0u64);
                    // Rotating the peer list spreads clients over replicas.
                    let mut peers = addrs.clone();
                    peers.rotate_left(c % addrs.len());
                    let mut client = match Client::connect(&peers[..]) {
                        Ok(cl) => cl,
                        Err(_) => return (0, 0, per_client as u64, Default::default()),
                    };
                    for i in 0..per_client {
                        let q = &queries[(c + i) % queries.len()];
                        match client.call_retrying(q, 0, policy) {
                            Ok(resp) if resp.status.is_shed() => sheds += 1,
                            Ok(_) => ok += 1,
                            Err(_) => errors += 1,
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                    (ok, sheds, errors, client.stats())
                })
            })
            .collect();
        let finished = || handles.iter().all(|h| h.is_finished());
        let poll = || std::thread::sleep(std::time::Duration::from_micros(200));
        let n = servers.len();
        for (k, server) in servers.iter_mut().enumerate() {
            // Spread the restarts evenly over the run.
            let due = (k + 1) * per_client * clients / (n + 1);
            while progress
                .iter()
                .map(|p| p.load(Ordering::Relaxed))
                .sum::<usize>()
                < due
                && !finished()
            {
                poll();
            }
            in_flight += usize::from(!finished());
            let before: Vec<usize> = progress.iter().map(|p| p.load(Ordering::Relaxed)).collect();
            match server.restart() {
                Ok(stats) => {
                    restarted += 1;
                    unbalanced += usize::from(!stats.balanced());
                    add(&mut retired, &stats);
                }
                Err(e) => {
                    eprintln!("error: replica restart failed: {e}");
                    restart_errors += 1;
                    break;
                }
            }
            // Every call this restart interrupted completes before the
            // next restart begins, so no call meets two restarts.
            while (0..clients).any(|c| {
                progress[c].load(Ordering::Relaxed) == before[c] && !handles[c].is_finished()
            }) {
                poll();
            }
        }
        for h in handles {
            match h.join() {
                Ok((o, s, e, st)) => {
                    ok += o;
                    sheds += s;
                    errors += e;
                    retried += st.retried_sheds;
                    reconnects += st.reconnects;
                }
                Err(_) => errors += 1,
            }
        }
    });
    let mut live = NetStats::default();
    for server in &mut servers {
        let stats = server.drain();
        unbalanced += usize::from(!stats.balanced());
        add(&mut live, &stats);
    }
    drop(servers); // releases the engines' refresher handles
    match Arc::try_unwrap(refresher) {
        Ok(r) => drop(r.shutdown()),
        Err(shared) => shared.begin_shutdown(),
    }
    println!(
        "restarts: {restarted} ({in_flight} under traffic) | generation {} published",
        cell.generation()
    );
    println!("clients: {ok} ok, {sheds} shed, {errors} error(s) | {retried} shed(s) retried, {reconnects} re-dial(s)");
    println!(
        "retired listeners: accepted {} served {} shed {} timed-out {}",
        retired.accepted, retired.served, retired.shed, retired.timed_out
    );
    println!(
        "live listeners:    accepted {} served {} shed {} timed-out {}",
        live.accepted, live.served, live.shed, live.timed_out
    );
    let issued = (per_client * clients) as u64;
    let clean = restart_errors == 0 && unbalanced == 0 && sheds == 0 && errors == 0 && ok == issued;
    if clean {
        println!("rollout clean: zero client-visible sheds, all ledgers balanced");
    } else {
        eprintln!(
            "rollout FAILED: sheds={sheds} errors={errors} ok={ok}/{issued} \
             unbalanced_ledgers={unbalanced} failed_restarts={restart_errors}"
        );
        std::process::exit(1);
    }
}

/// Extracts `rollout` plus its tuning flags (`--replicas N`,
/// `--requests N`, `--clients N`) from `args`, removing them.
fn take_rollout(args: &mut Vec<String>) -> Result<Option<RolloutConfig>, String> {
    let Some(i) = args.iter().position(|a| a == "rollout") else {
        return Ok(None);
    };
    args.remove(i);
    let mut cfg = RolloutConfig {
        replicas: 2,
        requests: 200,
        clients: 4,
    };
    for (flag, field) in [("--replicas", 0usize), ("--requests", 1), ("--clients", 2)] {
        let Some(j) = args.iter().position(|a| a == flag) else {
            continue;
        };
        if j + 1 >= args.len() {
            return Err(format!("{flag} needs a number"));
        }
        let v: u64 = args[j + 1]
            .parse()
            .map_err(|_| format!("{flag}: not a number: {}", args[j + 1]))?;
        if v == 0 {
            return Err(format!("{flag} must be at least 1"));
        }
        match field {
            0 => cfg.replicas = v as usize,
            1 => cfg.requests = v as usize,
            _ => cfg.clients = v as usize,
        }
        args.drain(j..=j + 1);
    }
    if cfg.replicas < 2 {
        return Err("rollout needs --replicas >= 2 (a sibling serves while one restarts)".into());
    }
    Ok(Some(cfg))
}

/// Extracts `listen <addr>` plus its tuning flags (`--workers N`,
/// `--queue-cap N`, `--deadline-ms N`) from `args`, removing them.
fn take_listen(args: &mut Vec<String>) -> Result<Option<ListenConfig>, String> {
    let Some(i) = args.iter().position(|a| a == "listen") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("listen needs an address (e.g. 127.0.0.1:7431 or 127.0.0.1:0)".into());
    }
    let addr = args[i + 1].clone();
    args.drain(i..=i + 1);
    let mut cfg = ListenConfig {
        addr,
        workers: 4,
        queue_cap: 64,
        deadline_ms: 0,
    };
    for (flag, field) in [
        ("--workers", 0usize),
        ("--queue-cap", 1),
        ("--deadline-ms", 2),
    ] {
        let Some(j) = args.iter().position(|a| a == flag) else {
            continue;
        };
        if j + 1 >= args.len() {
            return Err(format!("{flag} needs a number"));
        }
        let v: u64 = args[j + 1]
            .parse()
            .map_err(|_| format!("{flag}: not a number: {}", args[j + 1]))?;
        match field {
            0 => {
                if v == 0 {
                    return Err("--workers must be at least 1".into());
                }
                cfg.workers = v as usize;
            }
            1 => {
                if v == 0 {
                    return Err("--queue-cap must be at least 1".into());
                }
                cfg.queue_cap = v as usize;
            }
            _ => cfg.deadline_ms = v,
        }
        args.drain(j..=j + 1);
    }
    Ok(Some(cfg))
}

/// Extracts `--wal-dir <dir>` from `args` (removing it): the durability
/// directory the session recovers from on startup and logs/checkpoints
/// into while running.
fn take_wal_dir(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == "--wal-dir") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--wal-dir needs a directory path".into());
    }
    let dir = args[i + 1].clone();
    args.drain(i..=i + 1);
    Ok(Some(dir))
}

/// Extracts `--refresh-every N` from `args` (removing it), selecting the
/// `EveryN` refresh policy for the session monitor.
fn take_refresh_every(args: &mut Vec<String>) -> Result<Option<usize>, String> {
    let Some(i) = args.iter().position(|a| a == "--refresh-every") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--refresh-every needs a number".into());
    }
    let every: usize = args[i + 1]
        .parse()
        .map_err(|_| format!("--refresh-every: not a number: {}", args[i + 1]))?;
    if every == 0 {
        return Err("--refresh-every must be at least 1".into());
    }
    args.drain(i..=i + 1);
    Ok(Some(every))
}

/// Extracts `--buffer-pages N` from `args` (removing it) so
/// [`load_graph`] sees only graph-selection flags.
fn take_buffer_pages(args: &mut Vec<String>) -> Result<Option<u64>, String> {
    let Some(i) = args.iter().position(|a| a == "--buffer-pages") else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err("--buffer-pages needs a number".into());
    }
    let pages: u64 = args[i + 1]
        .parse()
        .map_err(|_| format!("--buffer-pages: not a number: {}", args[i + 1]))?;
    if pages == 0 {
        return Err("--buffer-pages must be at least 1".into());
    }
    args.drain(i..=i + 1);
    Ok(Some(pages))
}

fn load_graph(args: &[String]) -> Result<XmlGraph, String> {
    let mut file: Option<String> = None;
    let mut dataset: Option<String> = None;
    let mut size: usize = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--file" => file = it.next().cloned(),
            "--dataset" => dataset = it.next().cloned(),
            "--size" => {
                size = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--size needs a number")?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(path) = file {
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        return xmlgraph::parser::parse(&text).map_err(|e| e.to_string());
    }
    let Some(name) = dataset else {
        return Err("need --file or --dataset".into());
    };
    // Table 1 names first, then family shorthands.
    for d in datagen::Dataset::all() {
        if d.name().eq_ignore_ascii_case(&name)
            || d.name()
                .trim_end_matches(".xml")
                .eq_ignore_ascii_case(&name)
        {
            return Ok(d.generate());
        }
    }
    match name.to_ascii_lowercase().as_str() {
        "play" | "shakespeare" => Ok(datagen::shakespeare(size.clamp(1, 38), 42)),
        "flix" | "flixml" => Ok(datagen::flixml(size.max(30), 42)),
        "ged" | "gedml" => Ok(datagen::gedml(size.max(60), 42)),
        other => Err(format!("unknown dataset `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_leaves_the_session_pool_untouched() {
        let g = xmlgraph::builder::moviedb();
        let index = Apex::build_initial(&g);
        let table = DataTable::build(&g, PageModel::default());
        let buf = BufferHandle::unbounded();
        let text = "//director/movie/title";
        // Cold pool: explain must not fault the query's pages into it.
        let out = explain(&g, &index, &table, &buf, text);
        assert!(out.contains("mispredict ratio"), "{out}");
        assert_eq!(buf.stats(), Default::default());
        assert_eq!(buf.objects(), 0);
        // Warm pool: explain must not score hits in it either.
        let q = Query::parse(&g, text).unwrap();
        ApexProcessor::with_buffer(&g, &index, &table, buf.clone()).eval(&q);
        let before = buf.stats();
        assert!(before.misses > 0);
        explain(&g, &index, &table, &buf, text);
        assert_eq!(buf.stats(), before);
        assert!(explain(&g, &index, &table, &buf, "//").starts_with("parse error"));
    }
}
