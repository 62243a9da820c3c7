//! Replicated serving: N `net::Server` listeners over clones of one
//! `Engine`, clients holding the whole address list, and rolling
//! restarts (`Server::restart`) under live traffic.
//!
//! * Equivalence — a generated mixed workload (QTYPE1 partial paths,
//!   QTYPE2 long paths, QTYPE3 value predicates) sent through a
//!   2-replica pool while every replica restarts must return, query for
//!   query, exactly what the in-process `Engine::execute` returns: same
//!   status, same exact totals, same 64-row sample. Parse errors are
//!   refused identically on both paths.
//! * Consistency — concurrent clients across barriered refresh rounds
//!   and replica restarts see no shed and no error, each client's
//!   observed generation never decreases, every live and retired
//!   ledger balances, and the ledgers account for exactly the answers
//!   the clients received.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use apex::{Apex, IndexCell, RefreshPolicy, Refresher, WorkloadMonitor};
use apex_net::{Client, Engine, NetStats, RetryPolicy, Server, ServerConfig, Status};
use apex_query::generator::GeneratorConfig;
use apex_storage::{DataTable, PageModel};
use apex_suite::{small, Fixture};
use xmlgraph::paths::EnumLimits;
use xmlgraph::XmlGraph;

const REPLICAS: usize = 2;

/// An engine over APEX⁰ of `g`, with a refresher driven by `policy`.
fn engine(g: &Arc<XmlGraph>, policy: RefreshPolicy) -> (Engine, Arc<IndexCell>, Arc<Refresher>) {
    let table = Arc::new(DataTable::build(g, PageModel::default()));
    let cell = Arc::new(IndexCell::new(Apex::build_initial(g)));
    let monitor = Arc::new(Mutex::new(WorkloadMonitor::new(256, 0.3, policy)));
    let refresher = Arc::new(
        Refresher::spawn(Arc::clone(g), Arc::clone(&cell), Arc::clone(&monitor)).expect("spawn"),
    );
    let engine = Engine::new(Arc::clone(g), table, Arc::clone(&cell), monitor)
        .with_refresher(Arc::clone(&refresher));
    (engine, cell, refresher)
}

fn pool(engine: &Engine) -> (Vec<Server>, Vec<SocketAddr>) {
    let servers: Vec<Server> = (0..REPLICAS)
        .map(|_| {
            Server::start(engine.clone(), ServerConfig::default(), "127.0.0.1:0").expect("bind")
        })
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr()).collect();
    (servers, addrs)
}

/// Restarts `server` while clients run, then waits until every client
/// still running has completed a call, so that no call meets two
/// restarts. Returns the retired ledger.
fn restart_and_settle(
    server: &mut Server,
    progress: &[AtomicUsize],
    running: &dyn Fn(usize) -> bool,
) -> NetStats {
    let before: Vec<usize> = progress.iter().map(|p| p.load(Ordering::SeqCst)).collect();
    let retired = server.restart().expect("restart rebinds the same address");
    assert!(retired.balanced(), "retired ledger: {retired}");
    for (c, p) in progress.iter().enumerate() {
        while p.load(Ordering::SeqCst) == before[c] && running(c) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    retired
}

fn sum(total: &mut NetStats, s: &NetStats) {
    total.accepted += s.accepted;
    total.served += s.served;
    total.shed += s.shed;
    total.timed_out += s.timed_out;
}

fn generator(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        qtype1: 40,
        qtype2: 15,
        qtype3: 15,
        workload_fraction: 0.2,
        seed,
        limits: EnumLimits {
            max_len: 10,
            max_paths: 30_000,
        },
    }
}

fn check_dataset(g: XmlGraph, seed: u64) {
    let fx = Fixture::build(g, generator(seed));
    let g = Arc::new(fx.g.clone());
    let (oracle, _, oracle_refresher) = engine(&g, RefreshPolicy::Manual);
    let (served, _, refresher) = engine(&g, RefreshPolicy::EveryN(20));
    let (mut servers, addrs) = pool(&served);
    drop(served);

    let mut mixed: Vec<String> = fx
        .queries
        .qtype1
        .iter()
        .chain(fx.queries.qtype2.iter())
        .chain(fx.queries.qtype3.iter())
        .map(|q| q.render(&fx.g))
        .collect();
    mixed.push("no/leading/slashes".into());
    mixed.push("//no_such_label_anywhere".into());
    assert!(mixed.len() > 2, "no queries generated");

    // Replica k restarts once the client reaches query `due(k)`; the
    // client holds there until that restart has begun, so every restart
    // overlaps the rest of the run.
    let due = |k: usize| (k + 1) * mixed.len() / (REPLICAS + 1);
    let progress = [AtomicUsize::new(0)];
    let begun = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut retired = NetStats::default();
    let ok = std::thread::scope(|s| {
        let client = s.spawn(|| {
            let mut c = Client::connect(&addrs[..]).expect("connect");
            let mut ok = 0usize;
            for (qi, q) in mixed.iter().enumerate() {
                let owed = (0..REPLICAS).filter(|&k| due(k) <= qi).count();
                while begun.load(Ordering::SeqCst) < owed {
                    std::thread::sleep(Duration::from_micros(200));
                }
                let got = c
                    .call_retrying(q, 0, &RetryPolicy::default())
                    .unwrap_or_else(|e| panic!("query #{qi} `{q}`: {e}"));
                let want = oracle.execute(q, None);
                assert_eq!(
                    got.status, want.status,
                    "query #{qi} `{q}`: statuses diverge"
                );
                assert_eq!(
                    got.total_rows, want.total_rows,
                    "query #{qi} `{q}`: totals diverge"
                );
                assert_eq!(
                    got.rows, want.rows,
                    "query #{qi} `{q}`: row samples diverge"
                );
                ok += usize::from(got.status == Status::Ok);
                progress[0].fetch_add(1, Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
            ok
        });
        for (k, server) in servers.iter_mut().enumerate() {
            while progress[0].load(Ordering::SeqCst) < due(k) {
                std::thread::sleep(Duration::from_micros(200));
            }
            begun.store(k + 1, Ordering::SeqCst);
            let stats = restart_and_settle(server, &progress, &|_| !done.load(Ordering::SeqCst));
            sum(&mut retired, &stats);
        }
        match client.join() {
            Ok(ok) => ok,
            Err(p) => std::panic::resume_unwind(p),
        }
    });
    assert!(
        ok * 2 > mixed.len(),
        "most generated queries must round-trip the wire syntax ({ok}/{})",
        mixed.len()
    );

    let mut total = retired;
    for server in &mut servers {
        let stats = server.drain();
        assert!(stats.balanced(), "live ledger: {stats}");
        sum(&mut total, &stats);
    }
    assert_eq!(total.timed_out, 0, "{total}");
    assert_eq!(
        total.served,
        mixed.len() as u64,
        "each query was answered exactly once across the pool: {total}"
    );
    drop((servers, oracle));
    if let Ok(r) = Arc::try_unwrap(refresher) {
        r.shutdown();
    }
    if let Ok(r) = Arc::try_unwrap(oracle_refresher) {
        r.shutdown();
    }
}

#[test]
fn replica_answers_equal_in_process_across_restarts_on_play() {
    check_dataset(small::play(), 11);
}

#[test]
fn replica_answers_equal_in_process_across_restarts_on_flix() {
    check_dataset(small::flix(), 22);
}

#[test]
fn replica_answers_equal_in_process_across_restarts_on_ged() {
    check_dataset(small::ged(), 33);
}

const CLIENTS: usize = 3;
const ROUNDS: usize = 4;

/// What one client saw.
#[derive(Debug, Default)]
struct Tally {
    issued: u64,
    ok: u64,
    sheds: u64,
    errors: u64,
    retried: u64,
    reconnects: u64,
}

#[test]
fn generations_are_monotone_and_ledgers_balance_across_restarts() {
    let g = Arc::new(small::flix());
    let queries: Vec<String> = g
        .labels()
        .iter()
        .map(|(_, s)| s)
        .filter(|s| !s.starts_with('@'))
        .take(4)
        .map(|s| format!("//{s}"))
        .collect();
    assert!(!queries.is_empty());
    let (served, cell, refresher) = engine(&g, RefreshPolicy::Manual);
    let (mut servers, addrs) = pool(&served);
    drop(served);

    let stop = AtomicBool::new(false);
    let progress: Vec<AtomicUsize> = (0..CLIENTS).map(|_| AtomicUsize::new(0)).collect();
    let mut retired = NetStats::default();
    // Each client checks generation order inline (a violation panics
    // the thread and the scope re-raises it) and tallies what it saw.
    let per_client: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|ci| {
                let (queries, stop, progress) = (&queries, &stop, &progress);
                let mut peers = addrs.clone();
                peers.rotate_left(ci % REPLICAS);
                s.spawn(move || {
                    let mut c = Client::connect(&peers[..]).expect("connect");
                    let mut t = Tally::default();
                    let mut last_gen = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let q = &queries[(ci + t.issued as usize) % queries.len()];
                        t.issued += 1;
                        match c.call_retrying(q, 0, &RetryPolicy::default()) {
                            Ok(resp) if resp.status == Status::Ok => {
                                assert!(
                                    resp.generation >= last_gen,
                                    "client {ci}: generation went back from {last_gen} to {}",
                                    resp.generation
                                );
                                last_gen = resp.generation;
                                t.ok += 1;
                            }
                            Ok(_) => t.sheds += 1,
                            Err(_) => t.errors += 1,
                        }
                        progress[ci].fetch_add(1, Ordering::SeqCst);
                    }
                    t.retried = c.stats().retried_sheds;
                    t.reconnects = c.stats().reconnects;
                    t
                })
            })
            .collect();

        // Barriered rounds: let traffic run, step the refresher to the
        // next generation under the live sockets, then restart one
        // replica; every replica restarts at least once.
        for round in 0..ROUNDS {
            std::thread::sleep(Duration::from_millis(20));
            refresher.request_refresh();
            refresher.wait_idle();
            let server = &mut servers[round % REPLICAS];
            let stats = restart_and_settle(server, &progress, &|c| !handles[c].is_finished());
            sum(&mut retired, &stats);
        }
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(p) => std::panic::resume_unwind(p),
            })
            .collect()
    });

    let t = per_client.iter().fold(Tally::default(), |a, c| Tally {
        issued: a.issued + c.issued,
        ok: a.ok + c.ok,
        sheds: a.sheds + c.sheds,
        errors: a.errors + c.errors,
        retried: a.retried + c.retried,
        reconnects: a.reconnects + c.reconnects,
    });
    assert!(
        t.issued >= CLIENTS as u64,
        "the clients must actually have run"
    );
    assert_eq!(
        (t.sheds, t.errors),
        (0, 0),
        "client-visible failures: {t:?}"
    );
    assert_eq!(t.ok, t.issued, "every issued request came back Ok: {t:?}");
    assert!(t.reconnects > 0, "restarts must move clients: {t:?}");
    assert!(
        cell.generation() >= ROUNDS as u64,
        "every barriered round must publish a generation: gen {}",
        cell.generation()
    );

    let mut total = retired;
    for server in &mut servers {
        let stats = server.drain();
        assert!(stats.balanced(), "live ledger: {stats}");
        sum(&mut total, &stats);
    }
    assert_eq!(total.served, t.ok, "ledgers account for every Ok: {total}");
    assert_eq!(
        total.shed, t.retried,
        "every shed was absorbed by a retry: {total}"
    );
    assert_eq!(total.timed_out, 0, "{total}");
    drop(servers);
    if let Ok(r) = Arc::try_unwrap(refresher) {
        r.shutdown();
    }
}
