//! `dpc` — command-line front end.
//!
//! Graphs are exchanged in graph6 format (nauty / House of Graphs).
//!
//! ```text
//! dpc check <graph6>        planarity verdict with a certificate
//!                           (faces/genus, or the Kuratowski witness)
//! dpc certify <graph6>      run the Theorem 1 PLS end to end
//! dpc embed <graph6>        print the rotation system and faces
//! dpc kuratowski <graph6>   extract a subdivided K5/K3,3
//! dpc soundness <graph6> [seed]  attack battery on a no-instance
//! dpc gen <family> <n> [seed]   emit a generated graph as graph6
//!                           (families: dpc_service::gen::FAMILIES)
//!
//! dpc schemes               list the scheme registry (ids, classes,
//!                           certificate bounds, capabilities)
//! dpc serve <addr> [workers] [cache-mb] [--schemes a,b,c]
//!           [--store-dir <path>] [--store-budget-bytes <n>]
//!           [--event-loops <n>] [--prove-threads <n>]
//!           [--idle-timeout-ms <n>]
//!           [--metrics-addr <addr>] [--slow-ms <n>] [--audit]
//!                           long-running service (default: all
//!                           schemes, no persistence); with a store
//!                           dir the certificate cache survives
//!                           restarts. The front end is the epoll
//!                           event loop where epoll exists, else
//!                           thread-per-connection.
//!                           --metrics-addr serves Prometheus text
//!                           over plain HTTP GET /metrics; --slow-ms
//!                           sets the slow-request log threshold
//!                           (default 1000, 0 disables); --audit runs
//!                           the randomized store auditor on the
//!                           maintenance thread (re-verifies sampled
//!                           certificates and quarantines records
//!                           whose CRC is valid but whose content no
//!                           longer verifies)
//! dpc store stat|compact|verify <dir>
//!                           offline tools for a --store-dir (do not
//!                           run against a live server)
//! dpc store corrupt <dir>   chaos tool: flip one stored verdict and
//!                           recompute the CRC — `store verify` still
//!                           passes, only the auditor catches it
//! dpc store merge <dst> <src...>
//!                           stream every record of the source stores
//!                           into <dst>, deduplicating by content key
//!                           (rehomes a drained node's certificates)
//! dpc query <addr> certify [--no-cache] [--chunked] [--scheme <name>] <graph6>
//!                           --chunked streams the graph through the
//!                           chunked-upload frames (GraphChunkBegin/
//!                           Chunk/End) instead of one certify frame,
//!                           and answers with the compact summary
//! dpc query <addr> check [--scheme <name>] <graph6>
//! dpc query <addr> gen <family> <n> [seed] [--scheme <name>]
//!                           family "default" routes to the scheme's
//!                           canonical yes-instance generator
//! dpc query <addr> soundness [--scheme <name>] <graph6> [seed]
//! dpc query <addr> interactive <graph6> [seed]
//!                           one full interactive-certification
//!                           session (wire v8): commit locally, open
//!                           the session, answer the server's
//!                           challenge, print the verdict with the
//!                           measured soundness bound
//! dpc query <addr> stats
//!   every query accepts --wait-ms <n> (retry refused connects for n
//!   milliseconds — races with a booting server) and --nodes a,b,c
//!   in place of <addr> (client-side rendezvous routing across a
//!   cluster of servers, with failover; see dpc_service::cluster)
//! dpc cluster-stats --nodes a,b,c
//!                           per-node reachability + Stats, plus the
//!                           fleet-aggregated view
//! dpc audit <addr>|--nodes a,b,c [--samples <n>] [--seed <n>]
//!                           one on-demand audit pass per node: sample
//!                           stored certificates, re-verify them, and
//!                           quarantine (and report) any record whose
//!                           bytes are CRC-valid but no longer verify
//! dpc slowlog <addr>|--nodes a,b,c
//!                           the slow-request log: every request whose
//!                           end-to-end latency crossed the server's
//!                           --slow-ms threshold, with its full
//!                           per-stage breakdown, newest first
//! dpc top <addr>|--nodes a,b,c [--once] [--interval-ms <n>]
//!                           live fleet dashboard from repeated Stats
//!                           polls: per-interval rps, per-stage
//!                           p50/p99, queue depth, connections, cache
//!                           hit ratio; --once prints one frame
//! dpc bench-serve <addr>|self [hits] [side] [--graph grid:RxC|gnm:N:M|tri:N]
//!                           load generator; reports cache-hit vs
//!                           cache-miss latency (plus a
//!                           machine-readable JSON summary line);
//!                           --graph overrides the default grid sizing
//! dpc bench-serve --nodes a,b,c [hits] [side]
//!                           same, but driving the whole ring with
//!                           two owner-selected graphs per node
//! dpc bench-serve --nodes a,b,c --distributed [count]
//!                 [--graph grid:RxC|gnm:N:M|tri:N]
//!                           distributed-proving bench: `count` seeded
//!                           graphs through certify_distributed vs a
//!                           sequential single-connection sweep; the
//!                           two BatchSummary folds must be identical,
//!                           and the JSON reports nodes used, delegated
//!                           proves, merge time, and the speedup
//! dpc bench-serve <addr>|self --connections N[,N...]
//!                 [--requests-per-conn <k>]
//!                           connection-storm mode: hold N concurrent
//!                           connections, pipeline k requests down
//!                           each, report an rps-vs-connections curve
//!                           (one JSON line); `self` spawns the server
//!                           in-process
//! ```

use dpc::core::harness::run_pls;
use dpc::core::scheme::ProofLabelingScheme;
use dpc::graph::{graph6, Graph};
use dpc::planar::kuratowski::extract_kuratowski;
use dpc::planar::lr::{planarity, Planarity};
use dpc::prelude::*;
use dpc_runtime::log_info;
use dpc_service::cache::CacheConfig;
use dpc_service::cluster::ClusterClient;
use dpc_service::registry::{SchemeId, SchemeRegistry};
use dpc_service::wire::{CheckVerdict, Response};
use dpc_service::{
    AuditOptions, CertifyOptions, CheckOptions, Client, GenOptions, InteractiveOptions,
    SegmentConfig, SegmentStore, ServeConfig, SlowLogEntry, SoundnessOptions, StatsSnapshot,
};
use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = args.iter().map(String::as_str).collect();
    match run(&refs) {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Dispatches a command line; returns the output text.
fn run(args: &[&str]) -> Result<String, String> {
    match args {
        ["check", s] => check(parse(s)?),
        ["certify", s] => certify(parse(s)?),
        ["embed", s] => embed(parse(s)?),
        ["kuratowski", s] => kuratowski(parse(s)?),
        ["soundness", s, rest @ ..] => {
            let seed: u64 = match rest {
                [] => 1,
                [x] => x.parse().map_err(|_| "seed must be a number".to_string())?,
                _ => return Err(usage()),
            };
            soundness(parse(s)?, seed)
        }
        ["gen", family, n, rest @ ..] => {
            let n: u32 = n.parse().map_err(|_| "n must be a number".to_string())?;
            let seed: u64 = match rest {
                [] => 1,
                [s] => s.parse().map_err(|_| "seed must be a number".to_string())?,
                _ => return Err(usage()),
            };
            gen(family, n, seed)
        }
        ["schemes"] => schemes_cmd(),
        ["serve", addr, rest @ ..] => serve_cmd(addr, rest),
        ["store", "merge", dst, srcs @ ..] if !srcs.is_empty() => store_merge_cmd(dst, srcs),
        ["store", sub, dir] => store_cmd(sub, dir),
        ["query", rest @ ..] => query_cmd(rest),
        ["cluster-stats", rest @ ..] => cluster_stats_cmd(rest),
        ["audit", rest @ ..] => audit_cmd(rest),
        ["slowlog", rest @ ..] => slowlog_cmd(rest),
        ["top", rest @ ..] => top_cmd(rest),
        ["bench-serve", rest @ ..] => bench_serve_cmd(rest),
        _ => Err(usage()),
    }
}

fn usage() -> String {
    "usage: dpc check|certify|embed|kuratowski|soundness <graph6>  |  \
     dpc gen <family> <n> [seed]  |  dpc schemes  |  \
     dpc serve <addr> [workers] [cache-mb] [--schemes a,b,c] \
     [--store-dir <path>] [--store-budget-bytes <n>] [--peers a,b,c] \
     [--event-loops <n>] [--prove-threads <n>] \
     [--idle-timeout-ms <n>] [--metrics-addr <addr>] [--slow-ms <n>] [--audit]  |  \
     dpc store stat|compact|verify|corrupt <dir>  |  \
     dpc store merge <dst> <src...>  |  \
     dpc query <addr>|--nodes a,b,c certify|check|gen|soundness|interactive|stats \
     [--chunked] [--scheme <name>] [--wait-ms <n>] [--replication <k>] ...  |  \
     dpc cluster-stats --nodes a,b,c [--wait-ms <n>]  |  \
     dpc audit <addr>|--nodes a,b,c [--samples <n>] [--seed <n>] [--wait-ms <n>]  |  \
     dpc slowlog <addr>|--nodes a,b,c [--wait-ms <n>]  |  \
     dpc top <addr>|--nodes a,b,c [--once] [--interval-ms <n>] [--wait-ms <n>]  |  \
     dpc bench-serve <addr>|self|--nodes a,b,c [hits] [side] \
     [--graph grid:RxC|gnm:N:M|tri:N] [--distributed [count]] \
     [--replication <k>] [--connections N[,N...] [--requests-per-conn <k>]]"
        .to_string()
}

/// Removes `flag value` from `args` wherever it appears; `Ok(None)`
/// when the flag is absent. A repeated flag is an error — silently
/// ignoring the second occurrence would reinterpret it as a
/// positional argument (e.g. a server address).
fn take_flag_value(args: &mut Vec<&str>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|&a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?
        .to_string();
    args.drain(pos..pos + 2);
    if args.contains(&flag) {
        return Err(format!("{flag} given more than once"));
    }
    Ok(Some(value))
}

/// The shared connection flags of every client-side command.
struct ConnFlags {
    wait: Option<Duration>,
    nodes: Option<Vec<String>>,
    replication: usize,
}

/// Parses the shared connection flags: `--wait-ms <n>` (connect
/// retry window), `--nodes a,b,c` (cluster routing), and
/// `--replication <k>` (copies of each certificate on the top-k
/// ranked nodes; default 2, capped at the ring size, 1 restores
/// single-owner routing). Replication only applies to ring targets.
fn take_conn_flags(args: &mut Vec<&str>) -> Result<ConnFlags, String> {
    let wait = take_flag_value(args, "--wait-ms")?
        .map(|v| {
            v.parse::<u64>()
                .map(Duration::from_millis)
                .map_err(|_| "wait-ms must be a number".to_string())
        })
        .transpose()?;
    let nodes = take_flag_value(args, "--nodes")?
        .map(|csv| csv.split(',').map(str::to_string).collect::<Vec<_>>());
    let replication = take_flag_value(args, "--replication")?
        .map(|v| match v.parse::<usize>() {
            Ok(0) | Err(_) => Err("replication must be a number >= 1".to_string()),
            Ok(k) => Ok(k),
        })
        .transpose()?
        .unwrap_or(2);
    Ok(ConnFlags {
        wait,
        nodes,
        replication,
    })
}

/// Resolves a `--scheme <name>` CLI handle against the standard
/// registry (the server answers with its own error if it registers a
/// smaller set).
fn scheme_by_name(name: &str) -> Result<SchemeId, String> {
    let reg = SchemeRegistry::standard();
    reg.by_name(name)
        .map(|e| e.id)
        .ok_or_else(|| format!("unknown scheme {name:?} (see `dpc schemes`)"))
}

fn schemes_cmd() -> Result<String, String> {
    let reg = SchemeRegistry::standard();
    let mut out = format!(
        "{:>3}  {:<18} {:<44} {:<34} {:<16} {}\n",
        "id", "name", "class", "certificates", "soundness-probe", "needs-ids"
    );
    for e in reg.entries() {
        out.push_str(&format!(
            "{:>3}  {:<18} {:<44} {:<34} {:<16} {}\n",
            e.id,
            e.name,
            e.caps.class,
            e.caps.cert_bound,
            if e.caps.soundness_probe { "yes" } else { "no" },
            if e.caps.needs_ids {
                "yes (binary wire only)"
            } else {
                "no"
            },
        ));
    }
    out.push_str("\nid 0 (planarity) is the wire default: requests without a scheme-id extension route there.\n");
    Ok(out)
}

fn parse(s: &str) -> Result<Graph, String> {
    graph6::decode(s).map_err(|e| format!("bad graph6 input: {e}"))
}

fn check(g: Graph) -> Result<String, String> {
    let mut out = format!(
        "graph: {} nodes, {} edges\n",
        g.node_count(),
        g.edge_count()
    );
    match planarity(&g) {
        Planarity::Planar(rot) => {
            rot.euler_check().map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "PLANAR (certified: {} faces, Euler genus {})\n",
                rot.face_count(),
                rot.genus()
            ));
        }
        Planarity::NonPlanar => {
            let w = extract_kuratowski(&g).ok_or("inconsistent planarity result")?;
            out.push_str(&format!(
                "NOT PLANAR (certified: subdivided {:?} on {} edges, branch nodes {:?})\n",
                w.kind,
                w.edges.len(),
                w.branch_nodes
            ));
        }
    }
    Ok(out)
}

fn certify(g: Graph) -> Result<String, String> {
    if !g.is_connected() {
        return Err("the network must be connected".to_string());
    }
    let scheme = PlanarityScheme::new();
    match run_pls(&scheme, &g) {
        Ok(outcome) => Ok(format!(
            "scheme: {}\nrounds: {}\nmax certificate: {} bits (avg {:.1})\nverdict: {}\n",
            scheme.name(),
            outcome.rounds,
            outcome.max_cert_bits,
            outcome.avg_cert_bits,
            if outcome.all_accept() {
                "all nodes accept".to_string()
            } else {
                format!("{} nodes reject (bug!)", outcome.reject_count())
            }
        )),
        Err(e) => Ok(format!(
            "prover declines: {e}\n(the graph is outside the certified class; by soundness no certificate assignment exists)\n"
        )),
    }
}

fn embed(g: Graph) -> Result<String, String> {
    match planarity(&g) {
        Planarity::Planar(rot) => {
            let mut out = String::new();
            for v in 0..g.node_count() as u32 {
                out.push_str(&format!("rotation({v}): {:?}\n", rot.rotation(v)));
            }
            for (i, f) in rot.faces().iter().enumerate() {
                let cycle: Vec<u32> = f.iter().map(|&(u, _)| u).collect();
                out.push_str(&format!("face {i}: {cycle:?}\n"));
            }
            Ok(out)
        }
        Planarity::NonPlanar => Err("graph is not planar; no embedding".to_string()),
    }
}

fn kuratowski(g: Graph) -> Result<String, String> {
    match extract_kuratowski(&g) {
        Some(w) => {
            let mut out = format!(
                "{:?} subdivision, branch nodes {:?}\n",
                w.kind, w.branch_nodes
            );
            for (u, v) in &w.edges {
                out.push_str(&format!("  {u} -- {v}\n"));
            }
            Ok(out)
        }
        None => Err("graph is planar; no Kuratowski subgraph".to_string()),
    }
}

fn gen(family: &str, n: u32, seed: u64) -> Result<String, String> {
    // the local subcommand has no --scheme flag, so "default" routes
    // to the wire default scheme (planarity)
    let g = dpc_service::gen::make_scheme(family, n, seed, SchemeId::PLANARITY)?;
    Ok(format!("{}\n", graph6::encode(&g)))
}

fn soundness(g: Graph, seed: u64) -> Result<String, String> {
    if !g.is_connected() {
        return Err("the network must be connected".to_string());
    }
    let planar = dpc::planar::lr::is_planar(&g);
    let rows = dpc::core::adversary::soundness_report(&PlanarityScheme::new(), &g, seed);
    let mut out = format!(
        "graph: {} nodes, {} edges ({})\n",
        g.node_count(),
        g.edge_count(),
        if planar {
            "planar — attacks are expected to succeed; soundness only \
             quantifies over no-instances"
        } else {
            "non-planar no-instance"
        }
    );
    let fooled: Vec<&str> = rows
        .iter()
        .filter(|r| r.rejects == Some(0))
        .map(|r| r.attack)
        .collect();
    out.push_str(&soundness_table(
        rows.iter()
            .map(|r| (r.attack.to_string(), r.rejects.map(|x| x as u64))),
    ));
    if !planar {
        if fooled.is_empty() {
            out.push_str("soundness holds for this sample: every applicable attack left at least one rejecting node\n");
        } else {
            out.push_str(&format!(
                "SOUNDNESS VIOLATION: attack(s) {} fooled every node on a no-instance (bug!)\n",
                fooled.join(", ")
            ));
        }
    }
    Ok(out)
}

fn soundness_table(rows: impl Iterator<Item = (String, Option<u64>)>) -> String {
    let mut out = format!("{:<20} {:>10}\n", "attack", "rejects");
    for (attack, rejects) in rows {
        match rejects {
            Some(r) => out.push_str(&format!("{attack:<20} {r:>10}\n")),
            None => out.push_str(&format!("{attack:<20} {:>10}\n", "n/a")),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Service subcommands.

/// The connection front end a default server runs here.
fn front_end() -> &'static str {
    if epoll::supported() {
        "event-loop"
    } else {
        "threaded"
    }
}

fn serve_cmd(addr: &str, rest: &[&str]) -> Result<String, String> {
    let mut cfg = ServeConfig::default();
    let mut registry = SchemeRegistry::standard();
    let mut store_dir: Option<&str> = None;
    let mut store_budget: Option<u64> = None;
    let mut positional = Vec::new();
    let mut args = rest.iter();
    while let Some(&arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .copied()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg {
            "--schemes" => {
                let list = value("--schemes")?;
                registry = SchemeRegistry::with_schemes(&list.split(',').collect::<Vec<_>>())?;
            }
            "--store-dir" => store_dir = Some(value("--store-dir")?),
            "--peers" => {
                cfg.peers = value("--peers")?
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect();
            }
            "--store-budget-bytes" => {
                store_budget = Some(
                    value("--store-budget-bytes")?
                        .parse()
                        .map_err(|_| "store-budget-bytes must be a number".to_string())?,
                );
            }
            "--audit" => cfg.audit = true,
            "--event-loops" => {
                cfg.event_loops = value("--event-loops")?
                    .parse::<usize>()
                    .map_err(|_| "event-loops must be a number".to_string())?
                    .max(1);
            }
            "--prove-threads" => {
                cfg.prove_threads = value("--prove-threads")?
                    .parse::<usize>()
                    .map_err(|_| "prove-threads must be a number".to_string())?
                    .max(1);
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout = Duration::from_millis(
                    value("--idle-timeout-ms")?
                        .parse()
                        .map_err(|_| "idle-timeout-ms must be a number".to_string())?,
                );
            }
            "--metrics-addr" => cfg.metrics_addr = Some(value("--metrics-addr")?.to_string()),
            "--slow-ms" => {
                cfg.slow_ms = value("--slow-ms")?
                    .parse()
                    .map_err(|_| "slow-ms must be a number".to_string())?;
            }
            flag if flag.starts_with("--") => return Err(usage()),
            p => positional.push(p),
        }
    }
    match positional.as_slice() {
        [] => {}
        [workers] => {
            cfg.workers = workers
                .parse()
                .map_err(|_| "workers must be a number".to_string())?;
        }
        [workers, cache_mb] => {
            cfg.workers = workers
                .parse()
                .map_err(|_| "workers must be a number".to_string())?;
            let mb: usize = cache_mb
                .parse()
                .map_err(|_| "cache-mb must be a number".to_string())?;
            cfg.cache = CacheConfig {
                byte_budget: mb << 20,
                ..CacheConfig::default()
            };
        }
        _ => return Err(usage()),
    }
    match (store_dir, store_budget) {
        (Some(dir), budget) => {
            let mut sc = SegmentConfig::new(dir);
            sc.byte_budget = budget;
            cfg.store = Some(sc);
        }
        (None, Some(_)) => {
            return Err("--store-budget-bytes requires --store-dir".to_string());
        }
        (None, None) => {}
    }
    let handle = dpc_service::serve_with_registry(addr, cfg.clone(), registry)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    log_info!(
        "serve",
        "listening on {} ({}, {} workers, {} prove threads, {} MiB cache, batch {} max, store: {}, schemes: {})",
        handle.addr(),
        front_end(),
        cfg.workers,
        cfg.prove_threads,
        cfg.cache.byte_budget >> 20,
        cfg.batch_max,
        cfg.store
            .as_ref()
            .map(|s| s.dir.display().to_string())
            .unwrap_or_else(|| "none".to_string()),
        handle
            .registry()
            .entries()
            .iter()
            .map(|e| e.name)
            .collect::<Vec<_>>()
            .join(","),
    );
    if let Some(m) = handle.metrics_addr() {
        log_info!("serve", "metrics on http://{m}/metrics");
    }
    if !cfg.peers.is_empty() {
        log_info!("serve", "anti-entropy peers: {}", cfg.peers.join(","));
    }
    handle.wait();
    Ok(String::new())
}

/// Offline tools over a `--store-dir`: `stat` summarizes, `compact`
/// folds live records into fresh segments, `verify` re-checks every
/// record's CRC and scheme id against the standard registry. Not
/// safe against a concurrently serving store.
fn store_cmd(sub: &str, dir: &str) -> Result<String, String> {
    use dpc_service::store::CertStore;
    // `corrupt` rewrites segment files directly, without going
    // through open (open would scan and then race the rewrite)
    if sub == "corrupt" {
        return store_corrupt_cmd(dir);
    }
    // validate the subcommand before opening: open *creates* a store
    // at `dir`, and a typo (`dpc store merge <dst>` with the sources
    // forgotten, `dpc store bogus <dir>`) must not leave a fresh
    // empty store behind its usage error
    if !matches!(sub, "stat" | "compact" | "verify") {
        return Err(usage());
    }
    let store = SegmentStore::open(SegmentConfig::new(dir))
        .map_err(|e| format!("cannot open store at {dir}: {e}"))?;
    let reg = SchemeRegistry::standard();
    match sub {
        "stat" => {
            let s = store.stats();
            let mut by_scheme: std::collections::BTreeMap<Option<u16>, u64> =
                std::collections::BTreeMap::new();
            for record in store.iter().flatten() {
                *by_scheme.entry(record.scheme_id()).or_default() += 1;
            }
            let mut out = format!(
                "store at {dir}: {} records, {} live bytes, {} file bytes, {} segments\n",
                s.records, s.live_bytes, s.file_bytes, s.segments
            );
            if s.read_errors > 0 {
                out.push_str(&format!(
                    "WARNING: {} unreadable records skipped by the startup scan\n",
                    s.read_errors
                ));
            }
            for (id, count) in by_scheme {
                let name = id
                    .and_then(|id| reg.get(SchemeId(id)).map(|e| e.name))
                    .unwrap_or("<unknown>");
                out.push_str(&format!(
                    "  scheme {:>3} {:<18} {count} records\n",
                    id.map(|i| i.to_string()).unwrap_or_else(|| "?".into()),
                    name,
                ));
            }
            Ok(out)
        }
        "compact" => {
            let (before, after) = store
                .compact()
                .map_err(|e| format!("compaction failed: {e}"))?;
            store.flush().map_err(|e| format!("fsync failed: {e}"))?;
            Ok(format!(
                "compacted {dir}: {before} -> {after} file bytes ({} records live)\n",
                store.len()
            ))
        }
        "verify" => {
            let report = store.verify(&reg);
            if report.problems.is_empty() {
                Ok(format!(
                    "store at {dir} verifies clean: {} records ({} certified, {} declined), {} payload bytes, every CRC and scheme id checked\n",
                    report.records, report.certified, report.declined, report.bytes
                ))
            } else {
                Err(format!(
                    "store at {dir} has {} problem(s):\n  {}",
                    report.problems.len(),
                    report.problems.join("\n  ")
                ))
            }
        }
        _ => Err(usage()),
    }
}

/// Chaos tool behind the auditor's CI smoke: flip one accept verdict
/// inside the first certified record and recompute the frame CRC.
/// The store still passes `dpc store verify` — the lie is semantic,
/// not structural — so only the randomized auditor (`dpc serve
/// --audit`, `dpc audit`) can tell. Never point it at a store you
/// care about.
fn store_corrupt_cmd(dir: &str) -> Result<String, String> {
    use dpc::core::harness::Outcome;
    use dpc::core::scheme::Assignment;
    use dpc_service::store::{crc32, RecordKind, StoreRecord};
    let mut segs: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "dpcs"))
        .collect();
    segs.sort();
    for seg in segs {
        let bytes =
            std::fs::read(&seg).map_err(|e| format!("cannot read {}: {e}", seg.display()))?;
        if bytes.len() < 8 {
            continue;
        }
        let (magic, mut rest) = bytes.split_at(8);
        let mut rebuilt = magic.to_vec();
        let mut flipped = false;
        while rest.len() >= 8 {
            let total = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            if total < 4 || rest.len() < total + 4 {
                return Err(format!("truncated frame in {}", seg.display()));
            }
            let frame = &rest[..total + 4];
            let body = &rest[4..total];
            rest = &rest[total + 4..];
            let record = StoreRecord::decode_body(body)
                .map_err(|e| format!("undecodable record in {}: {e}", seg.display()))?;
            if record.kind != RecordKind::Certified || flipped {
                rebuilt.extend_from_slice(frame);
                continue;
            }
            flipped = true;
            let mut buf = record.suffix.as_slice();
            let mut outcome = Outcome::decode_from(&mut buf)
                .map_err(|e| format!("undecodable outcome in {}: {e}", seg.display()))?;
            let assignment = Assignment::decode_from(&mut buf)
                .map_err(|e| format!("undecodable assignment in {}: {e}", seg.display()))?;
            outcome.verdicts[0] = false;
            let mut suffix = Vec::new();
            outcome.encode_into(&mut suffix);
            assignment.encode_into(&mut suffix);
            let body = StoreRecord {
                kind: RecordKind::Certified,
                keyed: record.keyed,
                suffix,
            }
            .encode_body();
            rebuilt.extend_from_slice(&(body.len() as u32 + 4).to_le_bytes());
            rebuilt.extend_from_slice(&body);
            rebuilt.extend_from_slice(&crc32(&body).to_le_bytes());
        }
        if flipped {
            std::fs::write(&seg, rebuilt)
                .map_err(|e| format!("cannot rewrite {}: {e}", seg.display()))?;
            return Ok(format!(
                "flipped one verdict in {} and recomputed the frame CRC; \
                 `store verify` still passes, only an audit can tell\n",
                seg.display()
            ));
        }
    }
    Err(format!("no certified record in {dir} to corrupt"))
}

/// A cluster client over `nodes`, with the optional connect-retry
/// window and the replication factor applied (shared by query
/// --nodes, cluster-stats, audit, and bench-serve --nodes).
fn ring_client(
    nodes: Vec<String>,
    wait: Option<Duration>,
    replication: usize,
) -> Result<ClusterClient, String> {
    let cc = ClusterClient::new(nodes)?.with_replication(replication);
    Ok(match wait {
        Some(w) => cc.with_connect_wait(w),
        None => cc,
    })
}

fn connect_wait(addr: &str, wait: Option<Duration>) -> Result<Client, String> {
    match wait {
        Some(w) => Client::connect_with_retry(addr, w),
        None => Client::connect(addr),
    }
    .map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// Where a client-side command points, resolved uniformly across
/// query / audit / cluster-stats / slowlog / top / bench-serve:
/// `--nodes a,b,c` names a rendezvous ring; otherwise the first
/// remaining positional argument is the single server address. The
/// shared `--wait-ms` (connect retry window) and `--replication`
/// flags ride along, so every subcommand threads them identically
/// instead of hand-rolling its own resolution.
///
/// Strip command-specific flags from `args` *before* calling
/// [`Endpoint::take`] — whatever positional is first when it runs is
/// taken as the address.
struct Endpoint {
    /// `Some` for `--nodes`; `None` means `addr` is set.
    nodes: Option<Vec<String>>,
    /// The positional server address (`None` exactly when `nodes` is
    /// `Some`).
    addr: Option<String>,
    wait: Option<Duration>,
    replication: usize,
}

impl Endpoint {
    /// Resolves the endpoint from `args`, consuming the conn flags
    /// and (without `--nodes`) the leading positional address.
    fn take(args: &mut Vec<&str>) -> Result<Endpoint, String> {
        let ConnFlags {
            wait,
            nodes,
            replication,
        } = take_conn_flags(args)?;
        let addr = match nodes {
            Some(_) => None,
            None => {
                if args.is_empty() {
                    return Err(usage());
                }
                Some(args.remove(0).to_string())
            }
        };
        Ok(Endpoint {
            nodes,
            addr,
            wait,
            replication,
        })
    }

    fn is_ring(&self) -> bool {
        self.nodes.is_some()
    }

    /// Opens the target: one connected client, or a lazy ring client.
    fn open(self) -> Result<Target, String> {
        match self.nodes {
            Some(addrs) => Ok(Target::Ring(Box::new(ring_client(
                addrs,
                self.wait,
                self.replication,
            )?))),
            None => {
                let addr = self.addr.as_deref().ok_or_else(usage)?;
                Ok(Target::Single(connect_wait(addr, self.wait)?))
            }
        }
    }

    /// Opens a ring client whether the nodes came from `--nodes` or a
    /// bare `a,b,c` positional (the `cluster-stats` spelling; a
    /// single comma-free address is just a one-node ring).
    fn open_ring(self) -> Result<ClusterClient, String> {
        let nodes = match (self.nodes, self.addr) {
            (Some(nodes), _) => nodes,
            (None, Some(csv)) => csv.split(',').map(str::to_string).collect(),
            (None, None) => return Err(usage()),
        };
        ring_client(nodes, self.wait, self.replication)
    }
}

/// Where a query goes: one server, or a rendezvous-routed ring of
/// them. The ring speaks the identical wire protocol — only the
/// client-side node choice (and failover) differs. Both arms take
/// the same options structs, so each verb is one two-line match.
enum Target {
    Single(Client),
    Ring(Box<ClusterClient>),
}

impl Target {
    fn certify(
        &mut self,
        g: &Graph,
        opts: CertifyOptions,
    ) -> Result<Response, dpc_service::WireError> {
        match self {
            Target::Single(c) => c.certify(g, opts),
            Target::Ring(cc) => cc.certify(g, opts),
        }
    }

    fn check(&mut self, g: &Graph, opts: CheckOptions) -> Result<Response, dpc_service::WireError> {
        match self {
            Target::Single(c) => c.check(g, opts),
            Target::Ring(cc) => cc.check(g, opts),
        }
    }

    fn gen(
        &mut self,
        family: &str,
        n: u32,
        seed: u64,
        opts: GenOptions,
    ) -> Result<Graph, dpc_service::WireError> {
        match self {
            Target::Single(c) => c.gen(family, n, seed, opts),
            Target::Ring(cc) => cc.gen(family, n, seed, opts),
        }
    }

    fn soundness(
        &mut self,
        g: &Graph,
        opts: SoundnessOptions,
    ) -> Result<Response, dpc_service::WireError> {
        match self {
            Target::Single(c) => c.soundness(g, opts),
            Target::Ring(cc) => cc.soundness(g, opts),
        }
    }

    fn interactive(
        &mut self,
        g: &Graph,
        opts: InteractiveOptions,
    ) -> Result<Response, dpc_service::WireError> {
        match self {
            Target::Single(c) => c.interactive(g, opts),
            Target::Ring(cc) => cc.interactive(g, opts),
        }
    }

    fn stats_text(&mut self) -> Result<String, String> {
        match self {
            Target::Single(c) => {
                let stats = c.stats().map_err(|e| e.to_string())?;
                Ok(format!("{stats}\n"))
            }
            Target::Ring(cc) => render_fleet(cc),
        }
    }

    /// One labeled Stats poll per node (`None` = unreachable), used
    /// by `dpc top` to diff consecutive polls. A single server errors
    /// hard instead — there is nothing to keep watching.
    fn stats_all(&mut self) -> Result<Vec<(String, Option<StatsSnapshot>)>, String> {
        match self {
            Target::Single(c) => {
                let s = c.stats().map_err(|e| e.to_string())?;
                Ok(vec![("server".to_string(), Some(s))])
            }
            Target::Ring(cc) => Ok(cc
                .node_stats()
                .into_iter()
                .map(|(addr, result)| (addr, result.ok()))
                .collect()),
        }
    }
}

/// The per-node + fleet-aggregated Stats view of a ring.
fn render_fleet(cc: &mut ClusterClient) -> Result<String, String> {
    let (fleet, per_node) = cc.fleet_stats().map_err(|e| e.to_string())?;
    let mut out = String::new();
    let mut up = 0usize;
    for (addr, result) in &per_node {
        match result {
            Ok(s) => {
                up += 1;
                out.push_str(&format!(
                    "node {addr}: up — {} requests (certify {}), {} cache hits, {} proves, {} store records, repl {} absorbed / {} pushed / {} sweeps\n",
                    s.requests_total(),
                    s.certify,
                    s.cache_hits,
                    s.proves,
                    s.store_records,
                    s.repl_push_merged,
                    s.repl_pushed,
                    s.repl_sweeps,
                ));
            }
            Err(e) => out.push_str(&format!("node {addr}: DOWN ({e})\n")),
        }
    }
    out.push_str(&format!(
        "fleet ({up}/{} nodes up):\n{fleet}\n",
        per_node.len()
    ));
    Ok(out)
}

fn cluster_stats_cmd(rest: &[&str]) -> Result<String, String> {
    let mut args: Vec<&str> = rest.to_vec();
    // a bare csv positional works too: `dpc cluster-stats a,b,c`
    let endpoint = Endpoint::take(&mut args)?;
    if !args.is_empty() {
        return Err(usage());
    }
    let mut cc = endpoint.open_ring()?;
    render_fleet(&mut cc)
}

/// One on-demand audit pass per node: the same randomized sweep
/// `dpc serve --audit` runs in the background, with the caller's
/// sizing and seed — so a reported verdict can be reproduced exactly
/// by rerunning with the same flags.
fn audit_cmd(rest: &[&str]) -> Result<String, String> {
    let mut args: Vec<&str> = rest.to_vec();
    let samples = take_flag_value(&mut args, "--samples")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| "samples must be a number".to_string())
        })
        .transpose()?
        .unwrap_or(64);
    let seed = take_flag_value(&mut args, "--seed")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| "seed must be a number".to_string())
        })
        .transpose()?
        .unwrap_or(0);
    let endpoint = Endpoint::take(&mut args)?;
    if !args.is_empty() {
        return Err(usage());
    }
    let opts = AuditOptions::new().samples(samples).seed(seed);
    let render = |sampled: u64, failed: u64, quarantined: u64| {
        format!(
            "{sampled} sampled, {failed} failed verification, {quarantined} quarantined{}",
            if failed > 0 {
                " — quarantined certificates re-prove on their next query"
            } else {
                ""
            }
        )
    };
    if endpoint.is_ring() {
        let mut cc = endpoint.open_ring()?;
        let mut out = String::new();
        let (mut sampled, mut failed, mut quarantined, mut down) = (0u64, 0u64, 0u64, 0usize);
        let reports = cc.node_audits(opts);
        let total = reports.len();
        for (addr, result) in reports {
            match result {
                Ok(Response::AuditReport {
                    sampled: s,
                    failed: f,
                    quarantined: q,
                }) => {
                    sampled += s;
                    failed += f;
                    quarantined += q;
                    out.push_str(&format!("node {addr}: {}\n", render(s, f, q)));
                }
                Ok(Response::Error(e)) => {
                    down += 1;
                    out.push_str(&format!("node {addr}: ERROR ({e})\n"));
                }
                Ok(other) => return Err(format!("unexpected response to Audit: {other:?}")),
                Err(e) => {
                    down += 1;
                    out.push_str(&format!("node {addr}: DOWN ({e})\n"));
                }
            }
        }
        out.push_str(&format!(
            "fleet ({}/{total} nodes audited): {}\n",
            total - down,
            render(sampled, failed, quarantined),
        ));
        return Ok(out);
    }
    let addr = endpoint.addr.clone().ok_or_else(usage)?;
    let mut c = connect_wait(&addr, endpoint.wait)?;
    match c.audit(opts).map_err(|e| e.to_string())? {
        Response::AuditReport {
            sampled,
            failed,
            quarantined,
        } => Ok(format!("audit: {}\n", render(sampled, failed, quarantined))),
        Response::Error(e) => Err(e),
        other => Err(format!("unexpected response to Audit: {other:?}")),
    }
}

/// One slow-log table (shared by the single-server and per-node
/// views): newest first, one row per slow request with its full
/// stage breakdown.
fn render_slowlog(entries: &[SlowLogEntry]) -> String {
    if entries.is_empty() {
        return "slow log is empty (no request crossed the server's --slow-ms threshold)\n"
            .to_string();
    }
    let mut out = format!(
        "{:<18} {:<10} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "trace",
        "kind",
        "scheme",
        "age_ms",
        "total_us",
        "decode",
        "queue",
        "service",
        "reorder",
        "write",
    );
    for e in entries {
        out.push_str(&format!(
            "{:<18} {:<10} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            format!("{:#x}", e.trace_id),
            e.kind_name(),
            e.scheme,
            e.age_us / 1000,
            e.total_us,
            e.read_decode_us,
            e.queue_wait_us,
            e.service_us,
            e.reorder_wait_us,
            e.write_flush_us,
        ));
    }
    out
}

fn slowlog_cmd(rest: &[&str]) -> Result<String, String> {
    let mut args: Vec<&str> = rest.to_vec();
    let endpoint = Endpoint::take(&mut args)?;
    if !args.is_empty() {
        return Err(usage());
    }
    match endpoint.open()? {
        Target::Ring(mut cc) => {
            let mut out = String::new();
            for (addr, result) in cc.node_slowlog() {
                match result {
                    Ok(entries) => {
                        out.push_str(&format!("node {addr}: {} slow request(s)\n", entries.len()));
                        out.push_str(&render_slowlog(&entries));
                    }
                    Err(e) => out.push_str(&format!("node {addr}: DOWN ({e})\n")),
                }
            }
            Ok(out)
        }
        Target::Single(mut client) => {
            let entries = client.slowlog().map_err(|e| e.to_string())?;
            Ok(render_slowlog(&entries))
        }
    }
}

/// One `dpc top` frame: what happened between two Stats polls
/// `dt` seconds apart — request rate, per-stage latency of exactly
/// the interval's traffic (histogram subtraction), live queue depth,
/// connections, and the interval's cache hit ratio.
fn render_top_frame(label: &str, prev: &StatsSnapshot, cur: &StatsSnapshot, dt: f64) -> String {
    let requests = cur.requests_total().saturating_sub(prev.requests_total());
    let hits = cur.cache_hits.saturating_sub(prev.cache_hits);
    let misses = cur.cache_misses.saturating_sub(prev.cache_misses);
    let lookups = hits + misses;
    let latency = cur.latency.diff(&prev.latency);
    let mut out = format!(
        "{label}: {:.0} req/s, latency p50 {} us p99 {} us, queue {}, conns {}, hit ratio {}\n",
        requests as f64 / dt.max(1e-9),
        latency.p50_us(),
        latency.p99_us(),
        cur.queue_depth,
        cur.conns_open,
        if lookups == 0 {
            "n/a".to_string()
        } else {
            format!("{:.0}%", hits as f64 * 100.0 / lookups as f64)
        },
    );
    let stages = cur.stages.diff(&prev.stages);
    for (name, h) in stages.named() {
        if h.count() == 0 {
            continue;
        }
        out.push_str(&format!(
            "  stage {name:<12} {:>8} samples, p50 {:>7} us, p99 {:>7} us\n",
            h.count(),
            h.p50_us(),
            h.p99_us(),
        ));
    }
    out
}

/// Polls Stats and renders interval deltas. With `--once`, prints a
/// single frame (two polls, one interval) and exits — made for CI
/// smoke steps; otherwise frames stream until the process is killed.
fn top_cmd(rest: &[&str]) -> Result<String, String> {
    let mut args: Vec<&str> = rest.to_vec();
    let once = args.contains(&"--once");
    args.retain(|&a| a != "--once");
    let interval = take_flag_value(&mut args, "--interval-ms")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| "interval-ms must be a number".to_string())
        })
        .transpose()?
        .unwrap_or(1000)
        .max(1);
    let interval = Duration::from_millis(interval);
    let endpoint = Endpoint::take(&mut args)?;
    if !args.is_empty() {
        return Err(usage());
    }
    let mut target = endpoint.open()?;
    let mut prev = target.stats_all()?;
    let mut prev_at = Instant::now();
    loop {
        std::thread::sleep(interval);
        let cur = target.stats_all()?;
        let now = Instant::now();
        let dt = now.duration_since(prev_at).as_secs_f64();
        let mut frame = String::new();
        for (label, cur_snap) in &cur {
            match prev.iter().find(|(l, _)| l == label) {
                Some((_, Some(prev_snap))) => {
                    if let Some(cur_snap) = cur_snap {
                        frame.push_str(&render_top_frame(label, prev_snap, cur_snap, dt));
                    } else {
                        frame.push_str(&format!("{label}: DOWN\n"));
                    }
                }
                _ => frame.push_str(&format!(
                    "{label}: {}\n",
                    if cur_snap.is_some() {
                        "warming up"
                    } else {
                        "DOWN"
                    }
                )),
            }
        }
        if once {
            return Ok(frame);
        }
        println!("{frame}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = cur;
        prev_at = now;
    }
}

/// Offline union of segment stores: streams every record of each
/// source into `dst`, deduplicating by content key. Like the other
/// `dpc store` tools, not safe against a concurrently serving store.
fn store_merge_cmd(dst: &str, srcs: &[&str]) -> Result<String, String> {
    use dpc_service::store::CertStore;
    // a mistyped destination must not silently become a brand-new
    // store holding the merged records while the real one stays empty
    if !std::path::Path::new(dst).is_dir() {
        return Err(format!(
            "destination store {dst} does not exist (mkdir it first to merge into a fresh store)"
        ));
    }
    for src in srcs {
        if !std::path::Path::new(src).is_dir() {
            return Err(format!("source store {src} does not exist"));
        }
    }
    let dst_store = SegmentStore::open(SegmentConfig::new(dst))
        .map_err(|e| format!("cannot open store at {dst}: {e}"))?;
    let dst_canon = std::fs::canonicalize(dst).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for src in srcs {
        if std::fs::canonicalize(src).map_err(|e| e.to_string())? == dst_canon {
            return Err(format!("cannot merge store {src} into itself"));
        }
        let src_store = SegmentStore::open(SegmentConfig::new(src))
            .map_err(|e| format!("cannot open store at {src}: {e}"))?;
        let report = dst_store
            .merge_from(&src_store)
            .map_err(|e| format!("merge from {src} failed: {e}"))?;
        out.push_str(&format!(
            "merged {src}: {} records scanned, {} new, {} duplicates skipped{}\n",
            report.scanned,
            report.merged,
            report.duplicates,
            if report.source_errors > 0 {
                format!(
                    " (WARNING: {} unreadable source records)",
                    report.source_errors
                )
            } else {
                String::new()
            },
        ));
    }
    dst_store
        .flush()
        .map_err(|e| format!("fsync failed: {e}"))?;
    out.push_str(&format!(
        "store at {dst}: now {} records, {} live bytes\n",
        dst_store.len(),
        dst_store.bytes()
    ));
    Ok(out)
}

fn query_cmd(rest: &[&str]) -> Result<String, String> {
    // flags may appear anywhere: `--scheme <name>` on any
    // graph-carrying query, the shared connection flags on all of
    // them; strip them here so the match below stays flat
    let mut args: Vec<&str> = rest.to_vec();
    let mut scheme = SchemeId::PLANARITY;
    let mut scheme_name = "planarity".to_string();
    if let Some(name) = take_flag_value(&mut args, "--scheme")? {
        scheme = scheme_by_name(&name)?;
        scheme_name = name;
    }
    let chunked = args.contains(&"--chunked");
    args.retain(|&a| a != "--chunked");
    let endpoint = Endpoint::take(&mut args)?;
    if chunked && endpoint.is_ring() {
        // a chunk session lives on one connection; rendezvous routing
        // would need the graph key, which requires the whole graph
        // anyway — query the owner directly instead
        return Err("--chunked streams to a single server (drop --nodes)".to_string());
    }
    // id-reading schemes cannot travel through this subcommand's
    // graph exchange format — inbound (certify/check/soundness parse
    // graph6, which has no id field) or outbound (gen prints graph6,
    // which would silently drop the load-bearing ids): fail fast,
    // before touching the network
    let needs_ids = SchemeRegistry::standard()
        .get(scheme)
        .is_some_and(|e| e.caps.needs_ids);
    if needs_ids
        && matches!(
            args.first(),
            Some(&"certify") | Some(&"check") | Some(&"soundness") | Some(&"gen")
        )
    {
        return Err(format!(
            "scheme {scheme_name} reads network identifiers, which graph6 cannot carry \
             (encoding a graph drops its ids) — use the binary wire protocol instead \
             (dpc_service::Client::certify with CertifyOptions, or the `blocks` family \
             in crates/service/tests/registry_e2e.rs)"
        ));
    }
    let certify_opts = |bypass: bool| {
        let opts = CertifyOptions::new().scheme(scheme);
        let opts = if bypass { opts.bypass() } else { opts };
        if chunked {
            opts.chunked(dpc_service::wire::DEFAULT_CHUNK_BYTES)
        } else {
            opts
        }
    };
    let mut target = endpoint.open()?;
    let response = match args.as_slice() {
        ["certify", s] => target.certify(&parse(s)?, certify_opts(false)),
        ["certify", "--no-cache", s] => target.certify(&parse(s)?, certify_opts(true)),
        _ if chunked => return Err("--chunked only applies to certify".to_string()),
        ["check", s] => target.check(&parse(s)?, CheckOptions::new().scheme(scheme)),
        ["gen", family, n, rest @ ..] => {
            let n: u32 = n.parse().map_err(|_| "n must be a number".to_string())?;
            let seed: u64 = match rest {
                [] => 1,
                [s] => s.parse().map_err(|_| "seed must be a number".to_string())?,
                _ => return Err(usage()),
            };
            let g = target
                .gen(family, n, seed, GenOptions::new().scheme(scheme))
                .map_err(|e| e.to_string())?;
            return Ok(format!("{}\n", graph6::encode(&g)));
        }
        ["soundness", s, rest @ ..] => {
            let seed: u64 = match rest {
                [] => 1,
                [x] => x.parse().map_err(|_| "seed must be a number".to_string())?,
                _ => return Err(usage()),
            };
            target.soundness(
                &parse(s)?,
                SoundnessOptions::new().seed(seed).scheme(scheme),
            )
        }
        ["interactive", s, rest @ ..] => {
            let seed: u64 = match rest {
                [] => 1,
                [x] => x.parse().map_err(|_| "seed must be a number".to_string())?,
                _ => return Err(usage()),
            };
            target.interactive(
                &parse(s)?,
                InteractiveOptions::new().seed(seed).scheme(scheme),
            )
        }
        ["stats"] => return target.stats_text(),
        _ => return Err(usage()),
    };
    render_response(response.map_err(|e| e.to_string())?, &scheme_name)
}

fn render_response(resp: Response, scheme: &str) -> Result<String, String> {
    match resp {
        Response::Error(e) => Err(e),
        Response::Certified {
            cached,
            outcome,
            assignment,
        } => Ok(format!(
            "scheme: {scheme}\ncache: {}\nrounds: {}\nmax certificate: {} bits (avg {:.1})\nassignment: {} certificates, {} bytes\nverdict: {}\n",
            if cached { "hit" } else { "miss" },
            outcome.rounds,
            outcome.max_cert_bits,
            outcome.avg_cert_bits,
            assignment.certs.len(),
            assignment.byte_size(),
            if outcome.all_accept() {
                "all nodes accept".to_string()
            } else {
                format!("{} nodes reject (bug!)", outcome.reject_count())
            }
        )),
        Response::CertifiedSummary { cached, outcome } => Ok(format!(
            "scheme: {scheme}\ncache: {}\nrounds: {}\nmax certificate: {} bits (avg {:.1})\nverdict: {}\n",
            if cached { "hit" } else { "miss" },
            outcome.rounds,
            outcome.max_cert_bits,
            outcome.avg_cert_bits,
            if outcome.all_accept() {
                "all nodes accept".to_string()
            } else {
                format!("{} nodes reject (bug!)", outcome.reject_count())
            }
        )),
        Response::Declined { cached, reason } => Ok(format!(
            "prover declines ({}): {reason}\n(the graph is outside the certified class; by soundness no certificate assignment exists)\n",
            if cached { "cached" } else { "fresh" },
        )),
        Response::Checked(CheckVerdict::Planar { faces, genus }) => Ok(format!(
            "PLANAR (certified: {faces} faces, Euler genus {genus})\n"
        )),
        Response::Checked(CheckVerdict::NonPlanar {
            k5,
            branch_nodes,
            witness_edges,
        }) => Ok(format!(
            "NOT PLANAR (certified: subdivided {} on {witness_edges} edges, branch nodes {branch_nodes:?})\n",
            if k5 { "K5" } else { "K33" },
        )),
        Response::Checked(CheckVerdict::Member { scheme }) => {
            Ok(format!("IN CLASS ({scheme}: the honest prover certifies this instance)\n"))
        }
        Response::Checked(CheckVerdict::NonMember { scheme, reason }) => {
            Ok(format!("NOT IN CLASS ({scheme}): {reason}\n"))
        }
        Response::Generated(g) => Ok(format!("{}\n", graph6::encode(&g))),
        Response::Soundness(rows) => Ok(soundness_table(
            rows.into_iter().map(|r| (r.attack, r.rejects)),
        )),
        Response::Stats(s) => Ok(format!("{s}\n")),
        Response::SlowLog(entries) => Ok(render_slowlog(&entries)),
        // maintenance kinds: no query subcommand issues these, but a
        // response renderer must stay total
        Response::StoreKeys(keys) => Ok(format!("{} store keys\n", keys.len())),
        Response::StorePushed { merged, duplicates } => Ok(format!(
            "store push: {merged} merged, {duplicates} duplicates\n"
        )),
        // the chunked-upload client consumes every per-chunk ack
        // itself; one leaking through to the renderer is a bug worth
        // printing, not panicking over
        Response::ChunkAck { session, received } => Ok(format!(
            "chunk ack: session {session:#x}, {received} frame(s) received\n"
        )),
        // the interactive client consumes the challenge itself; one
        // reaching the renderer means the session desynchronized
        Response::Challenge { session, challenge } => Ok(format!(
            "interactive challenge: session {session:#x}, challenge {challenge:#x}\n"
        )),
        Response::Verdict {
            session,
            challenge,
            accept,
            reject_count,
            nodes,
            max_commit_bits,
            max_response_bits,
            soundness_ppm,
        } => Ok(format!(
            "scheme: {scheme}\nsession: {session:#x}\nchallenge: {challenge:#x}\nverdict: {}\ncommit: {max_commit_bits} bits/node, response: {max_response_bits} bits/node ({nodes} nodes)\nsoundness: a forged proof survives one challenge w.p. <= {soundness_ppm}/1000000 ({:.4})\n",
            if accept {
                "all nodes accept".to_string()
            } else {
                format!("{reject_count} nodes reject")
            },
            soundness_ppm as f64 / 1e6,
        )),
        Response::AuditReport {
            sampled,
            failed,
            quarantined,
        } => Ok(format!(
            "audit: {sampled} sampled, {failed} failed verification, {quarantined} quarantined\n"
        )),
    }
}

/// A `--graph` sizing spec for the benches: `grid:RxC` (one
/// deterministic planar graph), `gnm:N:M` (seeded connected
/// `G(n, m)` — a fresh graph per seed, usually non-planar well below
/// `m = 3n - 6`), or `tri:N` (seeded planar triangulation — a fresh
/// provable graph per seed, what the distributed bench wants).
#[derive(Clone, Copy)]
enum GraphSpec {
    Grid(u32, u32),
    Gnm(u32, u32),
    Tri(u32),
}

impl GraphSpec {
    fn parse(s: &str) -> Result<GraphSpec, String> {
        let bad = || format!("bad --graph {s:?} (want grid:RxC, gnm:N:M, or tri:N)");
        if let Some(n) = s.strip_prefix("tri:") {
            let n = n.parse::<u32>().map_err(|_| bad())?;
            if n < 3 {
                return Err(format!("--graph tri:{n} needs n >= 3"));
            }
            return Ok(GraphSpec::Tri(n));
        }
        if let Some(dims) = s.strip_prefix("grid:") {
            let (r, c) = dims.split_once('x').ok_or_else(bad)?;
            let (r, c) = (
                r.parse::<u32>().map_err(|_| bad())?,
                c.parse::<u32>().map_err(|_| bad())?,
            );
            if r == 0 || c == 0 {
                return Err(bad());
            }
            return Ok(GraphSpec::Grid(r, c));
        }
        if let Some(dims) = s.strip_prefix("gnm:") {
            let (n, m) = dims.split_once(':').ok_or_else(bad)?;
            let (n, m) = (
                n.parse::<u32>().map_err(|_| bad())?,
                m.parse::<u32>().map_err(|_| bad())?,
            );
            // gnm_connected asserts these; fail with a usage error
            // instead of a panic
            if n < 2 || m + 1 < n || m as u64 > n as u64 * (n as u64 - 1) / 2 {
                return Err(format!(
                    "--graph gnm:{n}:{m} needs 2 <= n, n-1 <= m <= n(n-1)/2"
                ));
            }
            return Ok(GraphSpec::Gnm(n, m));
        }
        Err(bad())
    }

    fn make(&self, seed: u64) -> Graph {
        match *self {
            GraphSpec::Grid(r, c) => dpc::graph::generators::grid(r, c),
            GraphSpec::Gnm(n, m) => dpc::graph::generators::gnm_connected(n, m, seed),
            GraphSpec::Tri(n) => dpc::graph::generators::stacked_triangulation(n, seed),
        }
    }

    fn label(&self) -> String {
        match *self {
            GraphSpec::Grid(r, c) => format!("grid({r},{c})"),
            GraphSpec::Gnm(n, m) => format!("gnm({n},{m})"),
            GraphSpec::Tri(n) => format!("tri({n})"),
        }
    }
}

fn bench_serve_cmd(rest: &[&str]) -> Result<String, String> {
    let mut args: Vec<&str> = rest.to_vec();
    let graph_spec = take_flag_value(&mut args, "--graph")?
        .map(|s| GraphSpec::parse(&s))
        .transpose()?;
    let distributed = args.contains(&"--distributed");
    args.retain(|&a| a != "--distributed");
    let connections = take_flag_value(&mut args, "--connections")?;
    let per_conn = take_flag_value(&mut args, "--requests-per-conn")?
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| "requests-per-conn must be a number".to_string())
        })
        .transpose()?
        .unwrap_or(4)
        .max(1);
    let endpoint = if distributed && !args.iter().any(|a| !a.starts_with("--")) {
        // --distributed may legally arrive with no positional at all
        // (count defaults); resolve flags only, then demand the ring
        let ConnFlags {
            wait,
            nodes,
            replication,
        } = take_conn_flags(&mut args)?;
        Endpoint {
            nodes,
            addr: None,
            wait,
            replication,
        }
    } else {
        Endpoint::take(&mut args)?
    };
    if let Some(csv) = connections {
        if endpoint.is_ring() {
            return Err("--connections drives a single server, not --nodes".to_string());
        }
        if !args.is_empty() {
            return Err(usage());
        }
        let addr = endpoint.addr.clone().ok_or_else(usage)?;
        let counts: Vec<usize> = csv
            .split(',')
            .map(|t| {
                t.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad connection count {t:?}"))
            })
            .collect::<Result<_, _>>()?;
        return bench_storm(&addr, &counts, per_conn, endpoint.wait);
    }
    if distributed {
        if !endpoint.is_ring() {
            return Err("--distributed drives a ring: give --nodes a,b,c".to_string());
        }
        let count = match args.as_slice() {
            [] => 12usize,
            [c] => c
                .parse()
                .map_err(|_| "count must be a number".to_string())?,
            _ => return Err(usage()),
        };
        return bench_distributed(endpoint, count.max(1), graph_spec);
    }
    let (hits, side) = match args.as_slice() {
        [] => (32usize, 100u32),
        [hits] => (
            hits.parse()
                .map_err(|_| "hits must be a number".to_string())?,
            100,
        ),
        [hits, side] => (
            hits.parse()
                .map_err(|_| "hits must be a number".to_string())?,
            side.parse()
                .map_err(|_| "side must be a number".to_string())?,
        ),
        _ => return Err(usage()),
    };
    // at least one sample on each side, or the percentiles (and the
    // reported speedup) would be fabricated from zero measurements
    let hits = hits.max(1);
    if endpoint.is_ring() {
        if graph_spec.is_some() {
            // the ring bench picks its graphs BY OWNER (two per
            // node); a fixed spec would defeat that selection
            return Err(
                "--graph applies to the single-server and --distributed benches".to_string(),
            );
        }
        bench_ring(endpoint, hits, side)
    } else {
        let addr = endpoint.addr.clone().ok_or_else(usage)?;
        bench_single(&addr, hits, side, graph_spec, endpoint.wait)
    }
}

fn bench_single(
    addr: &str,
    hits: usize,
    side: u32,
    spec: Option<GraphSpec>,
    wait: Option<Duration>,
) -> Result<String, String> {
    let own_server = if addr == "self" {
        Some(
            dpc_service::serve("127.0.0.1:0", ServeConfig::default())
                .map_err(|e| format!("cannot bind loopback: {e}"))?,
        )
    } else {
        None
    };
    let target = own_server
        .as_ref()
        .map(|h| h.addr().to_string())
        .unwrap_or_else(|| addr.to_string());
    let mut client = connect_wait(&target, wait)?;
    let spec = spec.unwrap_or(GraphSpec::Grid(side, side));
    let label = spec.label();
    let g = spec.make(1);

    let expect_certified = |resp: Response, want_cached: bool| -> Result<(), String> {
        match resp {
            Response::Certified { cached, .. } if cached == want_cached => Ok(()),
            other => Err(format!("unexpected response: {other:?}")),
        }
    };

    // cold misses: bypass the cache so every query is a fresh prove
    let misses = 3usize.min(hits.max(1));
    let mut miss_lat = Vec::with_capacity(misses);
    for _ in 0..misses {
        let start = Instant::now();
        expect_certified(client.certify(&g, true).map_err(|e| e.to_string())?, false)?;
        miss_lat.push(start.elapsed());
    }

    // one caching query (a miss on a cold server; a long-running
    // server may already hold the graph, which is fine), then the
    // measured hit loop
    match client.certify(&g, false).map_err(|e| e.to_string())? {
        Response::Certified { .. } => {}
        other => return Err(format!("unexpected response: {other:?}")),
    }
    let mut hit_lat = Vec::with_capacity(hits);
    let hit_wall = Instant::now();
    for _ in 0..hits {
        let start = Instant::now();
        expect_certified(client.certify(&g, false).map_err(|e| e.to_string())?, true)?;
        hit_lat.push(start.elapsed());
    }
    let hit_wall = hit_wall.elapsed();

    let stats = client.stats().map_err(|e| e.to_string())?;
    let miss_p50 = percentile(&mut miss_lat, 0.50);
    let hit_p50 = percentile(&mut hit_lat, 0.50);
    let hit_p90 = percentile(&mut hit_lat, 0.90);
    let hit_p99 = percentile(&mut hit_lat, 0.99);
    let hit_p999 = percentile(&mut hit_lat, 0.999);
    let speedup = miss_p50.as_secs_f64() / hit_p50.as_secs_f64().max(1e-9);
    let hit_rps = hits as f64 / hit_wall.as_secs_f64().max(1e-9);
    // machine-readable trailer (one JSON object per run, on its own
    // line) so benchmark trajectories can be scraped into BENCH_*.json
    let json = format!(
        "{{\"bench\":\"serve\",\"graph\":\"{label}\",\"nodes\":{},\
         \"miss_queries\":{misses},\"miss_p50_us\":{},\"hit_queries\":{hits},\
         \"hit_p50_us\":{},\"hit_p90_us\":{},\"hit_p99_us\":{},\"hit_p999_us\":{},\
         \"hit_rps\":{hit_rps:.0},\
         \"speedup\":{speedup:.2},\"cache_hits\":{},\"cache_misses\":{},\
         \"proves\":{},\"cache_bytes\":{},\"store_records\":{},\"store_segments\":{},\
         {}}}",
        g.node_count(),
        miss_p50.as_micros(),
        hit_p50.as_micros(),
        hit_p90.as_micros(),
        hit_p99.as_micros(),
        hit_p999.as_micros(),
        stats.cache_hits,
        stats.cache_misses,
        stats.proves,
        stats.cache_bytes,
        stats.store_records,
        stats.store_segments,
        stage_json(&stats.stages),
    );
    let stage_human: String = stats
        .stages
        .named()
        .iter()
        .filter(|(_, h)| h.count() > 0)
        .map(|(name, h)| format!("{name} p50 {} us", h.p50_us()))
        .collect::<Vec<_>>()
        .join(", ");
    let out = format!(
        "bench-serve against {target} on {label} ({} nodes)\n\
         cache-miss (fresh prove): {} queries, p50 {:.3} ms\n\
         cache-hit: {} queries, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, {:.0} req/s\n\
         speedup (miss p50 / hit p50): {speedup:.1}x {}\n\
         server: {} hits, {} misses, {} proves, {} cache bytes\n\
         stages: {stage_human}\n\
         {json}\n",
        g.node_count(),
        misses,
        miss_p50.as_secs_f64() * 1e3,
        hits,
        hit_p50.as_secs_f64() * 1e3,
        hit_p90.as_secs_f64() * 1e3,
        hit_p99.as_secs_f64() * 1e3,
        hit_p999.as_secs_f64() * 1e3,
        hit_rps,
        if speedup >= 10.0 {
            "(>= 10x: cache pays for itself)"
        } else {
            "(WARNING: below the 10x acceptance bar)"
        },
        stats.cache_hits,
        stats.cache_misses,
        stats.proves,
        stats.cache_bytes,
    );
    if let Some(handle) = own_server {
        handle.shutdown();
    }
    Ok(out)
}

/// Connection-storm mode (`--connections N[,N...]`): for each count,
/// hold that many concurrent connections and pipeline
/// `--requests-per-conn` certify requests down each, reporting an
/// rps-vs-connections curve. `self` spawns the in-process server, and
/// the JSON's `mode` names its front end; against a remote address the
/// mode is `"remote"`.
fn bench_storm(
    addr: &str,
    counts: &[usize],
    per_conn: usize,
    wait: Option<Duration>,
) -> Result<String, String> {
    use dpc_service::loadgen::{storm, StormConfig};
    if counts.is_empty() {
        return Err("--connections needs at least one count".to_string());
    }
    let own_server = if addr == "self" {
        Some(
            dpc_service::serve("127.0.0.1:0", ServeConfig::default())
                .map_err(|e| format!("cannot bind loopback: {e}"))?,
        )
    } else {
        None
    };
    let mode = if own_server.is_some() {
        front_end()
    } else {
        "remote"
    };
    let target = own_server
        .as_ref()
        .map(|h| h.addr().to_string())
        .unwrap_or_else(|| addr.to_string());
    // probe (and honor --wait-ms) before the storm, and warm the
    // cache so the storm measures serving, not proving
    let g = dpc::graph::generators::grid(6, 6);
    let body = dpc_service::wire::RequestRef::Certify {
        bypass_cache: false,
        cached_only: false,
        summary: false,
        graph: &g,
        scheme: SchemeId::PLANARITY,
    }
    .encode();
    {
        let mut probe = connect_wait(&target, wait)?;
        probe.certify(&g, false).map_err(|e| e.to_string())?;
    }
    let sock_addr = target
        .to_socket_addrs()
        .map_err(|e| format!("bad address {target}: {e}"))?
        .next()
        .ok_or_else(|| format!("bad address {target}"))?;

    let mut human = format!("bench-serve storm against {target} ({mode}, {per_conn} req/conn)\n");
    let mut curve = Vec::new();
    for &connections in counts {
        // bracket each storm with a Stats poll: the diff isolates the
        // storm's own per-stage latency and back-pressure stalls from
        // whatever ran before it on a long-lived server. Best-effort:
        // a server the storm just collapsed (the threaded 10k case)
        // still gets its failure row, only with empty stage data.
        let poll = |wait| connect_wait(&target, wait).ok()?.stats().ok();
        let before = poll(wait);
        let report = storm(
            sock_addr,
            &StormConfig {
                connections,
                requests_per_conn: per_conn,
                body: body.clone(),
                ..StormConfig::default()
            },
        )
        .map_err(|e| format!("storm failed: {e}"))?;
        let after = poll(None);
        let (stages, stalls) = match (&before, &after) {
            (Some(b), Some(a)) => (
                a.stages.diff(&b.stages),
                a.queue_full_stalls.saturating_sub(b.queue_full_stalls),
            ),
            _ => (Default::default(), 0),
        };
        human.push_str(&format!(
            "  {:>6} conns: {} ok, {} errors, {} failed ({} connect, {} io), {:.0} req/s over {:.0} ms\n\
             {:>10} queue-wait p50 {} us, write-flush p50 {} us, {stalls} queue-full stalls\n",
            report.connections,
            report.ok,
            report.errors,
            report.failed(),
            report.connect_failures,
            report.io_failures,
            report.rps(),
            report.elapsed.as_secs_f64() * 1e3,
            "",
            stages.queue_wait.p50_us(),
            stages.write_flush.p50_us(),
        ));
        curve.push(format!(
            "{{\"connections\":{},\"requests\":{},\"ok\":{},\"errors\":{},\
             \"failed\":{},\"connect_failures\":{},\"io_failures\":{},\
             \"rps\":{:.0},\"elapsed_ms\":{:.0},\"queue_full_stalls\":{stalls},{}}}",
            report.connections,
            report.requests,
            report.ok,
            report.errors,
            report.failed(),
            report.connect_failures,
            report.io_failures,
            report.rps(),
            report.elapsed.as_secs_f64() * 1e3,
            stage_json(&stages),
        ));
    }
    let json = format!(
        "{{\"bench\":\"serve-storm\",\"mode\":\"{mode}\",\"graph\":\"grid(6,6)\",\
         \"requests_per_conn\":{per_conn},\"curve\":[{}]}}",
        curve.join(",")
    );
    human.push_str(&json);
    human.push('\n');
    if let Some(handle) = own_server {
        handle.shutdown();
    }
    Ok(human)
}

/// Drives a whole ring: distinct same-size graphs (two per node, so
/// rendezvous routing exercises every server) through miss and hit
/// rounds, then reports fleet-aggregated stats plus the client-side
/// routing counters — and the same machine-readable JSON trailer the
/// single-node bench emits, extended with `ring_*` fields.
fn bench_ring(endpoint: Endpoint, hits: usize, side: u32) -> Result<String, String> {
    let mut cc = endpoint.open_ring()?;
    let ring_nodes = cc.ring().len();
    let replication = cc.replication();
    let n = side * side;
    // two graphs selected per node BY OWNER, so the bench provably
    // drives every server (a blind sample could skip one and skew
    // the JSON trajectory's ring_spread)
    let graphs: Vec<Graph> = dpc_service::cluster::graphs_by_owner(cc.ring(), 2, n)
        .into_iter()
        .flatten()
        .collect();

    let expect_certified = |resp: Response, want_cached: bool| -> Result<(), String> {
        match resp {
            Response::Certified { cached, .. } if cached == want_cached => Ok(()),
            other => Err(format!("unexpected response: {other:?}")),
        }
    };

    // cold misses: one bypass prove per graph, measured
    let mut miss_lat = Vec::with_capacity(graphs.len());
    for g in &graphs {
        let start = Instant::now();
        expect_certified(cc.certify(g, true).map_err(|e| e.to_string())?, false)?;
        miss_lat.push(start.elapsed());
    }
    // one caching round (fresh servers prove here), then the hit loop
    for g in &graphs {
        match cc.certify(g, false).map_err(|e| e.to_string())? {
            Response::Certified { .. } => {}
            other => return Err(format!("unexpected response: {other:?}")),
        }
    }
    // the hit loop tolerates failures instead of aborting: the CI
    // chaos step kills a node mid-loop, and the whole point of
    // replication is that `failed` stays 0 anyway
    let mut failed = 0usize;
    let mut hit_lat = Vec::with_capacity(hits);
    let hit_wall = Instant::now();
    for i in 0..hits {
        let g = &graphs[i % graphs.len()];
        let start = Instant::now();
        match cc.certify(g, false) {
            Ok(Response::Certified { .. }) => hit_lat.push(start.elapsed()),
            Ok(_) | Err(_) => failed += 1,
        }
    }
    let hit_wall = hit_wall.elapsed();

    let routing = cc.stats().clone();
    let (fleet, _per_node) = cc.fleet_stats().map_err(|e| e.to_string())?;
    let misses = miss_lat.len();
    let miss_p50 = percentile(&mut miss_lat, 0.50);
    let hit_p50 = percentile(&mut hit_lat, 0.50);
    let hit_p90 = percentile(&mut hit_lat, 0.90);
    let hit_p99 = percentile(&mut hit_lat, 0.99);
    let hit_p999 = percentile(&mut hit_lat, 0.999);
    let speedup = miss_p50.as_secs_f64() / hit_p50.as_secs_f64().max(1e-9);
    let hit_rps = hits as f64 / hit_wall.as_secs_f64().max(1e-9);
    let json = format!(
        "{{\"bench\":\"serve\",\"mode\":\"ring\",\"graph\":\"stacked_triangulation({n})x{}\",\
         \"nodes\":{n},\"ring_nodes\":{ring_nodes},\"ring_spread\":{},\"failovers\":{},\
         \"replication\":{replication},\"failed\":{failed},\"replica_writes\":{},\
         \"read_repairs\":{},\"replica_errors\":{},\
         \"miss_queries\":{misses},\"miss_p50_us\":{},\"hit_queries\":{hits},\
         \"hit_p50_us\":{},\"hit_p90_us\":{},\"hit_p99_us\":{},\"hit_p999_us\":{},\
         \"hit_rps\":{hit_rps:.0},\
         \"speedup\":{speedup:.2},\"cache_hits\":{},\"cache_misses\":{},\
         \"proves\":{},\"cache_bytes\":{},\"store_records\":{},\"store_segments\":{},\
         {}}}",
        graphs.len(),
        routing.nodes_used(),
        routing.failovers,
        routing.replica_writes,
        routing.read_repairs,
        routing.replica_errors,
        miss_p50.as_micros(),
        hit_p50.as_micros(),
        hit_p90.as_micros(),
        hit_p99.as_micros(),
        hit_p999.as_micros(),
        fleet.cache_hits,
        fleet.cache_misses,
        fleet.proves,
        fleet.cache_bytes,
        fleet.store_records,
        fleet.store_segments,
        stage_json(&fleet.stages),
    );
    Ok(format!(
        "bench-serve against a ring of {ring_nodes} node(s), {} graphs of {n} nodes each (replication {replication}, {failed} failed)\n\
         routing: {}/{ring_nodes} nodes served traffic, {} failovers\n\
         cache-miss (fresh prove): {misses} queries, p50 {:.3} ms\n\
         cache-hit: {hits} queries, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms, {:.0} req/s\n\
         speedup (miss p50 / hit p50): {speedup:.1}x\n\
         fleet: {} hits, {} misses, {} proves, {} store records\n\
         {json}\n",
        graphs.len(),
        routing.nodes_used(),
        routing.failovers,
        miss_p50.as_secs_f64() * 1e3,
        hit_p50.as_secs_f64() * 1e3,
        hit_p90.as_secs_f64() * 1e3,
        hit_p99.as_secs_f64() * 1e3,
        hit_p999.as_secs_f64() * 1e3,
        hit_rps,
        fleet.cache_hits,
        fleet.cache_misses,
        fleet.proves,
        fleet.store_records,
    ))
}

/// `--distributed`: proves `count` seeded graphs twice — once fanned
/// across the ring by `ClusterClient::certify_distributed` (rendezvous
/// owner per graph, pipelined, merged with the shared integer fold),
/// once sequentially down a single connection to one node — and
/// demands the two `BatchSummary` folds be identical before reporting
/// the speedup. Both sweeps bypass the cache so they measure proving,
/// not cache hits. The JSON gains `distributed_*` fields plus `cores`,
/// so CI can skip the speedup gate on a 1-core runner (the
/// byte-identity gate never skips).
fn bench_distributed(
    endpoint: Endpoint,
    count: usize,
    spec: Option<GraphSpec>,
) -> Result<String, String> {
    let spec = spec.unwrap_or(GraphSpec::Tri(2000));
    let wait = endpoint.wait;
    let mut cc = endpoint.open_ring()?;
    let ring_nodes = cc.ring().len();
    let first = cc.ring().addrs()[0].clone();
    let graphs: Vec<Graph> = (0..count).map(|i| spec.make(i as u64 + 1)).collect();

    // sequential reference first (the ring is equally cold for both
    // sweeps since they bypass the cache anyway)
    let mut seq_client = connect_wait(&first, wait)?;
    let seq_start = Instant::now();
    let mut seq_results: Vec<Option<Outcome>> = Vec::with_capacity(count);
    for g in &graphs {
        match seq_client
            .certify(g, CertifyOptions::new().bypass().summary())
            .map_err(|e| e.to_string())?
        {
            Response::CertifiedSummary { outcome, .. } => seq_results.push(Some(outcome)),
            Response::Declined { .. } => seq_results.push(None),
            other => return Err(format!("unexpected response: {other:?}")),
        }
    }
    let seq_wall = seq_start.elapsed();
    let seq_summary = BatchSummary::fold(seq_results.iter().map(|o| o.as_ref()));

    let dist_start = Instant::now();
    let report = cc.certify_distributed(&graphs, true, SchemeId::PLANARITY);
    let dist_wall = dist_start.elapsed();

    if report.summary != seq_summary {
        return Err(format!(
            "distributed summary diverges from the sequential fold (bug!)\n\
             distributed: {:?}\n sequential: {:?}",
            report.summary, seq_summary
        ));
    }
    // per-instance outcomes must agree too, not just the fold
    for (i, (d, s)) in report.results.iter().zip(&seq_results).enumerate() {
        if d.as_ref().ok() != s.as_ref() {
            return Err(format!(
                "graph {i}: distributed outcome {d:?} != sequential {s:?} (bug!)"
            ));
        }
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let speedup = seq_wall.as_secs_f64() / dist_wall.as_secs_f64().max(1e-9);
    let s = &report.summary;
    let json = format!(
        "{{\"bench\":\"serve-distributed\",\"graph\":\"{}\",\"graphs\":{count},\
         \"ring_nodes\":{ring_nodes},\"distributed_nodes_used\":{},\
         \"delegated_proves\":{},\"delegate_errors\":{},\"merge_us\":{},\
         \"distributed_wall_ms\":{:.1},\"sequential_wall_ms\":{:.1},\
         \"speedup\":{speedup:.2},\"summary_identical\":true,\"cores\":{cores},\
         \"summary\":{{\"instances\":{},\"proved\":{},\"declined\":{},\
         \"accepted\":{},\"rejecting_nodes\":{},\"nodes\":{},\
         \"max_cert_bits\":{},\"total_cert_bits\":{},\"max_rounds\":{}}}}}",
        spec.label(),
        report.nodes_used,
        report.delegated,
        report.delegate_errors,
        report.merge_wall.as_micros(),
        dist_wall.as_secs_f64() * 1e3,
        seq_wall.as_secs_f64() * 1e3,
        s.instances,
        s.proved,
        s.declined,
        s.accepted,
        s.rejecting_nodes,
        s.nodes,
        s.max_cert_bits,
        s.total_cert_bits,
        s.max_rounds,
    );
    Ok(format!(
        "bench-serve --distributed: {count} x {} across {ring_nodes} node(s)\n\
         distributed: {:.1} ms over {} node(s), {} delegated, {} errors, merge {} us\n\
         sequential:  {:.1} ms down one connection to {first}\n\
         speedup: {speedup:.2}x on {cores} core(s)\n\
         fold: {} proved, {} declined, {} accepted — identical to the sequential fold\n\
         {json}\n",
        spec.label(),
        dist_wall.as_secs_f64() * 1e3,
        report.nodes_used,
        report.delegated,
        report.delegate_errors,
        report.merge_wall.as_micros(),
        seq_wall.as_secs_f64() * 1e3,
        s.proved,
        s.declined,
        s.accepted,
    ))
}

/// The per-stage breakdown as a `"stages":{...}` JSON fragment for
/// the bench trailers: server-side sample count and p50/p99 per
/// traced stage (stages with no samples are included at zero, so a
/// scraper can rely on the keys).
fn stage_json(stages: &dpc_service::StageSnapshot) -> String {
    let fields: Vec<String> = stages
        .named()
        .iter()
        .map(|(name, h)| {
            format!(
                "\"{name}\":{{\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
                h.count(),
                h.p50_us(),
                h.p99_us(),
            )
        })
        .collect();
    format!("\"stages\":{{{}}}", fields.join(","))
}

fn percentile(samples: &mut [Duration], q: f64) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    let idx = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    samples[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_planar_and_nonplanar() {
        let out = run(&["check", "Bw"]).unwrap(); // K3
        assert!(out.contains("PLANAR"));
        let out = run(&["check", "D~{"]).unwrap(); // K5
        assert!(out.contains("NOT PLANAR"));
        assert!(out.contains("K5"));
    }

    #[test]
    fn certify_round_trip() {
        let g6 = run(&["gen", "triangulation", "40", "7"]).unwrap();
        let out = run(&["certify", g6.trim()]).unwrap();
        assert!(out.contains("all nodes accept"));
        assert!(out.contains("rounds: 1"));
        let out = run(&["certify", "D~{"]).unwrap();
        assert!(out.contains("prover declines"));
    }

    #[test]
    fn embed_lists_faces() {
        let out = run(&["embed", "Bw"]).unwrap(); // triangle: two faces
        assert_eq!(out.matches("face ").count(), 2);
        assert!(run(&["embed", "D~{"]).is_err());
    }

    #[test]
    fn kuratowski_extraction() {
        let g6 = run(&["gen", "k33sub", "2", "1"]).unwrap();
        let out = run(&["kuratowski", g6.trim()]).unwrap();
        assert!(out.contains("K33"));
        assert!(run(&["kuratowski", "Bw"]).is_err());
    }

    #[test]
    fn usage_and_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&["bogus"]).is_err());
        assert!(run(&["gen", "nosuch", "5"]).is_err());
        assert!(run(&["check", "\u{1}"]).is_err());
        assert!(
            run(&["query", "127.0.0.1:1", "stats"]).is_err(),
            "nothing listens there"
        );
        assert!(run(&["serve", "definitely:not:an:addr"]).is_err());
    }

    #[test]
    fn soundness_subcommand_prints_the_attack_table() {
        let g6 = run(&["gen", "planted-k5", "20", "3"]).unwrap();
        let out = run(&["soundness", g6.trim(), "1"]).unwrap();
        assert!(out.contains("non-planar no-instance"));
        assert!(out.contains("attack"));
        assert!(out.contains("replay-planarized"));
        assert!(out.contains("soundness holds"));
        // planar instances get the caveat instead
        let out = run(&["soundness", "Bw"]).unwrap();
        assert!(out.contains("attacks are expected to succeed"));
    }

    #[test]
    fn gen_covers_the_service_families() {
        for family in dpc_service::gen::FAMILIES {
            let out = run(&["gen", family, "20", "2"]).unwrap();
            assert!(graph6::decode(out.trim()).is_ok(), "{family}");
        }
    }

    #[test]
    fn query_round_trip_against_a_live_server() {
        let handle = dpc_service::serve("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let g6 = run(&["gen", "grid", "49", "1"]).unwrap();
        let g6 = g6.trim();

        let first = run(&["query", &addr, "certify", g6]).unwrap();
        assert!(first.contains("cache: miss"));
        assert!(first.contains("all nodes accept"));
        let second = run(&["query", &addr, "certify", g6]).unwrap();
        assert!(second.contains("cache: hit"));

        let checked = run(&["query", &addr, "check", "D~{"]).unwrap();
        assert!(checked.contains("NOT PLANAR"));
        let declined = run(&["query", &addr, "certify", "D~{"]).unwrap();
        assert!(declined.contains("prover declines"));

        let generated = run(&["query", &addr, "gen", "cycle", "12"]).unwrap();
        assert_eq!(graph6::decode(generated.trim()).unwrap().node_count(), 12);

        let stats = run(&["query", &addr, "stats"]).unwrap();
        assert!(stats.contains("1 hits"), "{stats}");

        handle.shutdown();
    }

    #[test]
    fn schemes_lists_the_registry() {
        let out = run(&["schemes"]).unwrap();
        for name in [
            "planarity",
            "bipartite",
            "tree",
            "spanning-tree",
            "path-outerplanar",
            "non-planarity",
            "universal",
            "mod-counter",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("O(log n) bits (Theorem 1)"));
        assert!(out.contains("wire default"));
    }

    #[test]
    fn query_scheme_flag_routes_and_isolates() {
        let handle = dpc_service::serve("127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let g6 = run(&["gen", "grid", "36", "1"]).unwrap();
        let g6 = g6.trim();

        // same graph, two schemes: two cache entries, each with its
        // own miss-then-hit sequence
        let plan = run(&["query", &addr, "certify", g6]).unwrap();
        assert!(plan.contains("scheme: planarity"), "{plan}");
        assert!(plan.contains("cache: miss"));
        let bip = run(&["query", &addr, "certify", "--scheme", "bipartite", g6]).unwrap();
        assert!(bip.contains("scheme: bipartite"), "{bip}");
        assert!(bip.contains("cache: miss"), "no cross-scheme hit: {bip}");
        assert!(bip.contains("all nodes accept"));
        let bip2 = run(&["query", &addr, "certify", "--scheme", "bipartite", g6]).unwrap();
        assert!(bip2.contains("cache: hit"), "{bip2}");

        // generic membership verdicts
        let member = run(&["query", &addr, "check", "--scheme", "bipartite", g6]).unwrap();
        assert!(member.contains("IN CLASS"), "{member}");
        let non = run(&["query", &addr, "check", "--scheme", "tree", g6]).unwrap();
        assert!(non.contains("NOT IN CLASS"), "{non}");

        // spanning-tree certifies any connected graph
        let st = run(&["query", &addr, "certify", "--scheme", "spanning-tree", g6]).unwrap();
        assert!(st.contains("scheme: spanning-tree"), "{st}");
        assert!(st.contains("all nodes accept"), "{st}");

        // per-scheme stats rows over the wire
        let stats = run(&["query", &addr, "stats"]).unwrap();
        assert!(stats.contains("bipartite"), "{stats}");
        assert!(stats.contains("mod-counter"), "{stats}");

        // unknown scheme name fails client-side with a pointer
        let err = run(&["query", &addr, "certify", "--scheme", "nosuch", g6]).unwrap_err();
        assert!(err.contains("dpc schemes"), "{err}");

        // gen accepts --scheme now: "default" routes to the scheme's
        // canonical yes-instance family
        let bip_gen = run(&[
            "query",
            &addr,
            "gen",
            "default",
            "25",
            "--scheme",
            "bipartite",
        ])
        .unwrap();
        let g = graph6::decode(bip_gen.trim()).unwrap();
        let member = run(&[
            "query",
            &addr,
            "check",
            "--scheme",
            "bipartite",
            bip_gen.trim(),
        ])
        .unwrap();
        assert!(member.contains("IN CLASS"), "{member}");
        assert!(g.node_count() >= 25);

        handle.shutdown();
    }

    #[test]
    fn mod_counter_over_graph6_declines_with_a_pointer_to_the_wire() {
        // the guard fires client-side, before any connection: the
        // address below has nothing listening, and must not matter
        let blocks = run(&["gen", "blocks", "30", "4"]).unwrap();
        for sub in ["certify", "check", "soundness"] {
            let err = run(&[
                "query",
                "127.0.0.1:1",
                sub,
                "--scheme",
                "mod-counter",
                blocks.trim(),
            ])
            .unwrap_err();
            assert!(!err.contains('\n'), "one-line error: {err:?}");
            assert!(err.contains("graph6"), "{err}");
            assert!(err.contains("identifiers"), "{err}");
            assert!(err.contains("binary wire"), "{err}");
        }
        // gen is guarded too: its graph6 *output* would silently drop
        // the load-bearing identifiers
        let err = run(&[
            "query",
            "127.0.0.1:1",
            "gen",
            "default",
            "30",
            "--scheme",
            "mod-counter",
        ])
        .unwrap_err();
        assert!(err.contains("graph6"), "{err}");
        // id-free schemes still pass the guard (and then fail on the
        // dead address, proving the guard came first above)
        let err = run(&[
            "query",
            "127.0.0.1:1",
            "certify",
            "--scheme",
            "bipartite",
            blocks.trim(),
        ])
        .unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
    }

    #[test]
    fn gen_default_family_routes_by_scheme() {
        // local subcommand: "default" means the wire-default scheme
        let out = run(&["gen", "default", "30", "1"]).unwrap();
        let g = graph6::decode(out.trim()).unwrap();
        assert!(dpc::planar::lr::is_planar(&g), "planarity default family");
    }

    #[test]
    fn serve_schemes_flag_validates_names() {
        assert!(run(&["serve", "127.0.0.1:1", "--schemes", "nosuch"]).is_err());
        // store flags validate before binding anything
        assert!(run(&["serve", "127.0.0.1:1", "--store-budget-bytes", "4096"]).is_err());
        assert!(run(&["serve", "127.0.0.1:1", "--store-dir"]).is_err());
        assert!(run(&["serve", "127.0.0.1:1", "--bogus-flag", "x"]).is_err());
    }

    #[test]
    fn schemes_lists_the_needs_ids_capability() {
        let out = run(&["schemes"]).unwrap();
        assert!(out.contains("needs-ids"), "{out}");
        let mc_line = out
            .lines()
            .find(|l| l.contains("mod-counter"))
            .expect("mod-counter row");
        assert!(mc_line.contains("binary wire only"), "{mc_line}");
    }

    #[test]
    fn store_subcommands_stat_compact_verify() {
        use dpc_service::store::CertStore;
        let dir = std::env::temp_dir().join(format!("dpc-cli-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.display().to_string();
        // seed a store with two certified planarity records
        {
            let store = SegmentStore::open(SegmentConfig::new(&dir)).unwrap();
            for seed in 0..2u64 {
                let g = dpc::graph::generators::stacked_triangulation(18, seed);
                let certified =
                    dpc::core::harness::certify_pls(&PlanarityScheme::new(), &g).unwrap();
                let mut keyed = Vec::new();
                dpc_runtime::put_uvarint(&mut keyed, 0);
                dpc_service::wire::encode_graph(&mut keyed, &g);
                let entry = dpc_service::cache::CacheEntry::new(
                    dpc_service::cache::ProveResult::Certified {
                        assignment: certified.assignment,
                        outcome: certified.outcome,
                    },
                    keyed,
                );
                store.put(&entry.record()).unwrap();
            }
            store.flush().unwrap();
        }
        let stat = run(&["store", "stat", &dir_s]).unwrap();
        assert!(stat.contains("2 records"), "{stat}");
        assert!(stat.contains("planarity"), "{stat}");
        let verify = run(&["store", "verify", &dir_s]).unwrap();
        assert!(verify.contains("verifies clean"), "{verify}");
        assert!(verify.contains("2 records"), "{verify}");
        let compact = run(&["store", "compact", &dir_s]).unwrap();
        assert!(compact.contains("2 records live"), "{compact}");
        assert!(run(&["store", "nosuch", &dir_s]).is_err());

        // the chaos tool flips a verdict but keeps the store
        // structurally clean: `verify` still passes afterwards (the
        // whole point — only the auditor can catch the lie)
        let corrupt = run(&["store", "corrupt", &dir_s]).unwrap();
        assert!(corrupt.contains("flipped one verdict"), "{corrupt}");
        let after = run(&["store", "verify", &dir_s]).unwrap();
        assert!(after.contains("verifies clean"), "{after}");
        let _ = std::fs::remove_dir_all(&dir);

        // nothing to corrupt is a loud error, not a silent no-op
        let empty = std::env::temp_dir().join(format!("dpc-cli-nocorr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&empty);
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run(&["store", "corrupt", &empty.display().to_string()]).is_err());
        let _ = std::fs::remove_dir_all(&empty);
    }

    /// Starts `n` servers, each with a store under `base`; returns
    /// handles and the comma-joined `--nodes` list.
    fn ring_of(n: usize, base: &std::path::Path) -> (Vec<dpc_service::ServerHandle>, String) {
        let handles: Vec<dpc_service::ServerHandle> = (0..n)
            .map(|i| {
                let cfg = ServeConfig {
                    store: Some(SegmentConfig::new(base.join(format!("node-{i}")))),
                    ..ServeConfig::default()
                };
                dpc_service::serve("127.0.0.1:0", cfg).unwrap()
            })
            .collect();
        let csv = handles
            .iter()
            .map(|h| h.addr().to_string())
            .collect::<Vec<_>>()
            .join(",");
        (handles, csv)
    }

    #[test]
    fn query_nodes_routes_a_ring_with_failover_and_cluster_stats() {
        let base = std::env::temp_dir().join(format!("dpc-cli-ring-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (mut handles, csv) = ring_of(3, &base);

        // the node ports are OS-assigned, so pick the traffic through
        // the pure ring: two triangulations per node — the spread
        // assertion below is then deterministic, not probabilistic
        use dpc_service::cluster::{graphs_by_owner, Ring};
        let ring = Ring::new(csv.split(',')).unwrap();
        let g6s: Vec<String> = graphs_by_owner(&ring, 2, 24)
            .into_iter()
            .flatten()
            .map(|g| graph6::encode(&g))
            .collect();

        // mixed-scheme traffic through the ring
        for g6 in &g6s {
            let out = run(&["query", "--nodes", &csv, "certify", g6]).unwrap();
            assert!(out.contains("all nodes accept"), "{out}");
        }
        let grid = run(&["gen", "grid", "36", "1"]).unwrap();
        let bip = run(&[
            "query",
            "--nodes",
            &csv,
            "certify",
            "--scheme",
            "bipartite",
            grid.trim(),
        ])
        .unwrap();
        assert!(bip.contains("scheme: bipartite"), "{bip}");

        // the fleet view sees every node and the spread
        let stats = run(&["cluster-stats", "--nodes", &csv]).unwrap();
        assert!(stats.contains("fleet (3/3 nodes up)"), "{stats}");
        let spread = stats
            .lines()
            .filter(|l| l.starts_with("node ") && !l.contains("certify 0"))
            .count();
        assert!(spread >= 2, "keys spread across >= 2 nodes:\n{stats}");

        // kill one node: routed queries keep succeeding via failover
        handles.remove(0).shutdown();
        for g6 in &g6s {
            let out = run(&["query", "--nodes", &csv, "certify", g6]).unwrap();
            assert!(out.contains("all nodes accept"), "{out}");
        }
        let stats = run(&["cluster-stats", "--nodes", &csv]).unwrap();
        assert!(stats.contains("DOWN"), "{stats}");
        assert!(stats.contains("fleet (2/3 nodes up)"), "{stats}");

        // `query --nodes stats` renders the same fleet view
        let qstats = run(&["query", "--nodes", &csv, "stats"]).unwrap();
        assert!(qstats.contains("fleet (2/3 nodes up)"), "{qstats}");

        for h in handles {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn store_merge_subcommand_unions_and_deduplicates() {
        use dpc_service::store::CertStore;
        let base = std::env::temp_dir().join(format!("dpc-cli-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (a_dir, b_dir) = (base.join("a"), base.join("b"));
        let seed_store = |dir: &std::path::Path, seeds: std::ops::Range<u64>| {
            let store = SegmentStore::open(SegmentConfig::new(dir)).unwrap();
            for seed in seeds {
                let g = dpc::graph::generators::stacked_triangulation(18, seed);
                let certified =
                    dpc::core::harness::certify_pls(&PlanarityScheme::new(), &g).unwrap();
                let mut keyed = Vec::new();
                dpc_runtime::put_uvarint(&mut keyed, 0);
                dpc_service::wire::encode_graph(&mut keyed, &g);
                let entry = dpc_service::cache::CacheEntry::new(
                    dpc_service::cache::ProveResult::Certified {
                        assignment: certified.assignment,
                        outcome: certified.outcome,
                    },
                    keyed,
                );
                store.put(&entry.record()).unwrap();
            }
            store.flush().unwrap();
        };
        seed_store(&a_dir, 0..3); // seeds 0,1,2
        seed_store(&b_dir, 2..5); // seeds 2,3,4 — one overlap
        let (a_s, b_s) = (a_dir.display().to_string(), b_dir.display().to_string());
        let out = run(&["store", "merge", &a_s, &b_s]).unwrap();
        assert!(
            out.contains("3 records scanned, 2 new, 1 duplicates skipped"),
            "{out}"
        );
        assert!(out.contains("now 5 records"), "{out}");
        // merged store verifies clean; re-merging is a pure no-op
        assert!(run(&["store", "verify", &a_s])
            .unwrap()
            .contains("verifies clean"));
        let again = run(&["store", "merge", &a_s, &b_s]).unwrap();
        assert!(again.contains("0 new, 3 duplicates skipped"), "{again}");
        assert!(again.contains("now 5 records"), "{again}");
        // guard rails: self-merge, missing sources, and a mistyped
        // destination (which must not become a fresh store) all refuse
        assert!(run(&["store", "merge", &a_s, &a_s]).is_err());
        let ghost = base.join("nosuch").display().to_string();
        assert!(run(&["store", "merge", &a_s, &ghost]).is_err());
        assert!(run(&["store", "merge", &ghost, &b_s]).is_err());
        assert!(!base.join("nosuch").exists(), "no store was created");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn wait_ms_retries_the_connect_until_the_deadline() {
        let start = Instant::now();
        let err = run(&["query", "127.0.0.1:1", "stats", "--wait-ms", "150"]).unwrap_err();
        assert!(err.contains("cannot connect"), "{err}");
        assert!(
            start.elapsed() >= Duration::from_millis(150),
            "the deadline was honored: {:?}",
            start.elapsed()
        );
        assert!(run(&["query", "127.0.0.1:1", "stats", "--wait-ms", "abc"]).is_err());
    }

    #[test]
    fn bench_serve_ring_drives_every_node() {
        let base = std::env::temp_dir().join(format!("dpc-cli-benchring-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (handles, csv) = ring_of(2, &base);
        let out = run(&["bench-serve", "--nodes", &csv, "6", "8"]).unwrap();
        let json = out
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("JSON summary line");
        for key in [
            "\"bench\":\"serve\"",
            "\"mode\":\"ring\"",
            "\"ring_nodes\":2",
            "\"ring_spread\":2",
            "\"failovers\":0",
            "\"replication\":2",
            "\"failed\":0",
            "\"replica_writes\":",
            "\"read_repairs\":0",
            "\"hit_p50_us\":",
            "\"speedup\":",
            "\"store_records\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        for h in handles {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn cluster_flags_validate() {
        // duplicate nodes are a configuration error, caught before
        // any connection
        assert!(run(&["query", "--nodes", "a:1,a:1", "stats"]).is_err());
        assert!(run(&["cluster-stats"]).is_err(), "--nodes is required");
        // a repeated flag is a loud error, never a positional
        let err = run(&[
            "query",
            "--wait-ms",
            "100",
            "--wait-ms",
            "200",
            "127.0.0.1:1",
            "stats",
        ])
        .unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        assert!(run(&["query", "--nodes"]).is_err(), "--nodes needs a value");
        assert!(
            run(&["store", "merge", "/tmp/only-dst"]).is_err(),
            "needs sources"
        );
        // replication must be a positive count
        for bad in ["0", "abc"] {
            let err =
                run(&["query", "--nodes", "a:1,b:1", "--replication", bad, "stats"]).unwrap_err();
            assert!(err.contains("replication"), "{err}");
        }
    }

    #[test]
    fn bench_serve_reports_the_speedup() {
        // small grid keeps the test fast; the 10x acceptance bar on
        // grid(100,100) is asserted in crates/service/tests/service_e2e.rs
        let out = run(&["bench-serve", "self", "8", "40"]).unwrap();
        assert!(out.contains("cache-hit"));
        assert!(out.contains("cache-miss"));
        assert!(out.contains("speedup"));
        // the machine-readable trailer: one JSON object on its own line
        let json = out
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("JSON summary line");
        assert!(json.ends_with('}'), "{json}");
        for key in [
            "\"bench\":\"serve\"",
            "\"hit_p50_us\":",
            "\"miss_p50_us\":",
            "\"speedup\":",
            "\"hit_rps\":",
            "\"store_records\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
