//! The cluster node process: what runs after the launcher fork/execs us.
//!
//! Every node re-execs the launching binary with a sentinel argv
//! ([`SENTINEL`]) so one executable serves as both launcher and node —
//! host binaries call [`maybe_run_node`] first thing in `main`. A node
//! process assembles exactly the stack one tree position needs:
//!
//! - a [`covenant_wire::WireNode`] epoll runtime speaking the frame
//!   protocol on its tree edges (every node);
//! - for leaf nodes given an origin backend, a single-shard
//!   [`covenant_l7::ShardedL7`] data plane whose `ShardCore` publishes
//!   through the wire transport as this tree node;
//! - for root/interior nodes, a heartbeat thread publishing zero demand
//!   each window so aggregation rounds keep closing;
//! - an HTTP `/metrics` endpoint (prometheus text format) on every node.
//!
//! Once up, the process prints one `READY …` line carrying its bound
//! addresses — the launcher reads it to wire children to parents — and
//! parks until killed.

use crate::metrics::render_metrics;
use covenant_core::DeploymentSpec;
use covenant_coord::Coordinator;
use covenant_http::{handler, HttpResponse, HttpServer, StatusCode};
use covenant_l7::{L7Config, ShardedL7};
use covenant_sched::SchedulerConfig;
use covenant_tree::CoordTransport;
use covenant_wire::{StampMode, WireNode, WireNodeConfig};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The argv sentinel marking a process as a cluster node re-exec.
pub const SENTINEL: &str = "__covenant_cluster_node";

/// Entry hook for host binaries: call this first in `main`. If the
/// process was exec'd as a cluster node (argv`[1]` is [`SENTINEL`]), runs
/// the node and never returns; otherwise returns immediately.
pub fn maybe_run_node() {
    let args: Vec<String> = std::env::args().collect();
    let is_node = args.get(1).map(String::as_str) == Some(SENTINEL);
    if !is_node {
        return;
    }
    match run_node(&args) {
        Ok(never) => match never {},
        Err(e) => {
            eprintln!("cluster node failed: {e}");
            std::process::exit(2);
        }
    }
}

/// Uninhabited: `run_node` parks forever on success.
enum Never {}

/// `key=` argument lookup.
fn kv<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    let prefix = format!("{key}=");
    args.iter().find_map(|a| a.strip_prefix(&prefix))
}

fn parse_addr(s: &str, what: &str) -> Result<Option<SocketAddr>, String> {
    if s == "-" {
        return Ok(None);
    }
    s.parse::<SocketAddr>().map(Some).map_err(|e| format!("bad {what} address {s:?}: {e}"))
}

fn run_node(args: &[String]) -> Result<Never, String> {
    let spec_json = args.get(2).ok_or("missing spec argument")?;
    let spec = DeploymentSpec::from_json(spec_json).map_err(|e| format!("bad spec: {e}"))?;
    let node: usize = kv(args, "node")
        .ok_or("missing node= argument")?
        .parse()
        .map_err(|e| format!("bad node=: {e}"))?;
    let epoch: u32 = kv(args, "epoch")
        .ok_or("missing epoch= argument")?
        .parse()
        .map_err(|e| format!("bad epoch=: {e}"))?;
    let parent = parse_addr(kv(args, "parent").unwrap_or("-"), "parent")?;
    let origin = parse_addr(kv(args, "origin").unwrap_or("-"), "origin")?;

    let parents = &spec.redirector_tree;
    let nodes = parents.len();
    if node >= nodes {
        return Err(format!("node {node} out of range for a {nodes}-node tree"));
    }
    if parents.get(node).map(Option::is_some) != Some(parent.is_some()) {
        return Err(format!("node {node}: parent address does not match the spec tree"));
    }
    let children: Vec<usize> = parents
        .iter()
        .enumerate()
        .filter(|(_, p)| **p == Some(node))
        .map(|(c, _)| c)
        .collect();
    if spec.window_secs <= 0.0 {
        return Err(format!("bad window_secs {}", spec.window_secs));
    }
    let window = Duration::try_from_secs_f64(spec.window_secs)
        .map_err(|e| format!("bad window_secs {}: {e}", spec.window_secs))?;

    // The wire runtime: this process's tree position, live-stamped so
    // propagation becomes a measured quantity.
    let bind: SocketAddr =
        "127.0.0.1:0".parse().map_err(|e| format!("loopback bind: {e}"))?;
    let wire = WireNode::start(WireNodeConfig {
        node,
        nodes,
        parent,
        children: children.clone(),
        epoch,
        mode: StampMode::Live,
        window,
        extra_lag: spec.extra_tree_lag,
        bind,
    })
    .map_err(|e| format!("wire runtime: {e}"))?;
    let transport = wire.transport();
    let stats = wire.stats();

    // Leaf nodes with a backend run the real data plane; everything else
    // heartbeats zero demand so its aggregation rounds keep closing.
    let is_redirector = children.is_empty() && origin.is_some();
    let role = match (parent.is_some(), is_redirector) {
        (false, _) => "root",
        (true, true) => "redirector",
        (true, false) => "interior",
    };
    let mut data_plane: Option<Arc<ShardedL7>> = None;
    if let (true, Some(origin_addr)) = (is_redirector, origin) {
        let graph = spec.build_graph().map_err(|e| format!("agreement graph: {e}"))?;
        let levels = graph.access_levels();
        let mut sched = SchedulerConfig::community_default();
        sched.window_secs = spec.window_secs;
        let coord_transport: Arc<dyn CoordTransport> =
            Arc::clone(&transport) as Arc<dyn CoordTransport>;
        let coordinator = Coordinator::with_transport(coord_transport);
        let l7 = ShardedL7::start_at(
            "127.0.0.1:0",
            L7Config {
                principal_names: spec.principals.iter().map(|p| p.name.clone()).collect(),
                backends: [(0, origin_addr)].into(),
            },
            1,
            &levels,
            sched,
            coordinator,
            node,
        )
        .map_err(|e| format!("l7 data plane: {e}"))?;
        data_plane = Some(Arc::new(l7));
    } else {
        // Full-width zeros, not an empty vec: a forced round that has
        // seen no child data yet must still deliver a per-principal
        // total downstream (the scheduler rejects narrower vectors).
        let width = spec.principals.len();
        let hb_transport = Arc::clone(&transport);
        let hb = move || loop {
            let clock = hb_transport.clock();
            hb_transport.publish_at(hb_transport.node(), vec![0.0; width], clock.now());
            std::thread::sleep(window);
        };
        std::thread::Builder::new()
            .name(format!("cluster-heartbeat-{node}"))
            .spawn(hb)
            .map_err(|e| format!("heartbeat thread: {e}"))?;
    }

    // The metrics endpoint every process serves.
    let metrics_stats = Arc::clone(&stats);
    let metrics_plane = data_plane.clone();
    let metrics = HttpServer::bind(
        "127.0.0.1:0",
        handler(move |req, _| {
            if req.path == "/metrics" {
                let snaps = metrics_plane.as_ref().map(|p| p.shard_snapshots());
                HttpResponse::ok(render_metrics(node, role, &metrics_stats, snaps.as_deref()))
                    .header("content-type", "text/plain; version=0.0.4")
            } else {
                HttpResponse::status(StatusCode::NOT_FOUND)
            }
        }),
    )
    .map_err(|e| format!("metrics endpoint: {e}"))?;

    let http_addr = match &data_plane {
        Some(p) => p.addr().to_string(),
        None => "-".to_string(),
    };
    // The launcher blocks on this line; everything after it is steady
    // state.
    println!(
        "READY node={node} role={role} wire={} metrics={} http={http_addr}",
        wire.listen_addr(),
        metrics.addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Park until the launcher kills us; the runtimes live on their own
    // threads.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
