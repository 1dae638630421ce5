//! The cluster launcher: fork/exec one OS process per tree node.
//!
//! [`Cluster::launch`] brings a [`DeploymentSpec`]'s `redirector_tree` up
//! one level at a time, root first: it re-execs the current binary with
//! the [`crate::SENTINEL`] argv (see [`crate::maybe_run_node`]) for every
//! node of a level back to back, and only then reads their `READY` lines,
//! which carry each node's bound addresses. A node needs nothing but its
//! parent's wire address, so siblings start up side by side and a level
//! costs about one node's start-up, not one per node. An origin server
//! backing the leaves' data planes runs inside the launcher.
//!
//! A node process is owned from its spawn on — it is killed and reaped
//! when dropped — so a launch that fails at any level leaves nothing
//! running. The handle scrapes any node's `/metrics` endpoint, kills
//! individual nodes (fault injection), and tears the whole tree down on
//! drop — no orphan processes.

use covenant_core::DeploymentSpec;
use covenant_http::{HttpClient, OriginServer, StatusCode};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A node process, killed and reaped when dropped.
struct Proc(Child);

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One launched node process.
pub struct NodeHandle {
    /// Tree node id.
    pub node: usize,
    /// `"root"`, `"interior"`, or `"redirector"`.
    pub role: String,
    /// The wire runtime's listen address (children connect here).
    pub wire_addr: SocketAddr,
    /// The `/metrics` endpoint address.
    pub metrics_addr: SocketAddr,
    /// The L7 data-plane address, when this node is a redirector.
    pub http_addr: Option<SocketAddr>,
    child: Option<Proc>,
}

impl NodeHandle {
    /// Whether the OS process is still being tracked (not yet killed).
    pub fn alive(&self) -> bool {
        self.child.is_some()
    }

    fn kill(&mut self) {
        // Dropping the process kills and reaps it.
        self.child = None;
    }
}

/// A running multi-process cluster; kills every node on drop.
pub struct Cluster {
    origin: OriginServer,
    nodes: Vec<NodeHandle>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Parses one `key=value` token from a READY line.
fn ready_field<'a>(tokens: &[&'a str], key: &str) -> io::Result<&'a str> {
    let prefix = format!("{key}=");
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(&prefix))
        .ok_or_else(|| invalid(format!("READY line missing {key}=")))
}

/// The launch order: the tree's nodes level by level, the root alone
/// first, each level's nodes by id — every node's parent is in the level
/// before its own. Refuses a tree without exactly one root, a parent out
/// of range or equal to its node, and a node the root does not reach (a
/// parent cycle).
fn waves(parents: &[Option<usize>]) -> io::Result<Vec<Vec<usize>>> {
    let roots: Vec<usize> = parents
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_none())
        .map(|(i, _)| i)
        .collect();
    if roots.len() != 1 {
        return Err(invalid(format!("spec must have exactly one root, got {}", roots.len())));
    }
    for (i, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            if *p >= parents.len() || *p == i {
                return Err(invalid(format!("node {i} has invalid parent {p}")));
            }
        }
    }
    let mut waves = vec![roots];
    let mut placed = 1;
    while let Some(level) = waves.last() {
        let next: Vec<usize> = parents
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some_and(|p| level.contains(&p)))
            .map(|(c, _)| c)
            .collect();
        if next.is_empty() {
            break;
        }
        placed += next.len();
        waves.push(next);
    }
    if placed != parents.len() {
        return Err(invalid("tree has unreachable nodes (parent cycle?)".to_string()));
    }
    Ok(waves)
}

/// Reads node `node`'s `READY` line off its stdout: its handle, holding
/// the process. The process is killed when the line never comes.
fn ready(node: usize, mut proc: Proc) -> io::Result<NodeHandle> {
    let stdout = proc
        .0
        .stdout
        .take()
        .ok_or_else(|| invalid(format!("node {node}: no stdout pipe")))?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(invalid(format!("node {node} exited before READY")));
        }
        if line.starts_with("READY ") {
            break;
        }
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let role = ready_field(&tokens, "role")?.to_string();
    let wire_addr: SocketAddr = ready_field(&tokens, "wire")?
        .parse()
        .map_err(|e| invalid(format!("node {node} wire addr: {e}")))?;
    let metrics_addr: SocketAddr = ready_field(&tokens, "metrics")?
        .parse()
        .map_err(|e| invalid(format!("node {node} metrics addr: {e}")))?;
    let http_field = ready_field(&tokens, "http")?;
    let http_addr = if http_field == "-" {
        None
    } else {
        Some(
            http_field
                .parse()
                .map_err(|e| invalid(format!("node {node} http addr: {e}")))?,
        )
    };
    Ok(NodeHandle { node, role, wire_addr, metrics_addr, http_addr, child: Some(proc) })
}

impl Cluster {
    /// Launches one process per tree node of `spec`, a tree level at a
    /// time, plus an in-launcher origin server backing the leaves.
    pub fn launch(spec: &DeploymentSpec) -> io::Result<Cluster> {
        // Static verification first: refuse to fork processes for a spec
        // with error-severity contract findings (V1-V7).
        {
            use covenant_verify::Severity;
            let errors: Vec<String> = covenant_verify::verify_spec(spec)
                .iter()
                .filter(|f| f.severity == Severity::Error)
                .map(|f| f.to_string())
                .collect();
            if !errors.is_empty() {
                return Err(invalid(format!(
                    "spec failed verification: {}",
                    errors.join("; ")
                )));
            }
        }
        let parents = &spec.redirector_tree;
        let waves = waves(parents)?;

        // Origin capacity: the sum of declared principal capacities (the
        // physical servers), with a floor so tiny specs still serve.
        let capacity: f64 = spec.principals.iter().map(|p| p.capacity).sum();
        let origin = OriginServer::bind(
            "127.0.0.1:0",
            capacity.max(100.0),
            64,
            Duration::from_secs(2),
        )
        .map_err(|e| io::Error::other(format!("origin: {e}")))?;

        let exe = std::env::current_exe()?;
        let spec_json = spec.to_json();
        let origin_arg = format!("origin={}", origin.addr());
        // On an early return the nodes already READY go with the cluster,
        // and the spawned ones not yet READY with their `Proc`s.
        let mut cluster = Cluster { origin, nodes: Vec::with_capacity(parents.len()) };
        for level in &waves {
            // The whole level first, so that its nodes start up while the
            // launcher waits on the first READY.
            let spawned = level
                .iter()
                .map(|&node| {
                    let parent_arg = match parents.get(node).copied().flatten() {
                        Some(p) => cluster
                            .nodes
                            .iter()
                            .find(|h| h.node == p)
                            .map(|h| h.wire_addr.to_string())
                            .ok_or_else(|| invalid(format!("parent {p} of {node} not launched")))?,
                        None => "-".to_string(),
                    };
                    let child = Command::new(&exe)
                        .arg(crate::SENTINEL)
                        .arg(&spec_json)
                        .arg(format!("node={node}"))
                        .arg("epoch=1")
                        .arg(format!("parent={parent_arg}"))
                        .arg(&origin_arg)
                        .stdout(Stdio::piped())
                        .stderr(Stdio::inherit())
                        .spawn()?;
                    Ok((node, Proc(child)))
                })
                .collect::<io::Result<Vec<_>>>()?;
            for (node, proc) in spawned {
                cluster.nodes.push(ready(node, proc)?);
            }
        }
        cluster.nodes.sort_by_key(|n| n.node);
        Ok(cluster)
    }


    /// The launcher-side origin's address (the leaves' shared backend).
    pub fn origin_addr(&self) -> SocketAddr {
        self.origin.addr()
    }

    /// Node handles in tree-node order.
    pub fn nodes(&self) -> &[NodeHandle] {
        &self.nodes
    }

    /// Data-plane addresses of the redirector leaves, in node order.
    pub fn redirector_addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().filter_map(|n| n.http_addr).collect()
    }

    /// Fetches one node's `/metrics` exposition body.
    pub fn scrape(&self, node: usize) -> io::Result<String> {
        let handle = self
            .nodes
            .iter()
            .find(|n| n.node == node)
            .ok_or_else(|| invalid(format!("no node {node}")))?;
        let client = HttpClient {
            max_redirects: 1,
            self_redirect_pause: Duration::from_millis(5),
            timeout: Duration::from_millis(1500),
        };
        let r = client
            .get(&format!("http://{}/metrics", handle.metrics_addr))
            .map_err(|e| io::Error::other(format!("scrape node {node}: {e}")))?;
        if r.response.status != StatusCode::OK {
            return Err(io::Error::other(format!(
                "scrape node {node}: HTTP {}",
                r.response.status.0
            )));
        }
        String::from_utf8(r.response.body)
            .map_err(|e| invalid(format!("scrape node {node}: not UTF-8: {e}")))
    }

    /// Kills one node's process (fault injection). The rest of the tree
    /// keeps running on last-good values.
    pub fn kill_node(&mut self, node: usize) -> bool {
        match self.nodes.iter_mut().find(|n| n.node == node) {
            Some(h) if h.alive() => {
                h.kill();
                true
            }
            _ => false,
        }
    }

    /// Kills every node process, leaves first. Idempotent.
    pub fn shutdown(&mut self) {
        for h in self.nodes.iter_mut().rev() {
            h.kill();
        }
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::waves;

    fn refused(parents: &[Option<usize>]) -> String {
        waves(parents).expect_err("the tree is refused").to_string()
    }

    #[test]
    fn one_root_is_one_level() {
        assert_eq!(waves(&[None]).unwrap(), [vec![0]]);
        assert_eq!(waves(&[Some(1), None, Some(1)]).unwrap(), [vec![1], vec![0, 2]]);
    }

    #[test]
    fn a_seven_node_tree_of_depth_two_is_three_levels() {
        let parents = [None, Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)];
        assert_eq!(waves(&parents).unwrap(), [vec![0], vec![1, 2], vec![3, 4, 5, 6]]);
        // Ids need not follow depth: a level holds whoever's parent is in
        // the level before.
        let parents = [Some(2), Some(0), None, Some(2)];
        assert_eq!(waves(&parents).unwrap(), [vec![2], vec![0, 3], vec![1]]);
    }

    #[test]
    fn no_root_or_two_roots_are_refused() {
        assert_eq!(refused(&[]), "spec must have exactly one root, got 0");
        assert_eq!(refused(&[None, Some(0), None]), "spec must have exactly one root, got 2");
    }

    #[test]
    fn a_self_parent_or_an_out_of_range_parent_is_refused() {
        assert_eq!(refused(&[None, Some(1)]), "node 1 has invalid parent 1");
        assert_eq!(refused(&[None, Some(0), Some(3)]), "node 2 has invalid parent 3");
    }

    #[test]
    fn a_cycle_is_unreachable_and_refused() {
        let msg = "tree has unreachable nodes (parent cycle?)";
        // 1 → 2 → 1 hangs off no root.
        assert_eq!(refused(&[None, Some(2), Some(1)]), msg);
        // So does the subtree under the cycle.
        assert_eq!(refused(&[None, Some(0), Some(3), Some(4), Some(2)]), msg);
    }
}
