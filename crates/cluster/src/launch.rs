//! The cluster launcher: fork/exec one OS process per tree node.
//!
//! [`Cluster::launch`] walks a [`DeploymentSpec`]'s `redirector_tree`
//! root-first, re-execing the current binary with the [`crate::SENTINEL`]
//! argv for each node (see [`crate::maybe_run_node`]) and reading each
//! child's `READY` line to learn its bound addresses — a child's wire
//! address is what its own children are told to connect to. An origin
//! server backing the leaves' data planes runs inside the launcher.
//!
//! The handle scrapes any node's `/metrics` endpoint, kills individual
//! nodes (fault injection), and tears the whole tree down on drop — no
//! orphan processes.

use covenant_core::DeploymentSpec;
use covenant_http::{HttpClient, OriginServer, StatusCode};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

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
    child: Option<Child>,
}

impl NodeHandle {
    /// Whether the OS process is still being tracked (not yet killed).
    pub fn alive(&self) -> bool {
        self.child.is_some()
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
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

impl Cluster {
    /// Launches one process per tree node of `spec`, parents before
    /// children, plus an in-launcher origin server backing the leaves.
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

        // Breadth-first from the root: a node's parent is always launched
        // (and READY) before the node itself.
        let mut order: Vec<usize> = roots.clone();
        let mut cursor = 0;
        while let Some(&n) = order.get(cursor) {
            cursor += 1;
            for (c, p) in parents.iter().enumerate() {
                if *p == Some(n) {
                    order.push(c);
                }
            }
        }
        if order.len() != parents.len() {
            return Err(invalid("tree has unreachable nodes (parent cycle?)".to_string()));
        }

        let exe = std::env::current_exe()?;
        let spec_json = spec.to_json();
        let mut wire_addrs: HashMap<usize, SocketAddr> = HashMap::new();
        let mut nodes: Vec<NodeHandle> = Vec::new();
        let launch_result: io::Result<()> = (|| {
            for &node in &order {
                let parent_arg = match parents.get(node).copied().flatten() {
                    Some(p) => wire_addrs
                        .get(&p)
                        .map(|a| a.to_string())
                        .ok_or_else(|| invalid(format!("parent {p} of {node} not launched")))?,
                    None => "-".to_string(),
                };
                let mut child = Command::new(&exe)
                    .arg(crate::SENTINEL)
                    .arg(&spec_json)
                    .arg(format!("node={node}"))
                    .arg("epoch=1")
                    .arg(format!("parent={parent_arg}"))
                    .arg(format!("origin={}", origin.addr()))
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()?;
                let stdout = child
                    .stdout
                    .take()
                    .ok_or_else(|| invalid(format!("node {node}: no stdout pipe")))?;
                let mut reader = BufReader::new(stdout);
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line)? == 0 {
                        let _ = child.kill();
                        let _ = child.wait();
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
                wire_addrs.insert(node, wire_addr);
                nodes.push(NodeHandle {
                    node,
                    role,
                    wire_addr,
                    metrics_addr,
                    http_addr,
                    child: Some(child),
                });
            }
            Ok(())
        })();
        let mut cluster = Cluster { origin, nodes };
        if let Err(e) = launch_result {
            cluster.shutdown();
            return Err(e);
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
