//! A launch that fails at any level of the tree leaves no process behind,
//! and a launched tree's processes go with `kill_node` and with the
//! cluster.
//!
//! No harness: the launcher re-execs this binary for every node, so `main`
//! must take the node path first. A principal name with a `/` is one no
//! request path can carry, so every redirector leaf refuses to start its
//! data plane and exits before its `READY`, while the root and interior
//! nodes (heartbeats, no data plane) come up: the launch then fails at the
//! tree's deepest level, with every node above it already `READY` and the
//! leaf's siblings already spawned.

use covenant_cluster::{maybe_run_node, Cluster};
use covenant_core::DeploymentSpec;

fn spec(tree: &str, holder: &str) -> DeploymentSpec {
    let json = format!(
        r#"{{
  "principals": [{{"name": "S", "capacity": 200.0}}, {{"name": "{holder}"}}],
  "agreements": [{{"issuer": "S", "holder": "{holder}", "lb": 0.5, "ub": 1.0}}],
  "redirector_tree": {tree},
  "window_secs": 0.1,
  "clients": [],
  "duration": 5.0
}}"#
    );
    DeploymentSpec::from_json(&json).expect("the test spec parses")
}

/// The processes whose parent is this one, zombies included (a child that
/// was killed but not reaped is still listed).
fn children() -> Vec<u32> {
    let me = std::process::id();
    let mut found = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("/proc lists processes").flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else { continue };
        // A process may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else { continue };
        // `pid (comm) state ppid …`; `comm` may hold spaces and parens.
        let ppid = stat.rsplit_once(')').and_then(|(_, rest)| rest.split_whitespace().nth(1));
        if ppid.and_then(|p| p.parse::<u32>().ok()) == Some(me) {
            found.push(pid);
        }
    }
    found
}

fn main() {
    maybe_run_node();

    let trees = [
        ("[null]", "node 0 exited before READY"),
        ("[null, 0, 0]", "node 1 exited before READY"),
        ("[null, 0, 0, 1, 1, 2, 2]", "node 3 exited before READY"),
    ];
    for (tree, why) in trees {
        let err = Cluster::launch(&spec(tree, "A/x")).err().expect("a leaf cannot start");
        assert_eq!(err.to_string(), why, "tree {tree}");
        assert_eq!(children(), Vec::<u32>::new(), "tree {tree}: a node outlived its failed launch");
    }

    let mut cluster = Cluster::launch(&spec("[null, 0, 0, 1, 1, 2, 2]", "A")).expect("launches");
    assert_eq!(children().len(), 7);
    assert_eq!(cluster.redirector_addrs().len(), 4, "the four leaves run data planes");
    assert!(cluster.kill_node(3));
    assert!(!cluster.kill_node(3), "a killed node stays killed");
    assert_eq!(children().len(), 6, "kill_node reaps its process");
    drop(cluster);
    assert_eq!(children(), Vec::<u32>::new(), "dropping the cluster reaps every node");
    println!("launch_cleanup: ok");
}
