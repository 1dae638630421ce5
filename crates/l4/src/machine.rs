//! L4 admission with no fd, no epoll, no thread and no clock: each accepted
//! connection — a handle it never looks into — is relayed, parked or shed;
//! each roll publishes the parked depth and readmits heads, FIFO.

use covenant_agreements::PrincipalId;
use covenant_coord::ShardCore;
use covenant_enforce::{reinject_fifo, ShardStats};
use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;

/// Per-shard cap on remembered client IPs. Affinity is best-effort ("to
/// the extent allowed by the agreements", §4.2), so at the cap the map is
/// dropped and clients re-pin on their next connection.
const MAX_AFFINITY: usize = 16 * 1024;

/// Records `ip → server`, dropping the whole map first when it has
/// reached [`MAX_AFFINITY`] distinct clients.
fn pin_affinity(affinity: &mut HashMap<IpAddr, usize>, ip: IpAddr, server: usize) {
    if affinity.len() >= MAX_AFFINITY && !affinity.contains_key(&ip) {
        affinity.clear();
    }
    affinity.insert(ip, server);
}

/// What becomes of an accepted connection.
#[derive(Debug, PartialEq, Eq)]
pub enum Admit<T> {
    /// Admitted: relay it to this server.
    Relay(T, usize),
    /// Deferred: parked until a window readmits it.
    Parked,
    /// Deferred past the principal's park limit: refuse it.
    Shed(T),
}

/// One L4 shard's admission state over connection handles `T`.
pub struct L4Machine<T> {
    core: ShardCore,
    /// Client IP → server, shard-private (allocations still bound it).
    affinity: HashMap<IpAddr, usize>,
    /// Parked connections and their client IPs, FIFO per principal.
    parked: Vec<VecDeque<(T, IpAddr)>>,
    /// Parked depth per principal, the roll's backlog; reused, not rebuilt.
    backlog: Vec<f64>,
    park_limit: usize,
    /// Verdicts since the last [`L4Machine::end_wake`].
    verdicts: u64,
}

impl<T> L4Machine<T> {
    /// A machine for `principals` principals admitting through `core`,
    /// parking at most `park_limit` connections per principal.
    pub fn new(core: ShardCore, principals: usize, park_limit: usize) -> L4Machine<T> {
        let parked = (0..principals).map(|_| VecDeque::new()).collect();
        let backlog = Vec::with_capacity(principals);
        L4Machine { core, affinity: HashMap::new(), parked, backlog, park_limit, verdicts: 0 }
    }

    /// Charges a connection from `ip` to `principal` at `now`, preferring
    /// the server `ip` was last admitted to.
    pub fn accept(&mut self, conn: T, principal: PrincipalId, ip: IpAddr, now: f64) -> Admit<T> {
        self.verdicts += 1;
        if let Some(server) = self.core.try_admit_at(principal, self.affinity.get(&ip).copied(), now) {
            pin_affinity(&mut self.affinity, ip, server);
            return Admit::Relay(conn, server);
        }
        match self.parked.get_mut(principal.0) {
            Some(q) if q.len() < self.park_limit => {
                q.push_back((conn, ip));
                Admit::Parked
            }
            _ => Admit::Shed(conn),
        }
    }

    /// Rolls at `boundary` with the parked depth as backlog, then readmits
    /// through [`reinject_fifo`] — per principal, FIFO, up to the first
    /// defer — appending each connection and its server to `readmitted`.
    pub fn roll(&mut self, boundary: f64, readmitted: &mut Vec<(T, usize)>) {
        self.backlog.clear();
        self.backlog.extend(self.parked.iter().map(|q| q.len() as f64));
        self.core.roll_window_at(Some(&self.backlog), boundary);
        let (core, affinity, verdicts) = (&mut self.core, &mut self.affinity, &mut self.verdicts);
        let admit = |i, &(_, ip): &(T, IpAddr)| {
            *verdicts += 1;
            let server = core.readmit_at(PrincipalId(i), affinity.get(&ip).copied(), boundary)?;
            pin_affinity(affinity, ip, server);
            Some(server)
        };
        reinject_fifo(self.parked.len(), &mut self.parked, admit, |(conn, _), server| {
            readmitted.push((conn, server))
        });
    }

    /// Records the wake's verdicts and the core's counters in `stats`.
    pub fn end_wake(&mut self, stats: &ShardStats) {
        stats.record_wake(std::mem::take(&mut self.verdicts));
        stats.store_counters(&self.core.counters());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_map_is_bounded() {
        use std::net::Ipv4Addr;
        let ip = |i: usize| IpAddr::V4(Ipv4Addr::from(i as u32));
        let mut affinity = HashMap::new();
        for i in 0..MAX_AFFINITY {
            pin_affinity(&mut affinity, ip(i), 0);
        }
        // At the cap a known client re-pins in place…
        pin_affinity(&mut affinity, ip(3), 1);
        assert_eq!((affinity.len(), affinity[&ip(3)]), (MAX_AFFINITY, 1));
        // …and a new one drops the map instead of growing it.
        pin_affinity(&mut affinity, ip(MAX_AFFINITY), 0);
        assert_eq!(affinity.len(), 1);
        assert_eq!(affinity.get(&ip(MAX_AFFINITY)), Some(&0));
    }
}
