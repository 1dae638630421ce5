//! The per-node wire runtime: one epoll loop speaking the frame protocol
//! along this node's tree edges.
//!
//! Aggregation is *round-structured*: every publish from the local
//! enforcement plane increments the node's round counter. A non-root node
//! emits exactly one `Up` frame per round — once its own round-`r` publish
//! and a round-≥`r` subtree aggregate from every child are in hand (or, in
//! live mode, when the round times out at the next aligned window
//! boundary, in which case each child contributes its *last-good* value).
//! The root closes the round by computing the global total, delivering it
//! to its local view, and cascading one `Down` frame to each child;
//! interior nodes forward it on. Per window that is one `Up` and one
//! `Down` on every edge: the paper's 2(n−1) messages, now countable on
//! real sockets.
//!
//! Disconnection degrades, never blocks: a parent that loses a child keeps
//! combining with the child's last-good values (rounds are *forced* at the
//! boundary), and a child that loses its parent keeps serving admissions
//! from its last delivered total while reconnecting — the
//! one-window-staleness semantics the differential test encodes, stretched
//! only as far as the outage itself. A child that *restarts* (fresh
//! process, round counter reset to the beginning) is rebased onto its
//! pre-crash round sequence when it rejoins, so its new demand is not
//! mistaken for stale data.

use crate::clock::WireClock;
use crate::frame::{Frame, MAX_PAYLOAD};
use crate::stats::WireStats;
use crate::transport::{OwnPublish, SharedState, StampMode, WireTransport};
use covenant_enforce::next_aligned_boundary;
use covenant_reactor::{
    connect_nonblocking, take_socket_error, Epoll, Event, Interest, Io, RecvBuf, SendBuf, Slab,
    WakeFd, WakeHandle,
};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const T_LISTEN: u64 = 0;
const T_WAKE: u64 = 1;
const T_PARENT: u64 = 2;
const T_CHILD_BASE: u64 = 3;

/// Receive cap per connection: a handful of frames at maximum width.
const RECV_LIMIT: usize = 4 * (MAX_PAYLOAD + 4);
/// Parent reconnect backoff.
const RECONNECT_DELAY: Duration = Duration::from_millis(10);
/// Idle epoll timeout when no deadline is pending.
const IDLE_TIMEOUT_MS: i32 = 25;

/// Configuration for one tree node's wire runtime.
#[derive(Debug, Clone)]
pub struct WireNodeConfig {
    /// This node's tree id.
    pub node: usize,
    /// Total tree size (for `CoordTransport::nodes`).
    pub nodes: usize,
    /// The parent's listen address; `None` for the root.
    pub parent: Option<SocketAddr>,
    /// Direct children's node ids.
    pub children: Vec<usize>,
    /// Tree generation carried in every frame.
    pub epoch: u32,
    /// Virtual (replay) or live (measured) stamping.
    pub mode: StampMode,
    /// Window length — live mode forces unfinished rounds at the next
    /// aligned boundary on this grid.
    pub window: Duration,
    /// Listener bind address (children connect here).
    pub bind: SocketAddr,
}

/// A running wire-runtime node; stops and joins on drop.
pub struct WireNode {
    transport: Arc<WireTransport>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wake: WakeHandle,
    handle: Option<JoinHandle<()>>,
}

impl WireNode {
    /// Binds the listener, spawns the runtime thread, and returns the
    /// handle plus the node's [`WireTransport`].
    pub fn start(cfg: WireNodeConfig) -> io::Result<WireNode> {
        let listener = TcpListener::bind(cfg.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wakefd, wake) = WakeFd::new()?;
        let shared = Arc::new(SharedState::new());
        let stats = Arc::new(WireStats::new());
        let clock = WireClock::new();
        let stop = Arc::new(AtomicBool::new(false));
        let transport = Arc::new(WireTransport {
            shared: Arc::clone(&shared),
            stats: Arc::clone(&stats),
            clock,
            mode: cfg.mode,
            wake: wake.clone(),
            n_nodes: cfg.nodes,
            node: cfg.node,
        });
        let epoll = Epoll::new()?;
        epoll.add(&listener, T_LISTEN, Interest::READ)?;
        epoll.add(&wakefd, T_WAKE, Interest::READ)?;
        let mut runtime = Runtime {
            cfg,
            epoll,
            listener,
            wakefd,
            shared,
            stats,
            clock,
            stop: Arc::clone(&stop),
            parent: None,
            next_connect: Some(clock.now_instant()),
            ever_connected: false,
            children: Slab::new(),
            round: RoundState::default(),
            scratch: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name(format!("wire-node-{}", runtime.cfg.node))
            .spawn(move || runtime.run())?;
        Ok(WireNode { transport, addr, stop, wake, handle: Some(handle) })
    }

    /// The transport the local enforcement plane publishes and reads
    /// through.
    pub fn transport(&self) -> Arc<WireTransport> {
        Arc::clone(&self.transport)
    }

    /// The runtime's counters.
    pub fn stats(&self) -> Arc<WireStats> {
        Arc::clone(self.transport.stats())
    }

    /// The address children connect to.
    pub fn listen_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the runtime thread and joins it (idempotent).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WireNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct ParentConn {
    stream: TcpStream,
    recv: RecvBuf,
    send: SendBuf,
    connected: bool,
    interest: Interest,
}

struct ChildConn {
    stream: TcpStream,
    recv: RecvBuf,
    send: SendBuf,
    /// The child node id, once its `Hello` arrives.
    hello: Option<u32>,
    interest: Interest,
}

#[derive(Default)]
struct RoundState {
    /// The own-publish round currently being combined.
    target: Option<OwnPublish>,
    /// Last-good subtree aggregate per child id: (round, values), with the
    /// round already rebased by `child_base`.
    child_latest: HashMap<u32, (u64, Vec<f64>)>,
    /// Per-child offset added to reported rounds. A child process that
    /// restarts resets its round counter to the beginning; without the
    /// rebase every one of its fresh `Up` frames would compare as older
    /// than its pre-crash last-good value and be dropped as stale.
    child_base: HashMap<u32, u64>,
    /// Children whose next `Up` re-derives the rebase (they just said
    /// `Hello`, so their counter may have reset).
    rejoining: HashSet<u32>,
    /// Live-mode deadline after which the target round is forced.
    force_at: Option<Instant>,
    /// Latest emitted `Up` (round, subtree total, t) for reconnect resync.
    last_up: Option<(u64, Vec<f64>, f64)>,
    /// When the latest `Up` left, for RTT measurement.
    up_sent_at: Option<(u64, Instant)>,
}

struct Runtime {
    cfg: WireNodeConfig,
    epoll: Epoll,
    listener: TcpListener,
    wakefd: WakeFd,
    shared: Arc<SharedState>,
    stats: Arc<WireStats>,
    clock: WireClock,
    stop: Arc<AtomicBool>,
    parent: Option<ParentConn>,
    /// When to next attempt the parent connect; `None` while a connection
    /// is up or for the root.
    next_connect: Option<Instant>,
    ever_connected: bool,
    children: Slab<ChildConn>,
    round: RoundState,
    scratch: Vec<u8>,
}

/// Element-wise accumulate, growing `into` to the wider length.
fn accumulate(into: &mut Vec<f64>, vals: &[f64]) {
    if vals.len() > into.len() {
        into.resize(vals.len(), 0.0);
    }
    for (slot, v) in into.iter_mut().zip(vals.iter()) {
        *slot += *v;
    }
}

impl Runtime {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::Relaxed) {
            let now = self.clock.now_instant();
            self.maybe_connect_parent(now);
            let timeout = self.poll_timeout(now);
            if self.epoll.wait(&mut events, timeout).is_err() {
                // A failed wait (fd pressure) is retried; the loop's other
                // deadlines still advance off the clock below.
                std::thread::yield_now();
            }
            for ev in events.iter().copied() {
                match ev.token {
                    T_LISTEN => self.accept_ready(),
                    T_WAKE => self.wakefd.drain(),
                    T_PARENT => self.parent_ready(ev),
                    t => {
                        if let Some(key) = t.checked_sub(T_CHILD_BASE) {
                            self.child_ready(key as usize, ev);
                        }
                    }
                }
            }
            let now = self.clock.now_instant();
            self.try_advance(now);
        }
    }

    /// Epoll timeout until the nearest pending deadline (round force or
    /// parent reconnect), bounded by the idle tick.
    fn poll_timeout(&self, now: Instant) -> i32 {
        let mut ms = IDLE_TIMEOUT_MS as u128;
        for deadline in [self.round.force_at, self.next_connect].into_iter().flatten() {
            let wait = deadline.saturating_duration_since(now).as_millis().max(1);
            ms = ms.min(wait);
        }
        ms.min(i32::MAX as u128) as i32
    }

    // ---- parent side -----------------------------------------------------

    fn maybe_connect_parent(&mut self, now: Instant) {
        let Some(addr) = self.cfg.parent else { return };
        if self.parent.is_some() {
            return;
        }
        let due = self.next_connect.is_none_or(|at| now >= at);
        if !due {
            return;
        }
        match connect_nonblocking(addr) {
            Ok(stream) => {
                let interest = Interest::READ | Interest::WRITE;
                if self.epoll.add(&stream, T_PARENT, interest).is_ok() {
                    self.parent = Some(ParentConn {
                        stream,
                        recv: RecvBuf::with_capacity_limit(RECV_LIMIT),
                        send: SendBuf::new(),
                        connected: false,
                        interest,
                    });
                    self.next_connect = None;
                } else {
                    self.next_connect = Some(now + RECONNECT_DELAY);
                }
            }
            Err(_) => {
                self.next_connect = Some(now + RECONNECT_DELAY);
            }
        }
    }

    fn drop_parent(&mut self) {
        if let Some(conn) = self.parent.take() {
            let _ = self.epoll.remove(&conn.stream);
        }
        self.next_connect = Some(self.clock.now_instant() + RECONNECT_DELAY);
    }

    fn parent_ready(&mut self, ev: Event) {
        let Some(conn) = self.parent.as_mut() else { return };
        if ev.error {
            let _ = take_socket_error(&conn.stream);
            self.drop_parent();
            return;
        }
        if ev.writable && !conn.connected {
            match take_socket_error(&conn.stream) {
                Ok(None) => {
                    conn.connected = true;
                    let _ = conn.stream.set_nodelay(true);
                    if self.ever_connected {
                        self.stats.reconnect();
                    }
                    self.ever_connected = true;
                    // Identify this edge, then resync the newest subtree
                    // aggregate so the parent's last-good value is fresh.
                    let node = self.cfg.node as u32;
                    let epoch = self.cfg.epoch;
                    let resync = self.round.last_up.clone();
                    self.queue_to_parent(&Frame::Hello { node }, false);
                    if let Some((round, values, t)) = resync {
                        self.queue_to_parent(
                            &Frame::Up { node, epoch, round, t, values },
                            true,
                        );
                    }
                }
                _ => {
                    self.drop_parent();
                    return;
                }
            }
        }
        if (ev.readable || ev.closed) && !self.read_parent_frames() {
            self.drop_parent();
            return;
        }
        if ev.writable {
            self.flush_parent();
        }
    }

    /// Reads and dispatches parent frames; false means drop the connection.
    fn read_parent_frames(&mut self) -> bool {
        let Some(conn) = self.parent.as_mut() else { return true };
        match conn.recv.drain_from(&mut conn.stream) {
            Ok(Io::Progress(_)) => self.dispatch_parent_buffer(),
            Ok(Io::WouldBlock) => true,
            Ok(Io::Eof) | Err(_) => {
                // Drain whatever parsed frames arrived before the close.
                let _ = self.dispatch_parent_buffer();
                false
            }
        }
    }

    fn dispatch_parent_buffer(&mut self) -> bool {
        loop {
            let Some(conn) = self.parent.as_mut() else { return true };
            match Frame::decode(conn.recv.data()) {
                Ok(Some((frame, used))) => {
                    conn.recv.consume(used);
                    self.on_parent_frame(frame);
                }
                Ok(None) => return true,
                Err(_) => return false,
            }
        }
    }

    fn on_parent_frame(&mut self, frame: Frame) {
        let Frame::Down { epoch, round, t, values, .. } = frame else {
            return; // parents only send Down; anything else is ignored
        };
        self.stats.frame_received();
        if epoch != self.cfg.epoch {
            return;
        }
        let now = self.clock.now_instant();
        let stamp = match self.cfg.mode {
            StampMode::Virtual => t,
            StampMode::Live => self.clock.now(),
        };
        self.shared.deliver(round, stamp, values.clone());
        self.stats.round_completed(round);
        if let Some((r, sent_at)) = self.round.up_sent_at {
            if r == round {
                let us = now.saturating_duration_since(sent_at).as_micros();
                self.stats.record_rtt_us(us.min(u64::MAX as u128) as u64);
                self.round.up_sent_at = None;
            }
        }
        // Cascade toward the leaves.
        let node = self.cfg.node as u32;
        self.broadcast_down(&Frame::Down { node, epoch, round, t, values });
    }

    fn queue_to_parent(&mut self, frame: &Frame, count: bool) {
        let Some(conn) = self.parent.as_mut() else { return };
        if !conn.connected {
            return;
        }
        self.scratch.clear();
        frame.encode(&mut self.scratch);
        conn.send.push(&self.scratch);
        if count {
            self.stats.frame_sent();
        }
        self.flush_parent();
    }

    fn flush_parent(&mut self) {
        let Some(conn) = self.parent.as_mut() else { return };
        if !conn.connected {
            return;
        }
        match conn.send.flush_into(&mut conn.stream) {
            Ok(Io::Progress(_)) => {
                if conn.interest.contains(Interest::WRITE) {
                    conn.interest = Interest::READ;
                    let _ = self.epoll.modify(&conn.stream, T_PARENT, conn.interest);
                }
            }
            Ok(Io::WouldBlock) => {
                if !conn.interest.contains(Interest::WRITE) {
                    conn.interest = Interest::READ | Interest::WRITE;
                    let _ = self.epoll.modify(&conn.stream, T_PARENT, conn.interest);
                }
            }
            Ok(Io::Eof) | Err(_) => self.drop_parent(),
        }
    }

    // ---- child side ------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = self.children.insert(ChildConn {
                        stream,
                        recv: RecvBuf::with_capacity_limit(RECV_LIMIT),
                        send: SendBuf::new(),
                        hello: None,
                        interest: Interest::READ,
                    });
                    let token = T_CHILD_BASE + key as u64;
                    let ok = match self.children.get(key) {
                        Some(c) => self.epoll.add(&c.stream, token, c.interest).is_ok(),
                        None => false,
                    };
                    if !ok {
                        self.children.remove(key);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn drop_child(&mut self, key: usize) {
        if let Some(conn) = self.children.remove(key) {
            let _ = self.epoll.remove(&conn.stream);
        }
    }

    fn child_ready(&mut self, key: usize, ev: Event) {
        if ev.error {
            self.drop_child(key);
            return;
        }
        if (ev.readable || ev.closed) && !self.read_child_frames(key) {
            self.drop_child(key);
            return;
        }
        if ev.writable {
            self.flush_child(key);
        }
    }

    /// Reads and dispatches child frames; false means drop the connection.
    fn read_child_frames(&mut self, key: usize) -> bool {
        let Some(conn) = self.children.get_mut(key) else { return true };
        match conn.recv.drain_from(&mut conn.stream) {
            Ok(Io::Progress(_)) => self.dispatch_child_buffer(key),
            Ok(Io::WouldBlock) => true,
            Ok(Io::Eof) | Err(_) => {
                let _ = self.dispatch_child_buffer(key);
                false
            }
        }
    }

    fn dispatch_child_buffer(&mut self, key: usize) -> bool {
        loop {
            let Some(conn) = self.children.get_mut(key) else { return true };
            match Frame::decode(conn.recv.data()) {
                Ok(Some((frame, used))) => {
                    conn.recv.consume(used);
                    if !self.on_child_frame(key, frame) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(_) => return false,
            }
        }
    }

    /// Handles one frame from a child edge; false drops the connection.
    fn on_child_frame(&mut self, key: usize, frame: Frame) -> bool {
        match frame {
            Frame::Hello { node } => {
                if !self.cfg.children.contains(&(node as usize)) {
                    return false; // not one of ours: refuse the edge
                }
                // A reconnecting child replaces its stale edge.
                let stale: Vec<usize> = self
                    .children
                    .iter()
                    .filter(|(k, c)| *k != key && c.hello == Some(node))
                    .map(|(k, _)| k)
                    .collect();
                for k in stale {
                    self.drop_child(k);
                }
                if let Some(conn) = self.children.get_mut(key) {
                    conn.hello = Some(node);
                }
                // The peer may be a restarted process whose round counter
                // begins again from zero; its next Up re-derives the rebase.
                self.round.rejoining.insert(node);
                true
            }
            Frame::Up { node, epoch, round, values, .. } => {
                self.stats.frame_received();
                if epoch != self.cfg.epoch {
                    return true; // stale topology: ignore, keep the edge
                }
                let id_ok =
                    self.children.get(key).map(|c| c.hello == Some(node)).unwrap_or(false);
                if !id_ok {
                    return false; // Up before Hello, or forged id
                }
                let base = self.round.child_base.get(&node).copied().unwrap_or(0);
                let mut eff = round.saturating_add(base);
                if self.round.rejoining.remove(&node) {
                    // First Up after a (re)connect: if the effective round
                    // does not advance past the stored last-good round, the
                    // child restarted and reset its counter — rebase so this
                    // frame lands immediately after the pre-crash round.
                    if let Some((prev, _)) = self.round.child_latest.get(&node) {
                        if eff <= *prev {
                            let rebased = prev.saturating_add(1).saturating_sub(round);
                            self.round.child_base.insert(node, rebased);
                            eff = round.saturating_add(rebased);
                        }
                    }
                }
                let newer = self
                    .round
                    .child_latest
                    .get(&node)
                    .map(|(r, _)| eff > *r)
                    .unwrap_or(true);
                if newer {
                    self.round.child_latest.insert(node, (eff, values));
                }
                true
            }
            Frame::Down { .. } => true, // children never send Down; ignore
        }
    }

    fn flush_child(&mut self, key: usize) {
        let epoll = &self.epoll;
        let token = T_CHILD_BASE + key as u64;
        let Some(conn) = self.children.get_mut(key) else { return };
        match conn.send.flush_into(&mut conn.stream) {
            Ok(Io::Progress(_)) => {
                if conn.interest.contains(Interest::WRITE) {
                    conn.interest = Interest::READ;
                    let _ = epoll.modify(&conn.stream, token, conn.interest);
                }
            }
            Ok(Io::WouldBlock) => {
                if !conn.interest.contains(Interest::WRITE) {
                    conn.interest = Interest::READ | Interest::WRITE;
                    let _ = epoll.modify(&conn.stream, token, conn.interest);
                }
            }
            Ok(Io::Eof) | Err(_) => self.drop_child(key),
        }
    }

    fn broadcast_down(&mut self, frame: &Frame) {
        self.scratch.clear();
        frame.encode(&mut self.scratch);
        let keys: Vec<usize> = self
            .children
            .iter()
            .filter(|(_, c)| c.hello.is_some())
            .map(|(k, _)| k)
            .collect();
        for key in keys {
            let Some(conn) = self.children.get_mut(key) else { continue };
            conn.send.push(&self.scratch);
            self.stats.frame_sent();
            self.flush_child(key);
        }
    }

    // ---- round engine ----------------------------------------------------

    /// Advances as many own rounds as are complete (or, in live mode,
    /// forced at their aligned-boundary deadline).
    fn try_advance(&mut self, now: Instant) {
        loop {
            if self.round.target.is_none() {
                let Some((r, demand, t)) = self.shared.outbox.lock().pop_front() else {
                    return;
                };
                if self.cfg.mode == StampMode::Live && !self.cfg.children.is_empty() {
                    // A round left incomplete at the next aligned window
                    // boundary is forced with last-good child values —
                    // the same grid the shard loops' `WindowTicker` skips
                    // along.
                    let published_at = Duration::try_from_secs_f64(t.max(0.0))
                        .ok()
                        .map(|d| self.clock.epoch() + d)
                        .unwrap_or(now);
                    self.round.force_at =
                        Some(next_aligned_boundary(published_at, now, self.cfg.window));
                }
                self.round.target = Some((r, demand, t));
            }
            let r = match self.round.target.as_ref() {
                Some((r, _, _)) => *r,
                None => return,
            };
            let ready = self.cfg.children.iter().all(|c| {
                self.round
                    .child_latest
                    .get(&(*c as u32))
                    .map(|(cr, _)| *cr >= r)
                    .unwrap_or(false)
            });
            let forced = self.cfg.mode == StampMode::Live
                && self.round.force_at.map(|d| now >= d).unwrap_or(false);
            if !ready && !forced {
                return;
            }
            let Some((r, demand, t)) = self.round.target.take() else { return };
            self.round.force_at = None;
            if !ready {
                self.stats.round_forced();
            }
            let mut total = demand;
            for c in &self.cfg.children {
                if let Some((_, vals)) = self.round.child_latest.get(&(*c as u32)) {
                    accumulate(&mut total, vals);
                }
            }
            let node = self.cfg.node as u32;
            let epoch = self.cfg.epoch;
            if self.cfg.parent.is_none() {
                // Root: the round closes here.
                let stamp = match self.cfg.mode {
                    StampMode::Virtual => t,
                    StampMode::Live => self.clock.now(),
                };
                self.shared.deliver(r, stamp, total.clone());
                self.stats.round_completed(r);
                self.broadcast_down(&Frame::Down { node, epoch, round: r, t, values: total });
            } else {
                self.round.last_up = Some((r, total.clone(), t));
                self.round.up_sent_at = Some((r, now));
                self.queue_to_parent(&Frame::Up { node, epoch, round: r, t, values: total }, true);
            }
        }
    }
}

/// Spawns an in-process loopback wire tree — one runtime thread per node —
/// from a `parents` array (`parents[i]` is node `i`'s parent; exactly one
/// `None` root; root must come first in spawn order, so parents must point
/// to lower indices). Returns the per-node handles in node order. Used by
/// tests and the loopback bench; the multi-process cluster builds the same
/// configs itself.
pub fn spawn_local(
    parents: &[Option<usize>],
    epoch: u32,
    mode: StampMode,
    window: Duration,
) -> io::Result<Vec<WireNode>> {
    let n = parents.len();
    let mut nodes: Vec<WireNode> = Vec::with_capacity(n);
    for (i, parent) in parents.iter().enumerate() {
        let parent_addr = match parent {
            None => None,
            Some(p) if *p < i => nodes.get(*p).map(|h| h.listen_addr()),
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "parents must point to already-spawned (lower-index) nodes",
                ))
            }
        };
        if parent.is_some() && parent_addr.is_none() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "missing parent node"));
        }
        let children: Vec<usize> = parents
            .iter()
            .enumerate()
            .filter(|(_, p)| **p == Some(i))
            .map(|(c, _)| c)
            .collect();
        let bind: SocketAddr = "127.0.0.1:0".parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidInput, "loopback bind address")
        })?;
        nodes.push(WireNode::start(WireNodeConfig {
            node: i,
            nodes: n,
            parent: parent_addr,
            children,
            epoch,
            mode,
            window,
            bind,
        })?);
    }
    Ok(nodes)
}
