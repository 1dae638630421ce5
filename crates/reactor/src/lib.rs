//! A hand-rolled readiness-driven reactor for the live data plane.
//!
//! The paper's redirectors need window-granularity coordination only, so
//! the live data plane scales by *sharding*: N thread-per-core event
//! loops, each owning its own enforcement state machine, meeting the
//! other shards only at window boundaries through the combining tree.
//! This crate is the per-shard substrate those loops are built from —
//! deliberately small, offline-buildable (raw `epoll` through a thin
//! syscall shim in [`sys`], no mio/tokio), and transport-agnostic:
//!
//! * [`Epoll`] / [`Interest`] / [`Event`] — level-triggered readiness
//!   registration and harvesting, tokens keying a [`Slab`];
//! * [`WakeFd`] / [`WakeHandle`] — eventfd cross-thread wakeup (shutdown,
//!   config pushes) without pipes or signals;
//! * [`RecvBuf`] / [`SendBuf`] / [`Io`] — nonblocking buffers whose
//!   partial-read/partial-write outcomes drive explicit per-connection
//!   state machines;
//! * [`WindowTicker`] — aligned `k·w` boundary arithmetic with
//!   stall-skip semantics, so a shard rolls its enforcement window on the
//!   same schedule the simulator replays;
//! * [`Shards`] / [`Shard`] / [`step`] — the thread-per-shard runtime,
//!   written once for both data planes: N named threads, each looping
//!   wait → one clock sample → roll a due boundary → the wake's events →
//!   end of wake over one [`Shard`] (the plane's sockets around its
//!   sans-IO protocol machine), with an idempotent shutdown; tests call
//!   [`step`] directly to run a wake without a socket. [`accept_ready`]
//!   drains a listener's backlog for either plane;
//! * [`reuseport_listener`] / [`connect_nonblocking`] /
//!   [`set_rst_on_close`] — the three socket operations `std::net` cannot
//!   express, which the sharded accept path needs (`SO_REUSEPORT` fan-in,
//!   `EINPROGRESS` connects, RST shedding).
//!
//! Everything `unsafe` is confined to [`sys`]; the rest of the workspace
//! keeps `#![forbid(unsafe_code)]`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod epoll;
mod shard;
mod slab;
mod sys;
mod ticker;
mod wake;

pub use buf::{Io, RecvBuf, SendBuf};
pub use epoll::{Epoll, Event, Interest};
pub use shard::{accept_ready, step, Shard, Shards};
pub use slab::Slab;
pub use sys::{
    connect_nonblocking, reuseport_listener, set_recv_buffer, set_rst_on_close, set_send_buffer,
    take_socket_error,
};
pub use ticker::WindowTicker;
pub use wake::{WakeFd, WakeHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::{Duration, Instant};

    fn nonblocking_pair(tiny_buffers: bool) -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        if tiny_buffers {
            // Inherited by the accepted socket; pre-handshake, so the
            // negotiated window is genuinely small.
            set_recv_buffer(&listener, 4096).unwrap();
        }
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        if tiny_buffers {
            set_send_buffer(&a, 4096).unwrap();
        }
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    /// The satellite-mandated state-transition test: a send buffer larger
    /// than the kernel buffers must go through WouldBlock (partial write),
    /// the receive side through repeated partial reads, and both must
    /// resume exactly where they stopped — byte-identical reassembly.
    #[test]
    fn partial_write_then_partial_read_transitions() {
        // Tiny kernel buffers force partiality deterministically.
        let (mut tx, mut rx) = nonblocking_pair(true);

        let payload: Vec<u8> = (0..512 * 1024).map(|i| (i % 251) as u8).collect();
        let mut send = SendBuf::new();
        send.push(&payload);
        assert_eq!(send.len(), payload.len());

        // First flush cannot drain half a megabyte into 4 KB of socket:
        // it must park mid-buffer.
        assert_eq!(send.flush_into(&mut tx).unwrap(), Io::WouldBlock);
        let after_first = send.len();
        assert!(after_first > 0 && after_first < payload.len(), "pending {after_first}");

        let mut recv = RecvBuf::with_capacity_limit(64 * 1024);
        let mut got: Vec<u8> = Vec::new();
        let mut flush_blocked = 0u32;
        let mut read_progress = 0u32;
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < payload.len() {
            assert!(Instant::now() < deadline, "stalled at {} bytes", got.len());
            match send.flush_into(&mut tx) {
                Ok(Io::WouldBlock) => flush_blocked += 1,
                Ok(Io::Progress(_)) => {}
                other => panic!("flush: {other:?}"),
            }
            match recv.drain_from(&mut rx) {
                Ok(Io::Progress(_)) => {
                    read_progress += 1;
                    got.extend_from_slice(recv.data());
                    let n = recv.len();
                    recv.consume(n);
                }
                Ok(Io::WouldBlock) => std::thread::yield_now(),
                other => panic!("fill: {other:?}"),
            }
        }
        assert_eq!(got, payload, "reassembled bytes differ");
        assert!(send.is_empty());
        assert!(flush_blocked > 0, "write path never hit WouldBlock");
        assert!(read_progress > 2, "read path never went partial");

        // EOF transition: closing the writer surfaces Io::Eof exactly once
        // the buffered bytes are drained.
        drop(tx);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "EOF never surfaced");
            match recv.drain_from(&mut rx).unwrap() {
                Io::Eof => break,
                _ => std::thread::yield_now(),
            }
        }
    }

    /// End-to-end reactor plumbing: accept through a reuseport listener,
    /// complete a nonblocking connect, echo bytes through epoll-driven
    /// readiness, and observe the wake fd.
    #[test]
    fn epoll_drives_connect_accept_echo_and_wake() {
        const T_LISTEN: u64 = 0;
        const T_WAKE: u64 = 1;
        const T_CLIENT: u64 = 2;
        const T_SERVER: u64 = 3;

        let epoll = Epoll::new().unwrap();
        let listener = reuseport_listener("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        // A second listener on the same resolved address must succeed —
        // the SO_REUSEPORT contract sharding rests on.
        let second = reuseport_listener(addr).unwrap();
        drop(second);

        let (wakefd, handle) = WakeFd::new().unwrap();
        epoll.add(&listener, T_LISTEN, Interest::READ).unwrap();
        epoll.add(&wakefd, T_WAKE, Interest::READ).unwrap();

        let client = connect_nonblocking(addr).unwrap();
        epoll.add(&client, T_CLIENT, Interest::READ | Interest::WRITE).unwrap();
        handle.wake();

        let mut events = Vec::new();
        let mut server: Option<TcpStream> = None;
        let mut client = Some(client);
        let mut connected = false;
        let mut woke = false;
        let mut echoed = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !(connected && woke && echoed == b"ping") {
            assert!(Instant::now() < deadline, "stuck: {connected} {woke} {echoed:?}");
            epoll.wait(&mut events, 100).unwrap();
            for ev in events.clone() {
                match ev.token {
                    T_LISTEN => {
                        let (s, _) = listener.accept().unwrap();
                        s.set_nonblocking(true).unwrap();
                        epoll.add(&s, T_SERVER, Interest::READ).unwrap();
                        server = Some(s);
                    }
                    T_WAKE => {
                        wakefd.drain();
                        woke = true;
                    }
                    T_CLIENT if ev.writable && !connected => {
                        let c = client.as_mut().unwrap();
                        assert!(take_socket_error(c).unwrap().is_none());
                        connected = true;
                        c.write_all(b"ping").unwrap();
                        // Connected and sent: writability interest done.
                        epoll.modify(client.as_ref().unwrap(), T_CLIENT, Interest::READ).unwrap();
                    }
                    T_SERVER if ev.readable => {
                        let mut buf = [0u8; 16];
                        let n = server.as_mut().unwrap().read(&mut buf).unwrap();
                        echoed.extend_from_slice(&buf[..n]);
                    }
                    _ => {}
                }
            }
        }
        epoll.remove(client.as_ref().unwrap()).unwrap();
    }

    /// RST shedding: a linger-zero close must reach the peer as a
    /// connection reset, not an orderly EOF.
    #[test]
    fn rst_on_close_resets_peer() {
        let (tx, mut rx) = nonblocking_pair(false);
        set_rst_on_close(&tx).unwrap();
        drop(tx);
        let mut buf = [0u8; 8];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            assert!(Instant::now() < deadline, "no reset observed");
            match rx.read(&mut buf) {
                Ok(0) => panic!("orderly EOF; expected RST"),
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                }
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e:?}");
                    break;
                }
            }
        }
    }
}
