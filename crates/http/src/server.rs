//! Blocking HTTP server with cooperative shutdown.

use crate::{HttpError, HttpRequest, HttpResponse, StatusCode};
use parking_lot::Mutex;
use std::io::{BufReader, BufWriter};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A request handler: maps a request (plus the peer address) to a response.
pub type Handler = Arc<dyn Fn(&HttpRequest, SocketAddr) -> HttpResponse + Send + Sync>;

/// Wraps a closure as a [`Handler`], pinning the higher-ranked lifetime so
/// closure type inference works at call sites.
pub fn handler<F>(f: F) -> Handler
where
    F: Fn(&HttpRequest, SocketAddr) -> HttpResponse + Send + Sync + 'static,
{
    Arc::new(f)
}

/// A running HTTP server. Dropping it (or calling [`HttpServer::shutdown`])
/// stops the accept loop and joins it. The accept thread blocks in
/// `accept` while idle; shutdown wakes it with a connection of its own.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Completed-request counter (for capacity/throughput assertions).
    served: Arc<Mutex<u64>>,
}

impl HttpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` on a thread per connection.
    pub fn bind(addr: &str, handler: Handler) -> Result<Self, HttpError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let served = Arc::new(Mutex::new(0u64));

        let stop2 = Arc::clone(&stop);
        let served2 = Arc::clone(&served);
        let accept_thread = std::thread::Builder::new()
            .name(format!("http-accept-{local}"))
            .spawn(move || {
                let mut workers: Vec<JoinHandle<()>> = Vec::new();
                loop {
                    let accepted = listener.accept();
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    match accepted {
                        Ok((stream, peer)) => {
                            let handler = Arc::clone(&handler);
                            let served = Arc::clone(&served2);
                            workers.push(
                                std::thread::Builder::new()
                                    .name("http-conn".into())
                                    .spawn(move || {
                                        let _ = serve_connection(stream, peer, handler, served);
                                    })
                                    .expect("spawn connection thread"),
                            );
                            // Reap finished workers opportunistically.
                            workers.retain(|h| !h.is_finished());
                        }
                        // A connection that failed before it was accepted.
                        Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
                        Err(_) => break,
                    }
                }
                for h in workers {
                    let _ = h.join();
                }
            })
            .expect("spawn accept thread");

        Ok(HttpServer { addr: local, stop, accept_thread: Some(accept_thread), served })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total requests answered so far.
    pub fn served(&self) -> u64 {
        *self.served.lock()
    }

    /// Stops the accept loop and joins it (idempotent). The loop blocks in
    /// `accept`, so a connection to the server's own address wakes it to
    /// see the stop flag; if that connect fails, the loop has already
    /// ended.
    pub fn shutdown(&mut self) {
        let Some(h) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        let _ = h.join();
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(
    stream: TcpStream,
    peer: SocketAddr,
    handler: Handler,
    served: Arc<Mutex<u64>>,
) -> Result<(), HttpError> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let response = match HttpRequest::read_from(&mut reader) {
        Ok(req) => handler(&req, peer),
        Err(HttpError::UnexpectedEof) => return Ok(()), // health probe / cancelled
        Err(_) => HttpResponse::status(StatusCode::BAD_REQUEST),
    };
    // Count before writing: once a client has read the response, the
    // counter must already reflect it, or observers that join on client
    // completion can read a stale total.
    *served.lock() += 1;
    response.write_to(&mut writer)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HttpClient;

    fn echo_server() -> HttpServer {
        let handler: Handler =
            super::handler(|req, _peer| HttpResponse::ok(format!("path={}", req.path)));
        HttpServer::bind("127.0.0.1:0", handler).unwrap()
    }

    #[test]
    fn serves_requests() {
        let server = echo_server();
        let client = HttpClient::new();
        let resp = client
            .get(&format!("http://{}/hello", server.addr()))
            .unwrap();
        assert_eq!(resp.response.status, StatusCode::OK);
        assert_eq!(resp.response.body, b"path=/hello");
        assert_eq!(server.served(), 1);
    }

    #[test]
    fn serves_concurrent_connections() {
        let server = echo_server();
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..16 {
            handles.push(std::thread::spawn(move || {
                let client = HttpClient::new();
                let r = client.get(&format!("http://{addr}/c{i}")).unwrap();
                assert_eq!(r.response.body, format!("path=/c{i}").as_bytes());
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.served(), 16);
    }

    #[test]
    fn bad_request_for_garbage() {
        use std::io::{Read, Write};
        let server = echo_server();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        s.write_all(b"garbage\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_port() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        drop(server);
        // Port reusable after shutdown.
        let _rebind = TcpListener::bind(addr).unwrap();
    }
}
